"""Byte-exact wire codec for every protocol message, and the sealed channel.

A message is a 1-byte type tag followed by its fields in declaration order.
Each message class lists its fields' kinds in ``LAYOUT``, and
``encode_message``/``decode_message`` walk that layout. The kinds (all
integers big-endian):

  elem        group element, element_width bytes (G, G1 and scalar values alike)
  elem_list   4-byte count + that many elements
  fid         pseudonym, exactly 42 bytes
  mac         MAC, exactly 16 bytes; when present, always the final field
  u64         8-byte unsigned (timestamps in milliseconds, epochs)
  i64         8-byte signed (location coordinates in centimeters)
  var         4-byte length prefix + bytes (ciphertexts, identities)

``decode(encode(m)) == m`` for every message, and decoding rejects unknown
tags, truncated input and trailing garbage.

Every message after the beacon is sealed by a ``Channel``: an encryption key
and a MAC key derived from one shared secret, the hello nonce N1 (vehicle-RSU
channel, label ``n1``), the group key (group traffic, ``gk``) or the RSU-to-RSU
session key (group-key transfer, ``sk``). The MAC covers ``mac_input``, the
message's encoding with its final 16 bytes zeroed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import NamedTuple, get_args

from .crypto import (
    MAC_LEN,
    PSEUDONYM_LEN,
    hmac_tag,
    kdf,
    macs_equal,
    sym_decrypt,
    sym_encrypt,
)
from .errors import MacFail

_U32_MAX = 2**32 - 1
_U64_MAX = 2**64 - 1
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


class _Writer:
    def __init__(self, width: int):
        self.width = width
        self.parts: list[bytes] = []

    def u8(self, v: int) -> None:
        self.parts.append(v.to_bytes(1, "big"))

    def u64(self, v: int) -> None:
        if not 0 <= v <= _U64_MAX:
            raise ValueError(f"u64 field out of range: {v}")
        self.parts.append(v.to_bytes(8, "big"))

    def i64(self, v: int) -> None:
        if not _I64_MIN <= v <= _I64_MAX:
            raise ValueError(f"i64 field out of range: {v}")
        self.parts.append(v.to_bytes(8, "big", signed=True))

    def elem(self, v: int) -> None:
        if not 0 <= v < 256**self.width:
            raise ValueError(f"element {v} does not fit width {self.width}")
        self.parts.append(v.to_bytes(self.width, "big"))

    def fid(self, v: bytes) -> None:
        if len(v) != PSEUDONYM_LEN:
            raise ValueError(f"pseudonym must be {PSEUDONYM_LEN} bytes, got {len(v)}")
        self.parts.append(v)

    def mac(self, v: bytes) -> None:
        if len(v) != MAC_LEN:
            raise ValueError(f"mac must be {MAC_LEN} bytes, got {len(v)}")
        self.parts.append(v)

    def var(self, v: bytes) -> None:
        if len(v) > _U32_MAX:
            raise ValueError("variable field too long")
        self.parts.append(len(v).to_bytes(4, "big"))
        self.parts.append(v)

    def elem_list(self, vs: tuple[int, ...]) -> None:
        if len(vs) > _U32_MAX:
            raise ValueError("element list too long")
        self.parts.append(len(vs).to_bytes(4, "big"))
        for v in vs:
            self.elem(v)

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data: bytes, width: int):
        self.data = data
        self.width = width
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated message")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def i64(self) -> int:
        return int.from_bytes(self.take(8), "big", signed=True)

    def elem(self) -> int:
        return int.from_bytes(self.take(self.width), "big")

    def fid(self) -> bytes:
        return self.take(PSEUDONYM_LEN)

    def mac(self) -> bytes:
        return self.take(MAC_LEN)

    def var(self) -> bytes:
        n = int.from_bytes(self.take(4), "big")
        return self.take(n)

    def elem_list(self) -> tuple[int, ...]:
        n = int.from_bytes(self.take(4), "big")
        if self.pos + n * self.width > len(self.data):
            raise ValueError("truncated message")
        return tuple(self.elem() for _ in range(n))

    def done(self) -> None:
        if self.pos != len(self.data):
            raise ValueError(f"{len(self.data) - self.pos} trailing bytes")


# ---------------------------------------------------------------------------
# Message types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Sealed:
    """Ciphertext plus MAC."""

    LAYOUT = ("var", "mac")
    ct: bytes
    mac: bytes


@dataclass(frozen=True)
class _EpochSealed:
    """Epoch counter, ciphertext plus MAC."""

    LAYOUT = ("u64", "var", "mac")
    epoch: int
    ct: bytes
    mac: bytes


@dataclass(frozen=True)
class RingCommit:
    """Round-1 key agreement commitments among RSUs."""

    TAG = 0x01
    LAYOUT = ("var", "elem", "elem", "elem", "elem", "elem")
    tid: bytes
    x_pub: int
    r_pub: int
    t_pub: int
    sig_c: int
    sig_s: int


@dataclass(frozen=True)
class RingResponse:
    """Round-2 ring value, response scalar and deniability tokens."""

    TAG = 0x02
    LAYOUT = ("var", "elem", "elem", "elem_list", "elem", "elem")
    tid: bytes
    y: int
    s: int
    tokens: tuple[int, ...]
    sig_c: int
    sig_s: int


@dataclass(frozen=True)
class RsuBeacon:
    """Periodic RSU announcement, signed by the trust authority."""

    TAG = 0x10
    LAYOUT = ("elem", "i64", "i64", "elem", "elem", "elem")
    pk_rsu: int
    loc_x: int
    loc_y: int
    loc_hash: int
    sig_c: int
    sig_s: int


@dataclass(frozen=True)
class AuthHello:
    """Vehicle hello: epoch public key, timestamp, pseudonym ciphertexts."""

    TAG = 0x11
    LAYOUT = ("elem", "u64", "var", "elem", "var", "mac")
    pk_v: int
    ts_ms: int
    gk_fid_ct: bytes  # pseudonym under a neighbor group key (or filler)
    kem_epk: int  # ephemeral public key of the hybrid encryption
    kem_ct: bytes  # (fid, nonce scalar) for the RSU
    mac: bytes


class AuthChallenge(_Sealed):
    """RSU challenge carrying its blinded certification values."""

    TAG = 0x12


class AuthConfirm(_Sealed):
    """Vehicle key-confirmation response."""

    TAG = 0x13


class ShareOffer(_Sealed):
    """Member's blinded group-key share, on the per-vehicle channel."""

    TAG = 0x20


class ShareUpdate(_EpochSealed):
    """Per-member rekey material (blinded share and share product)."""

    TAG = 0x21


class GroupKeyNotice(_EpochSealed):
    """New group key broadcast, encrypted under the previous group key."""

    TAG = 0x22


class LeaveUpdate(_EpochSealed):
    """Post-departure rekey broadcast listing the remaining members' shares."""

    TAG = 0x23


class GroupKeyTransfer(_Sealed):
    """Group key handed to a neighbor RSU under the RSU-to-RSU session key;
    the ciphertext carries (group key, epoch as 8-byte big-endian)."""

    TAG = 0x24


class GroupBroadcast(_Sealed):
    """Group-wide message under the group key; sender fid inside."""

    TAG = 0x30


@dataclass(frozen=True)
class UplinkMessage:
    """Vehicle-to-RSU confidential unicast on the per-vehicle channel."""

    TAG = 0x31
    LAYOUT = ("fid", "var", "mac")
    fid: bytes
    ct: bytes
    mac: bytes


class DirectoryRequest(_Sealed):
    """Member request for the share directory (one-to-one setup)."""

    TAG = 0x32


class DirectoryListing(_EpochSealed):
    """RSU broadcast of all (blinded share, fid) pairs in the group."""

    TAG = 0x33


class PeerMessage(_Sealed):
    """Vehicle-to-vehicle message: pairwise-key layer inside group-key layer."""

    TAG = 0x34


WireMessage = (
    RingCommit
    | RingResponse
    | RsuBeacon
    | AuthHello
    | AuthChallenge
    | AuthConfirm
    | ShareOffer
    | ShareUpdate
    | GroupKeyNotice
    | LeaveUpdate
    | GroupKeyTransfer
    | GroupBroadcast
    | UplinkMessage
    | DirectoryRequest
    | DirectoryListing
    | PeerMessage
)
MESSAGE_TYPES: tuple[type, ...] = get_args(WireMessage)

_BY_TAG = {t.TAG: t for t in MESSAGE_TYPES}

# per class: the writer and reader method of each field, and a getter that
# returns the field values in layout order
for _cls in MESSAGE_TYPES:
    _names = [f.name for f in fields(_cls)]
    assert len(_names) == len(_cls.LAYOUT) and "mac" not in _cls.LAYOUT[:-1], _cls
    _cls._PUT = tuple(getattr(_Writer, kind) for kind in _cls.LAYOUT)
    _cls._GET = tuple(getattr(_Reader, kind) for kind in _cls.LAYOUT)
    _cls._VALUES = attrgetter(*_names)

_NO_MAC = bytes(MAC_LEN)


def _encode(cls: type, values: tuple, element_width: int) -> bytes:
    w = _Writer(element_width)
    w.u8(cls.TAG)
    for put, v in zip(cls._PUT, values):
        put(w, v)
    return w.getvalue()


def encode_message(msg: WireMessage, element_width: int) -> bytes:
    cls = type(msg)
    return _encode(cls, cls._VALUES(msg), element_width)


def decode_message(data: bytes, element_width: int) -> WireMessage:
    r = _Reader(data, element_width)
    tag = r.u8()
    try:
        cls = _BY_TAG[tag]
    except KeyError:
        raise ValueError(f"unknown type tag 0x{tag:02x}") from None
    msg = cls(*[get(r) for get in cls._GET])
    r.done()
    return msg


def mac_input(msg: WireMessage, element_width: int) -> bytes:
    """Canonical bytes a message's MAC is computed over: the encoding with
    the mac field (always the last 16 bytes) zeroed."""
    if msg.LAYOUT[-1] != "mac":
        raise TypeError(f"{type(msg).__name__} carries no mac")
    return encode_message(msg, element_width)[:-MAC_LEN] + _NO_MAC


class Channel(NamedTuple):
    """Encrypt-then-MAC under two keys derived from one shared secret.

    ``seal`` and ``open`` encrypt a plaintext into a message's ``ct`` field
    and MAC the message. ``tag`` and ``check`` only MAC: the hello carries
    ciphertexts under other keys, and the fast-path ack an empty ``ct``.
    """

    enc_key: bytes
    mac_key: bytes

    @classmethod
    def derive(cls, secret: int, label: bytes) -> "Channel":
        """The channel of ``secret`` under ``label``: b"n1", b"gk" or b"sk"."""
        return cls(kdf(secret, label + b":enc"), kdf(secret, label + b":mac"))

    def tag(self, element_width: int, cls: type, *values) -> WireMessage:
        """``cls(*values, mac)``, MACed over its ``mac_input``."""
        data = _encode(cls, (*values, _NO_MAC), element_width)
        return cls(*values, hmac_tag(self.mac_key, data))

    def check(self, element_width: int, msg: WireMessage) -> None:
        if not macs_equal(msg.mac, hmac_tag(self.mac_key, mac_input(msg, element_width))):
            raise MacFail(f"bad mac on {type(msg).__name__}")

    def seal(
        self, element_width: int, cls: type, plaintext: bytes, rng: random.Random, *head
    ) -> WireMessage:
        """``cls(*head, ct, mac)`` with ``plaintext`` encrypted into ``ct``."""
        return self.tag(element_width, cls, *head, sym_encrypt(self.enc_key, plaintext, rng))

    def open(self, element_width: int, msg: WireMessage) -> bytes:
        """Check the MAC, then decrypt ``msg.ct``."""
        self.check(element_width, msg)
        return sym_decrypt(self.enc_key, msg.ct)


def describe(msg: WireMessage) -> str:
    """Human-readable field dump (used by the ``codec dump`` CLI)."""
    lines = [f"{type(msg).__name__} (tag 0x{msg.TAG:02x})"]
    for f in fields(msg):
        v = getattr(msg, f.name)
        if isinstance(v, bytes):
            shown = v.hex()
            if len(shown) > 64:
                shown = f"{shown[:64]}... ({len(v)} bytes)"
            lines.append(f"  {f.name}: {shown}")
        elif isinstance(v, tuple):
            lines.append(f"  {f.name}: [{', '.join(str(x) for x in v)}]")
        else:
            lines.append(f"  {f.name}: {v}")
    return "\n".join(lines)
