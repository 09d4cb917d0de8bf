"""Byte-exact wire codec for every protocol message, and the sealed channel.

A message is a 1-byte type tag followed by its fields in declaration order.
Each message class lists its fields' kinds in ``LAYOUT``, and
``encode_message``/``decode_message`` frame that layout after the tag the way
``pack``/``unpack`` frame any kinds. The kinds (all
integers big-endian):

  elem        group element, element_width bytes (G, G1 and scalar values alike)
  elem_list   4-byte count + that many elements
  shares      4-byte count + that many (element, 42-byte pseudonym) pairs
  fid         pseudonym, exactly 42 bytes
  mac         MAC, exactly 16 bytes; when present, always the final field
  rest        all remaining bytes; when present, always the final field
  u64         8-byte unsigned (timestamps in milliseconds, epochs)
  i64         8-byte signed (location coordinates in centimeters)
  var         4-byte length prefix + bytes (ciphertexts, identities)

``decode(encode(m)) == m`` for every message, and decoding rejects unknown
tags, truncated input and trailing garbage.

The same kinds frame the bytes inside messages: ``pack``/``unpack`` write and
read any sequence of kinds without a type tag. Each sealed class declares the
plaintext of its ``ct`` as ``BODY``:

  AuthChallenge     elem, elem                 T_RSU, N1*Q_RSU
  AuthConfirm       fid, elem, elem, elem      fid, T_V, N1*Q_V, K_V
  ShareOffer        fid, elem                  fid, g^lambda
  ShareUpdate       elem, elem                 blinded share, share product
  GroupKeyNotice    elem                       new group key
  LeaveUpdate       shares, elem               remaining (blinded, fid), product
  GroupKeyTransfer  elem, u64                  group key, epoch
  GroupBroadcast    fid, rest                  sender fid, payload
  UplinkMessage     rest                       payload
  DirectoryRequest  u64, fid                   request constant, requester fid
  DirectoryListing  shares                     every (blinded, fid)
  PeerMessage       fid, fid, u64, var, mac    recipient, sender, epoch,
                                               inner ct, inner mac

The hello's ``kem_ct`` plaintext is ``AuthHello.KEM`` (fid, nonce N1), and
the inner MAC of a peer message covers ``PeerMessage.INNER_MAC`` (sender,
recipient, epoch, inner ct). A Schnorr signature covers ``signed_input``: the
class's ``SIG_DOMAIN`` followed by every field but the signature pair.

Every message after the beacon is sealed by a ``Channel``: an encryption key
and a MAC key derived from one shared secret, the hello nonce N1 (vehicle-RSU
channel, label ``n1``), the group key (group traffic, ``gk``) or the RSU-to-RSU
session key (group-key transfer, ``sk``). The MAC covers ``mac_input``, the
message's encoding with its final 16 bytes zeroed. ``Channel.seal`` takes the
body's values and ``Channel.open`` returns them; a body that is not exactly
its ``BODY`` raises ``DecryptFail``. Every receiver of a group message opens it
under the same channel, so ``open`` memoizes its outcome, success or failure,
for the last 16 distinct (channel, width, message) inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from functools import lru_cache
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
from .errors import DecryptFail, MacFail

_U32_MAX = 2**32 - 1
_U64_MAX = 2**64 - 1
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


class _Writer:
    def __init__(self, width: int):
        self.width = width
        self.parts: list[bytes] = []

    def u64(self, v: int) -> None:
        if not 0 <= v <= _U64_MAX:
            raise ValueError(f"u64 field out of range: {v}")
        self.parts.append(v.to_bytes(8, "big"))

    def i64(self, v: int) -> None:
        if not _I64_MIN <= v <= _I64_MAX:
            raise ValueError(f"i64 field out of range: {v}")
        self.parts.append(v.to_bytes(8, "big", signed=True))

    def elem(self, v: int) -> None:
        try:
            self.parts.append(v.to_bytes(self.width, "big"))
        except OverflowError:
            raise ValueError(f"element {v} does not fit width {self.width}") from None

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

    def shares(self, vs: tuple[tuple[int, bytes], ...]) -> None:
        if len(vs) > _U32_MAX:
            raise ValueError("share list too long")
        self.parts.append(len(vs).to_bytes(4, "big"))
        for v, fid in vs:
            self.elem(v)
            self.fid(fid)

    def rest(self, v: bytes) -> None:
        self.parts.append(v)

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

    def shares(self) -> tuple[tuple[int, bytes], ...]:
        n = int.from_bytes(self.take(4), "big")
        w = self.width
        step = w + PSEUDONYM_LEN
        # one slice and one pass: every member of a group parses each leave
        # update, so this is the codec's hottest loop
        block = self.take(n * step)
        get = int.from_bytes
        starts = range(0, len(block), step)
        return tuple([(get(block[i : i + w], "big"), block[i + w : i + step]) for i in starts])

    def rest(self) -> bytes:
        return self.take(len(self.data) - self.pos)

    def read(self, gets: tuple) -> tuple:
        """One value per reader method in ``gets``; ValueError unless they
        end exactly at the end of the data."""
        values = tuple([get(self) for get in gets])
        if self.pos != len(self.data):
            raise ValueError(f"{len(self.data) - self.pos} trailing bytes")
        return values


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
    SIG_DOMAIN = b"ring1|"
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
    SIG_DOMAIN = b"ring2|"
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
    SIG_DOMAIN = b""
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
    KEM = ("fid", "elem")  # kem_ct plaintext: pseudonym, nonce N1
    pk_v: int
    ts_ms: int
    gk_fid_ct: bytes  # pseudonym under a neighbor group key (or filler)
    kem_epk: int  # ephemeral public key of the hybrid encryption
    kem_ct: bytes  # (fid, nonce scalar) for the RSU
    mac: bytes


class AuthChallenge(_Sealed):
    """RSU challenge carrying its blinded certification values."""

    TAG = 0x12
    BODY = ("elem", "elem")


class AuthConfirm(_Sealed):
    """Vehicle key-confirmation response."""

    TAG = 0x13
    BODY = ("fid", "elem", "elem", "elem")


class ShareOffer(_Sealed):
    """Member's blinded group-key share, on the per-vehicle channel."""

    TAG = 0x20
    BODY = ("fid", "elem")


class ShareUpdate(_EpochSealed):
    """Per-member rekey material (blinded share and share product)."""

    TAG = 0x21
    BODY = ("elem", "elem")


class GroupKeyNotice(_EpochSealed):
    """New group key broadcast, encrypted under the previous group key."""

    TAG = 0x22
    BODY = ("elem",)


class LeaveUpdate(_EpochSealed):
    """Post-departure rekey broadcast listing the remaining members' shares."""

    TAG = 0x23
    BODY = ("shares", "elem")


class GroupKeyTransfer(_Sealed):
    """Group key and its epoch, handed to a neighbor RSU under the RSU-to-RSU
    session key."""

    TAG = 0x24
    BODY = ("elem", "u64")


class GroupBroadcast(_Sealed):
    """Group-wide message under the group key; sender fid inside."""

    TAG = 0x30
    BODY = ("fid", "rest")


@dataclass(frozen=True)
class UplinkMessage:
    """Vehicle-to-RSU confidential unicast on the per-vehicle channel."""

    TAG = 0x31
    LAYOUT = ("fid", "var", "mac")
    BODY = ("rest",)
    fid: bytes
    ct: bytes
    mac: bytes


class DirectoryRequest(_Sealed):
    """Member request for the share directory (one-to-one setup)."""

    TAG = 0x32
    BODY = ("u64", "fid")


class DirectoryListing(_EpochSealed):
    """RSU broadcast of all (blinded share, fid) pairs in the group."""

    TAG = 0x33
    BODY = ("shares",)


class PeerMessage(_Sealed):
    """Vehicle-to-vehicle message: pairwise-key layer inside group-key layer."""

    TAG = 0x34
    BODY = ("fid", "fid", "u64", "var", "mac")
    INNER_MAC = ("fid", "fid", "u64", "rest")


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


@lru_cache(maxsize=64)
def _frame(kinds: tuple[str, ...]) -> tuple[tuple, tuple]:
    """The writer and the reader method of each kind, looked up once per layout."""
    if "mac" in kinds[:-1] or "rest" in kinds[:-1]:
        raise ValueError(f"mac and rest may only be the final kind: {kinds}")
    return tuple(getattr(_Writer, k) for k in kinds), tuple(getattr(_Reader, k) for k in kinds)


# per class: a getter that returns the field values in layout order; _frame
# rejects, at import, a LAYOUT or BODY with mac or rest anywhere but last
for _cls in MESSAGE_TYPES:
    _names = [f.name for f in fields(_cls)]
    assert len(_names) == len(_cls.LAYOUT), _cls
    _cls._VALUES = attrgetter(*_names)
    _frame(_cls.LAYOUT)
    if hasattr(_cls, "BODY"):
        _frame(_cls.BODY)

_NO_MAC = bytes(MAC_LEN)


def _encode(cls: type, values: tuple, element_width: int) -> bytes:
    return bytes((cls.TAG,)) + pack(cls.LAYOUT, values, element_width)


def pack(kinds: tuple[str, ...], values, element_width: int) -> bytes:
    """``values`` framed by ``kinds``, with no type tag."""
    w = _Writer(element_width)
    for put, v in zip(_frame(kinds)[0], values, strict=True):
        put(w, v)
    return w.getvalue()


def unpack(kinds: tuple[str, ...], data: bytes, element_width: int) -> tuple:
    """The values ``pack`` framed by ``kinds``; DecryptFail if ``data`` is
    truncated or longer than the frame."""
    gets = _frame(kinds)[1]
    try:
        return _Reader(data, element_width).read(gets)
    except ValueError as e:
        raise DecryptFail(f"malformed body: {e}") from None


def signed_input(msg: WireMessage, element_width: int) -> bytes:
    """Bytes a message's Schnorr signature covers: the class's SIG_DOMAIN,
    then every field but the final (sig_c, sig_s) pair."""
    cls = type(msg)
    return cls.SIG_DOMAIN + pack(cls.LAYOUT[:-2], cls._VALUES(msg)[:-2], element_width)


def encode_message(msg: WireMessage, element_width: int) -> bytes:
    cls = type(msg)
    return _encode(cls, cls._VALUES(msg), element_width)


def decode_message(data: bytes, element_width: int) -> WireMessage:
    r = _Reader(data, element_width)
    tag = r.take(1)[0]
    try:
        cls = _BY_TAG[tag]
    except KeyError:
        raise ValueError(f"unknown type tag 0x{tag:02x}") from None
    return cls(*r.read(_frame(cls.LAYOUT)[1]))


@lru_cache(maxsize=32)
def mac_input(msg: WireMessage, element_width: int) -> bytes:
    """Canonical bytes a message's MAC is computed over: the encoding with
    the mac field (always the last 16 bytes) zeroed.

    Memoized by value: messages are frozen dataclasses that hash and compare
    by class and fields, so every receiver of one broadcast shares one
    encoding."""
    if msg.LAYOUT[-1] != "mac":
        raise TypeError(f"{type(msg).__name__} carries no mac")
    return encode_message(msg, element_width)[:-MAC_LEN] + _NO_MAC


class Channel(NamedTuple):
    """Encrypt-then-MAC under two keys derived from one shared secret.

    ``seal`` and ``open`` encrypt a message's ``BODY`` values into its ``ct``
    field and MAC the message. ``tag`` and ``check`` only MAC: the hello
    carries ciphertexts under other keys, and the fast-path ack an empty ``ct``.
    """

    enc_key: bytes
    mac_key: bytes

    @staticmethod
    @lru_cache(maxsize=256)
    def derive(secret: int, label: bytes) -> "Channel":
        """The channel of ``secret`` under ``label``: b"n1", b"gk", b"sk" or
        b"vvk" (the inner layer of a peer message).

        Memoized: every member opens each group message under the same key."""
        return Channel(kdf(secret, label + b":enc"), kdf(secret, label + b":mac"))

    def tag(self, element_width: int, cls: type, *values) -> WireMessage:
        """``cls(*values, mac)``, MACed over its ``mac_input``."""
        data = _encode(cls, (*values, _NO_MAC), element_width)
        return cls(*values, hmac_tag(self.mac_key, data))

    def check(self, element_width: int, msg: WireMessage) -> None:
        if not macs_equal(msg.mac, hmac_tag(self.mac_key, mac_input(msg, element_width))):
            raise MacFail(f"bad mac on {type(msg).__name__}")

    def seal(
        self, element_width: int, cls: type, body: tuple, rng: random.Random, *head
    ) -> WireMessage:
        """``cls(*head, ct, mac)`` with ``body`` framed by ``cls.BODY`` and
        encrypted into ``ct``."""
        plaintext = pack(cls.BODY, body, element_width)
        return self.tag(element_width, cls, *head, sym_encrypt(self.enc_key, plaintext, rng))

    def open(self, element_width: int, msg: WireMessage) -> tuple:
        """Check the MAC, decrypt ``msg.ct`` and return its ``BODY`` values;
        DecryptFail if the plaintext does not frame exactly.

        A rejection is raised as a new exception on every call, with the
        class and text of the first check of this channel and message."""
        body, error = _open_outcome(self, element_width, msg)
        if error is not None:
            cls, text = error
            raise cls(text)
        return body


@lru_cache(maxsize=16)
def _open_outcome(channel: Channel, element_width: int, msg: WireMessage) -> tuple:
    """``(body, None)``, or ``(None, (error class, message))`` for a rejection.

    Memoized by value: all receivers of one send open it back to back, so the
    ones under the same key share one MAC check and one decryption, and those
    under the same stale key share one MAC failure. Sixteen entries outlast
    the opens of one send, and later sends overwrite them long before a run
    that replays the same secrets could reuse them. A failure is stored as its
    class and text, not as an exception, whose traceback would grow with every
    raise."""
    try:
        channel.check(element_width, msg)
        return unpack(msg.BODY, sym_decrypt(channel.enc_key, msg.ct), element_width), None
    except (MacFail, DecryptFail) as e:
        return None, (type(e), str(e))


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
