"""Byte-exact wire codec for every protocol message, and the sealed channel.

A message is a 1-byte type tag followed by its fields in declaration order.
Each message class lists its fields' kinds in ``LAYOUT``, and
``encode_message``/``decode_message`` frame that layout after the tag the way
``pack``/``unpack`` frame any kinds. Each kind has a writer, which returns the
bytes of one field, and a reader, which takes ``(data, offset)`` and returns
the value and the offset after it; ``_frame`` looks both up once per layout
and element width, so framing builds no per-call objects. The kinds (all
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
tags, truncated input and trailing garbage. The codec is canonical, so
``encode(decode(d)) == d`` too.

A message keeps its wire bytes: those it was decoded from, MACed over
(``Channel.tag``) or last encoded to, with their element width, as
``_encoding`` in its instance ``__dict__``. ``encode_message`` returns them
and ``mac_input`` slices them when the width matches, so a message is encoded
once for the width it is sent at. They are no dataclass field, so ``repr``,
``==``, ``hash`` and ``dataclasses.replace`` ignore them.

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
under the same channel, so the message keeps each outcome of ``open``, success
or failure, by (channel, width) as ``_opened`` in its instance ``__dict__``.
Like ``_encoding`` it is no field, and it is freed with the message.
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


def _put_u64(v: int) -> bytes:
    return v.to_bytes(8, "big")


def _put_i64(v: int) -> bytes:
    return v.to_bytes(8, "big", signed=True)


def _sized_writer(n: int, what: str):
    def put(v: bytes) -> bytes:
        if len(v) != n:
            raise ValueError(f"{what} must be {n} bytes, got {len(v)}")
        return v

    return put


def _uint_reader(n: int):
    def get(data: bytes, pos: int) -> tuple[int, int]:
        end = pos + n
        if end > len(data):
            raise ValueError("truncated message")
        return int.from_bytes(data[pos:end], "big"), end

    return get


def _get_i64(data: bytes, pos: int) -> tuple[int, int]:
    end = pos + 8
    if end > len(data):
        raise ValueError("truncated message")
    return int.from_bytes(data[pos:end], "big", signed=True), end


def _bytes_reader(n: int):
    def get(data: bytes, pos: int) -> tuple[bytes, int]:
        end = pos + n
        if end > len(data):
            raise ValueError("truncated message")
        return data[pos:end], end

    return get


def _put_var(v: bytes) -> bytes:
    return len(v).to_bytes(4, "big") + v


_put_fid = _sized_writer(PSEUDONYM_LEN, "pseudonym")
_get_count = _uint_reader(4)  # the count or length before a var, elem_list or shares


def _get_var(data: bytes, pos: int) -> tuple[bytes, int]:
    n, pos = _get_count(data, pos)
    end = pos + n
    if end > len(data):
        raise ValueError("truncated message")
    return data[pos:end], end


def _kinds(width: int) -> dict[str, tuple]:
    """Each kind's writer and reader at element width ``width``.

    A writer returns the bytes of one field, or lets ``int.to_bytes`` raise
    OverflowError for an integer or a count that does not fit (``pack``
    turns it into ValueError); a reader takes ``(data, offset)`` and returns
    ``(value, offset after the field)``, or raises ValueError if the field
    runs past the end of ``data``."""

    def put_elem(v: int) -> bytes:
        return v.to_bytes(width, "big")

    def put_elem_list(vs: tuple[int, ...]) -> bytes:
        return b"".join([len(vs).to_bytes(4, "big"), *map(put_elem, vs)])

    def put_shares(vs: tuple[tuple[int, bytes], ...]) -> bytes:
        parts = [len(vs).to_bytes(4, "big")]
        for v, fid in vs:
            parts += (put_elem(v), _put_fid(fid))
        return b"".join(parts)

    def get_elem_list(data: bytes, pos: int) -> tuple[tuple[int, ...], int]:
        n, pos = _get_count(data, pos)
        end = pos + n * width
        if end > len(data):
            raise ValueError("truncated message")
        starts = range(pos, end, width)
        return tuple([int.from_bytes(data[i : i + width], "big") for i in starts]), end

    def get_shares(data: bytes, pos: int) -> tuple[tuple[tuple[int, bytes], ...], int]:
        # every member of a group parses each leave update, so this is the
        # codec's hottest loop: one bounds check, then one pass
        n, pos = _get_count(data, pos)
        step = width + PSEUDONYM_LEN
        end = pos + n * step
        if end > len(data):
            raise ValueError("truncated message")
        get = int.from_bytes
        starts = range(pos, end, step)
        entries = [(get(data[i : i + width], "big"), data[i + width : i + step]) for i in starts]
        return tuple(entries), end

    return {
        "elem": (put_elem, _uint_reader(width)),
        "elem_list": (put_elem_list, get_elem_list),
        "shares": (put_shares, get_shares),
        "fid": (_put_fid, _bytes_reader(PSEUDONYM_LEN)),
        "mac": (_sized_writer(MAC_LEN, "mac"), _bytes_reader(MAC_LEN)),
        "rest": (lambda v: v, lambda data, pos: (data[pos:], len(data))),
        "u64": (_put_u64, _uint_reader(8)),
        "i64": (_put_i64, _get_i64),
        "var": (_put_var, _get_var),
    }


def _read(gets: tuple, data: bytes, pos: int) -> tuple:
    """One value per reader in ``gets``, from ``pos`` on; ValueError unless
    they end exactly at the end of ``data``."""
    values = []
    for get in gets:
        value, pos = get(data, pos)
        values.append(value)
    if pos != len(data):
        raise ValueError(f"{len(data) - pos} trailing bytes")
    return tuple(values)


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


@lru_cache(maxsize=128)
def _frame(kinds: tuple[str, ...], width: int) -> tuple[tuple, tuple]:
    """The writer and the reader of each kind at ``width``, looked up once per
    layout and width; ValueError if mac or rest is not the final kind."""
    if "mac" in kinds[:-1] or "rest" in kinds[:-1]:
        raise ValueError(f"mac and rest may only be the final kind: {kinds}")
    table = _kinds(width)
    return tuple(table[k][0] for k in kinds), tuple(table[k][1] for k in kinds)


# per class: a getter that returns the field values in layout order, and the
# default of the kept encoding (see encode_message); a LAYOUT or BODY with mac
# or rest anywhere but last is rejected by _frame when it is first framed
for _cls in MESSAGE_TYPES:
    _names = [f.name for f in fields(_cls)]
    assert len(_names) == len(_cls.LAYOUT), _cls
    _cls._VALUES = attrgetter(*_names)
    _cls._encoding = (None, b"")

_NO_MAC = bytes(MAC_LEN)


def _encode(cls: type, values: tuple, element_width: int) -> bytes:
    return bytes((cls.TAG,)) + pack(cls.LAYOUT, values, element_width)


def pack(kinds: tuple[str, ...], values, element_width: int) -> bytes:
    """``values`` framed by ``kinds``, with no type tag; ValueError if an
    integer, an element or a 4-byte count does not fit its field."""
    puts = _frame(kinds, element_width)[0]
    try:
        return b"".join([put(v) for put, v in zip(puts, values, strict=True)])
    except OverflowError as e:
        raise ValueError(f"{kinds} at element width {element_width}: {e}") from None


def unpack(kinds: tuple[str, ...], data: bytes, element_width: int) -> tuple:
    """The values ``pack`` framed by ``kinds``; DecryptFail if ``data`` is
    truncated or longer than the frame."""
    gets = _frame(kinds, element_width)[1]
    try:
        return _read(gets, data, 0)
    except ValueError as e:
        raise DecryptFail(f"malformed body: {e}") from None


def signed_input(msg: WireMessage, element_width: int) -> bytes:
    """Bytes a message's Schnorr signature covers: the class's SIG_DOMAIN,
    then every field but the final (sig_c, sig_s) pair."""
    cls = type(msg)
    return cls.SIG_DOMAIN + pack(cls.LAYOUT[:-2], cls._VALUES(msg)[:-2], element_width)


def encode_message(msg: WireMessage, element_width: int) -> bytes:
    """The message's wire bytes at ``element_width``.

    Returns the bytes the message keeps if they have this width; otherwise
    encodes it and keeps the result, with its width, as ``_encoding`` in the
    instance ``__dict__``. They are not a field, so ``repr``, ``==``, ``hash``
    and ``dataclasses.replace`` ignore them; a replaced copy is encoded
    afresh."""
    width, data = msg._encoding
    if width != element_width:
        cls = type(msg)
        data = _encode(cls, cls._VALUES(msg), element_width)
        msg.__dict__["_encoding"] = (element_width, data)
    return data


def decode_message(data: bytes, element_width: int) -> WireMessage:
    """The message ``data`` encodes; ValueError on an unknown tag, truncated
    input or trailing bytes.

    The message keeps ``data``: the codec is canonical, so a decoded message
    encodes to the bytes it was decoded from."""
    data = bytes(data)
    if not data:
        raise ValueError("truncated message")
    try:
        cls = _BY_TAG[data[0]]
    except KeyError:
        raise ValueError(f"unknown type tag 0x{data[0]:02x}") from None
    msg = cls(*_read(_frame(cls.LAYOUT, element_width)[1], data, 1))
    msg.__dict__["_encoding"] = (element_width, data)
    return msg


def mac_input(msg: WireMessage, element_width: int) -> bytes:
    """Canonical bytes a message's MAC is computed over: the encoding with
    the mac field (always the last 16 bytes) zeroed.

    A slice of the bytes the message keeps (see ``encode_message``): every
    receiver of one send shares the decoded message, so none re-encodes it."""
    if msg.LAYOUT[-1] != "mac":
        raise TypeError(f"{type(msg).__name__} carries no mac")
    # read the kept bytes here, not through encode_message, so that a traced
    # encode_message call is a send or an actual encoding
    width, data = msg._encoding
    if width != element_width:
        data = encode_message(msg, element_width)
    return data[:-MAC_LEN] + _NO_MAC


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
        """``cls(*values, mac)``, MACed over its ``mac_input``.

        The message keeps its encoding, the MACed bytes with the mac in place
        of the zeroed field, so sending it encodes nothing."""
        data = _encode(cls, (*values, _NO_MAC), element_width)
        mac = hmac_tag(self.mac_key, data)
        msg = cls(*values, mac)
        msg.__dict__["_encoding"] = (element_width, data[:-MAC_LEN] + mac)
        return msg

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

        The message keeps each outcome (see the module docstring); a
        rejection is kept as its class and text and raised anew on every
        call, so its traceback does not grow with each raise."""
        opened = msg.__dict__.setdefault("_opened", {})
        outcome = opened.get((self, element_width))
        if outcome is None:
            try:
                self.check(element_width, msg)
                outcome = unpack(msg.BODY, sym_decrypt(self.enc_key, msg.ct), element_width), None
            except (MacFail, DecryptFail) as e:
                outcome = None, (type(e), str(e))
            opened[self, element_width] = outcome
        body, error = outcome
        if error is not None:
            cls, text = error
            raise cls(text)
        return body


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
