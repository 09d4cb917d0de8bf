"""Intra-group messaging and transmission-overhead accounting.

Three channels on top of an established group key:

  * group broadcast: sealed under the group key, sender pseudonym inside;
  * uplink to the RSU: sealed under the member's authenticated-channel
    nonce, pseudonym in clear for dispatch;
  * vehicle-to-vehicle: an inner layer under the pairwise key
    VVK = g^(lambda_i * lambda_j * gamma) wrapped in an outer group-key
    layer, so the group can route it but only the endpoint can read it.

The pairwise key comes straight out of the share directory: each side
raises the peer's blinded share to its own lambda, and commutativity of
exponentiation makes both ends agree.

Per-message identity-plus-integrity overhead for vehicle-originated
traffic is a 42-byte pseudonym plus a 16-byte MAC: 58 bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import wire
from .crypto import (
    GElem,
    PSEUDONYM_LEN,
    Scalar,
    SystemParams,
    hmac_tag,
    kdf,
    macs_equal,
    sym_decrypt,
    sym_encrypt,
)
from .errors import DecryptFail, EpochMismatch, FidAbsent, MacFail
from .groupkey import GroupState, MemberState
from .wire import Channel

# fixed one-to-one request constant recognized by the RSU
VVK_REQUEST = b"VVK-REQ\x00"

MAC_OVERHEAD = 16
FID_OVERHEAD = PSEUDONYM_LEN  # 42

# vehicle-originated message types whose overhead the transmission model
# counts: one pseudonym plus one MAC each
OBU_TO_RSU_TYPES = (
    wire.AuthHello,
    wire.AuthConfirm,
    wire.ShareOffer,
    wire.GroupBroadcast,
    wire.UplinkMessage,
    wire.DirectoryRequest,
)

_OVERHEAD_BY_TYPE: dict[type, int] = {
    # vehicle-originated: pseudonym + MAC
    **{t: FID_OVERHEAD + MAC_OVERHEAD for t in OBU_TO_RSU_TYPES},
    # peer message: sender pseudonym + inner and outer MACs (the recipient
    # tag inside the envelope is routing data, not counted)
    wire.PeerMessage: FID_OVERHEAD + 2 * MAC_OVERHEAD,
    # infrastructure-originated, MAC only
    wire.AuthChallenge: MAC_OVERHEAD,
    wire.ShareUpdate: MAC_OVERHEAD,
    wire.GroupKeyNotice: MAC_OVERHEAD,
    wire.LeaveUpdate: MAC_OVERHEAD,
    wire.GroupKeyTransfer: MAC_OVERHEAD,
    wire.DirectoryListing: MAC_OVERHEAD,
    # Schnorr-signed announcements carry neither pseudonym nor MAC
    wire.RingCommit: 0,
    wire.RingResponse: 0,
    wire.RsuBeacon: 0,
}


def measure_overhead(msg: wire.WireMessage) -> int:
    """Identity-plus-integrity bytes the scheme adds to this message."""
    return _OVERHEAD_BY_TYPE[type(msg)]


# ---------------------------------------------------------------------------
# Group broadcast
# ---------------------------------------------------------------------------


def broadcast(
    params: SystemParams,
    gk: GElem,
    sender_fid: bytes,
    payload: bytes,
    rng: random.Random,
) -> wire.GroupBroadcast:
    return Channel.derive(gk, b"gk").seal(
        params.element_width, wire.GroupBroadcast, sender_fid + payload, rng
    )


def open_broadcast(
    params: SystemParams, gk: GElem, msg: wire.GroupBroadcast
) -> tuple[bytes, bytes]:
    """Returns (sender fid, payload); MacFail under a stale group key."""
    plain = Channel.derive(gk, b"gk").open(params.element_width, msg)
    if len(plain) < PSEUDONYM_LEN:
        raise DecryptFail("broadcast shorter than a pseudonym")
    return plain[:PSEUDONYM_LEN], plain[PSEUDONYM_LEN:]


# ---------------------------------------------------------------------------
# Vehicle -> RSU unicast
# ---------------------------------------------------------------------------


def to_rsu(
    params: SystemParams, member: MemberState, payload: bytes, rng: random.Random
) -> wire.UplinkMessage:
    return Channel.derive(member.n1, b"n1").seal(
        params.element_width, wire.UplinkMessage, payload, rng, member.fid
    )


def rsu_open_uplink(params: SystemParams, n1: Scalar, msg: wire.UplinkMessage) -> bytes:
    return Channel.derive(n1, b"n1").open(params.element_width, msg)


# ---------------------------------------------------------------------------
# Share directory (one-to-one channel setup)
# ---------------------------------------------------------------------------


def request_directory(
    params: SystemParams, member: MemberState, rng: random.Random
) -> wire.DirectoryRequest:
    if member.gk is None:
        raise MacFail("requester holds no group key")
    return Channel.derive(member.gk, b"gk").seal(
        params.element_width, wire.DirectoryRequest, VVK_REQUEST + member.fid, rng
    )


def rsu_open_directory_request(
    params: SystemParams, gk: GElem, msg: wire.DirectoryRequest
) -> bytes:
    """Validate a directory request; returns the requester's fid."""
    plain = Channel.derive(gk, b"gk").open(params.element_width, msg)
    if len(plain) != len(VVK_REQUEST) + PSEUDONYM_LEN or not plain.startswith(VVK_REQUEST):
        raise DecryptFail("not a directory request")
    return plain[len(VVK_REQUEST) :]


def rsu_serve_directory(
    params: SystemParams, state: GroupState, rng: random.Random
) -> wire.DirectoryListing:
    entries = b"".join(
        params.encode_elem(rec.blinded) + rec.fid for rec in state.members.values()
    )
    plaintext = len(state.members).to_bytes(4, "big") + entries
    return Channel.derive(state.gk, b"gk").seal(
        params.element_width, wire.DirectoryListing, plaintext, rng, state.epoch
    )


def open_directory(
    params: SystemParams, gk: GElem, msg: wire.DirectoryListing
) -> dict[bytes, GElem]:
    plain = Channel.derive(gk, b"gk").open(params.element_width, msg)
    w = params.element_width
    entry = w + PSEUDONYM_LEN
    count = int.from_bytes(plain[:4], "big")
    if len(plain) != 4 + count * entry:
        raise DecryptFail("directory listing has wrong length")
    out: dict[bytes, GElem] = {}
    for i in range(count):
        off = 4 + i * entry
        out[plain[off + w : off + entry]] = params.decode_elem(plain[off : off + w])
    return out


# ---------------------------------------------------------------------------
# Vehicle-to-vehicle channel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VvkChannel:
    peer_fid: bytes
    vvk: GElem
    epoch: int


def derive_vvk(
    params: SystemParams,
    member: MemberState,
    peer_fid: bytes,
    directory: dict[bytes, GElem],
    epoch: int,
) -> VvkChannel:
    """Pairwise key from the peer's blinded share and one's own lambda."""
    if peer_fid not in directory:
        raise FidAbsent("peer not listed in the directory")
    if epoch != member.epoch:
        raise EpochMismatch("directory and member epochs differ")
    return VvkChannel(
        peer_fid=peer_fid,
        vvk=params.g_exp(directory[peer_fid], member.lam),
        epoch=epoch,
    )


def _peer_mac_input(
    sender_fid: bytes, recipient_fid: bytes, epoch: int, inner_ct: bytes
) -> bytes:
    return sender_fid + recipient_fid + epoch.to_bytes(8, "big") + inner_ct


def send_peer(
    params: SystemParams,
    member: MemberState,
    channel: VvkChannel,
    payload: bytes,
    rng: random.Random,
) -> wire.PeerMessage:
    if channel.epoch != member.epoch:
        raise EpochMismatch("channel belongs to an old epoch")
    inner_ct = sym_encrypt(kdf(channel.vvk, b"vvk:enc"), payload, rng)
    inner_mac = hmac_tag(
        kdf(channel.vvk, b"vvk:mac"),
        _peer_mac_input(member.fid, channel.peer_fid, channel.epoch, inner_ct),
    )
    envelope = (
        channel.peer_fid
        + member.fid
        + channel.epoch.to_bytes(8, "big")
        + len(inner_ct).to_bytes(4, "big")
        + inner_ct
        + inner_mac
    )
    return Channel.derive(member.gk, b"gk").seal(
        params.element_width, wire.PeerMessage, envelope, rng
    )


def recv_peer(
    params: SystemParams,
    member: MemberState,
    channel: VvkChannel,
    msg: wire.PeerMessage,
) -> bytes:
    """Unwrap both layers; every check failure is typed."""
    plain = Channel.derive(member.gk, b"gk").open(params.element_width, msg)
    if len(plain) < 2 * PSEUDONYM_LEN + 12 + 16:
        raise DecryptFail("peer message envelope too short")
    recipient = plain[:PSEUDONYM_LEN]
    sender = plain[PSEUDONYM_LEN : 2 * PSEUDONYM_LEN]
    epoch = int.from_bytes(plain[2 * PSEUDONYM_LEN : 2 * PSEUDONYM_LEN + 8], "big")
    n = int.from_bytes(plain[2 * PSEUDONYM_LEN + 8 : 2 * PSEUDONYM_LEN + 12], "big")
    rest = plain[2 * PSEUDONYM_LEN + 12 :]
    if len(rest) != n + 16:
        raise DecryptFail("peer message envelope has wrong length")
    inner_ct, inner_mac = rest[:n], rest[n:]
    if recipient != member.fid:
        raise FidAbsent("peer message addressed to someone else")
    if sender != channel.peer_fid:
        raise FidAbsent("peer message from an unexpected sender")
    if epoch != channel.epoch:
        raise EpochMismatch("peer message from a different epoch")
    expected = hmac_tag(
        kdf(channel.vvk, b"vvk:mac"),
        _peer_mac_input(sender, recipient, epoch, inner_ct),
    )
    if not macs_equal(inner_mac, expected):
        raise MacFail("inner mac invalid: not the channel endpoint")
    return sym_decrypt(kdf(channel.vvk, b"vvk:enc"), inner_ct)
