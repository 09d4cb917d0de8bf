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

Only the broadcast runs in the simulator and the benchmark.  The uplink,
directory and peer functions have no caller but the tests: they stay as
the paper's surface, whose abstract promises that members "communicate
with other members in the same group".  Each one that needs the group key
raises ``StateError`` when its member or group holds none.

Per-message identity-plus-integrity overhead for vehicle-originated
traffic is a 42-byte pseudonym plus a 16-byte MAC: 58 bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import wire
from .crypto import (
    GElem,
    MAC_LEN,
    PSEUDONYM_LEN,
    Scalar,
    SystemParams,
    hmac_tag,
    macs_equal,
    sym_decrypt,
    sym_encrypt,
)
from .errors import DecryptFail, EpochMismatch, FidAbsent, MacFail, StateError
from .groupkey import GroupState, MemberState
from .wire import Channel

# fixed one-to-one request constant recognized by the RSU: b"VVK-REQ\x00" as a u64
VVK_REQUEST = int.from_bytes(b"VVK-REQ\x00", "big")

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
    **{t: PSEUDONYM_LEN + MAC_LEN for t in OBU_TO_RSU_TYPES},
    # peer message: sender pseudonym + inner and outer MACs (the recipient
    # tag inside the envelope is routing data, not counted)
    wire.PeerMessage: PSEUDONYM_LEN + 2 * MAC_LEN,
    # infrastructure-originated, MAC only
    wire.AuthChallenge: MAC_LEN,
    wire.ShareUpdate: MAC_LEN,
    wire.GroupKeyNotice: MAC_LEN,
    wire.LeaveUpdate: MAC_LEN,
    wire.GroupKeyTransfer: MAC_LEN,
    wire.DirectoryListing: MAC_LEN,
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
        params.element_width, wire.GroupBroadcast, (sender_fid, payload), rng
    )


def open_broadcast(
    params: SystemParams, gk: GElem, msg: wire.GroupBroadcast
) -> tuple[bytes, bytes]:
    """Returns (sender fid, payload); MacFail under a stale group key."""
    return Channel.derive(gk, b"gk").open(params.element_width, msg)


# ---------------------------------------------------------------------------
# Vehicle -> RSU unicast
# ---------------------------------------------------------------------------


def to_rsu(
    params: SystemParams, member: MemberState, payload: bytes, rng: random.Random
) -> wire.UplinkMessage:
    return Channel.derive(member.n1, b"n1").seal(
        params.element_width, wire.UplinkMessage, (payload,), rng, member.fid
    )


def rsu_open_uplink(params: SystemParams, n1: Scalar, msg: wire.UplinkMessage) -> bytes:
    (payload,) = Channel.derive(n1, b"n1").open(params.element_width, msg)
    return payload


# ---------------------------------------------------------------------------
# Share directory (one-to-one channel setup)
# ---------------------------------------------------------------------------


def request_directory(
    params: SystemParams, member: MemberState, rng: random.Random
) -> wire.DirectoryRequest:
    if member.gk is None:
        raise StateError("requester holds no group key")
    return Channel.derive(member.gk, b"gk").seal(
        params.element_width, wire.DirectoryRequest, (VVK_REQUEST, member.fid), rng
    )


def rsu_open_directory_request(
    params: SystemParams, gk: GElem, msg: wire.DirectoryRequest
) -> bytes:
    """Validate a directory request; returns the requester's fid."""
    request, fid = Channel.derive(gk, b"gk").open(params.element_width, msg)
    if request != VVK_REQUEST:
        raise DecryptFail("not a directory request")
    return fid


def rsu_serve_directory(
    params: SystemParams, state: GroupState, rng: random.Random
) -> wire.DirectoryListing:
    if state.gk is None:
        raise StateError("no group key to seal the directory under")
    shares = tuple((rec.blind(params, state.gamma), fid) for fid, rec in state.members.items())
    return Channel.derive(state.gk, b"gk").seal(
        params.element_width, wire.DirectoryListing, (shares,), rng, state.epoch
    )


def open_directory(
    params: SystemParams, gk: GElem, msg: wire.DirectoryListing
) -> dict[bytes, GElem]:
    (shares,) = Channel.derive(gk, b"gk").open(params.element_width, msg)
    params.check_group_elems(*(blinded for blinded, _ in shares))
    return {fid: blinded for blinded, fid in shares}


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


def send_peer(
    params: SystemParams,
    member: MemberState,
    channel: VvkChannel,
    payload: bytes,
    rng: random.Random,
) -> wire.PeerMessage:
    if member.gk is None:
        raise StateError("sender holds no group key")
    if channel.epoch != member.epoch:
        raise EpochMismatch("channel belongs to an old epoch")
    w = params.element_width
    inner = Channel.derive(channel.vvk, b"vvk")
    inner_ct = sym_encrypt(inner.enc_key, payload, rng)
    mac_input = wire.pack(
        wire.PeerMessage.INNER_MAC, (member.fid, channel.peer_fid, channel.epoch, inner_ct), w
    )
    inner_mac = hmac_tag(inner.mac_key, mac_input)
    envelope = (channel.peer_fid, member.fid, channel.epoch, inner_ct, inner_mac)
    return Channel.derive(member.gk, b"gk").seal(w, wire.PeerMessage, envelope, rng)


def recv_peer(
    params: SystemParams,
    member: MemberState,
    channel: VvkChannel,
    msg: wire.PeerMessage,
) -> bytes:
    """Unwrap both layers; every check failure is typed."""
    if member.gk is None:
        raise StateError("receiver holds no group key")
    w = params.element_width
    recipient, sender, epoch, inner_ct, inner_mac = Channel.derive(member.gk, b"gk").open(w, msg)
    if recipient != member.fid:
        raise FidAbsent("peer message addressed to someone else")
    if sender != channel.peer_fid:
        raise FidAbsent("peer message from an unexpected sender")
    if epoch != channel.epoch:
        raise EpochMismatch("peer message from a different epoch")
    inner = Channel.derive(channel.vvk, b"vvk")
    mac_input = wire.pack(wire.PeerMessage.INNER_MAC, (sender, recipient, epoch, inner_ct), w)
    if not macs_equal(inner_mac, hmac_tag(inner.mac_key, mac_input)):
        raise MacFail("inner mac invalid: not the channel endpoint")
    return sym_decrypt(inner.enc_key, inner_ct)
