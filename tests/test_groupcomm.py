import random

import pytest

from vanetgka import wire
from vanetgka.auth import AuthSession, AuthState
from vanetgka.crypto import get_profile, hmac_tag, kdf
from vanetgka.errors import DecryptFail, EpochMismatch, FidAbsent, MacFail, StateError
from vanetgka.groupcomm import (
    OBU_TO_RSU_TYPES,
    VVK_REQUEST,
    broadcast,
    derive_vvk,
    measure_overhead,
    open_broadcast,
    open_directory,
    recv_peer,
    request_directory,
    rsu_open_directory_request,
    rsu_open_uplink,
    rsu_serve_directory,
    send_peer,
    to_rsu,
)
from vanetgka.groupkey import (
    GroupState,
    MemberRecord,
    MemberState,
    handle_join,
    member_apply_notice,
    member_derive,
    member_offer,
)
from reference import rsu_rekey
from scripted import ScriptedRng
from wiregen import random_message


def fid_of(i):
    return bytes([i]) * 42


def make_group(params, lams, gamma_script=(), seed=0):
    state = GroupState()
    mstates = []
    for i, lam in enumerate(lams):
        n1 = (i % (params.q - 1)) + 1 if params.q < 200 else 100 + i
        state.members[fid_of(i)] = MemberRecord(n1=n1, share_base=params.g_exp(params.g, lam))
        mstates.append(MemberState(fid=fid_of(i), n1=n1, lam=lam))
    result = rsu_rekey(params, state, ScriptedRng(list(gamma_script), seed))
    for ms in mstates:
        member_derive(params, ms, result.share_updates[ms.fid])
    return state, mstates


@pytest.fixture
def group():
    params = get_profile("small64")
    state, mstates = make_group(params, [3, 5, 7])
    return params, state, mstates


# --- broadcast ------------------------------------------------------------------


def test_broadcast_round_trip_among_members(group):
    params, state, mstates = group
    rng = random.Random(1)
    msg = broadcast(params, mstates[0].gk, mstates[0].fid, b"road closed", rng)
    for ms in mstates[1:]:
        sender, payload = open_broadcast(params, ms.gk, msg)
        assert sender == mstates[0].fid
        assert payload == b"road closed"


def test_departed_member_cannot_authenticate_new_broadcasts(group):
    params, state, mstates = group
    rng = random.Random(2)
    from vanetgka.groupkey import handle_leave, member_derive_from_leave

    old_gk = state.gk
    _, update = handle_leave(params, state, mstates[2].fid, rng)
    for ms in mstates[:2]:
        member_derive_from_leave(params, ms, update, old_gk)
    msg = broadcast(params, mstates[0].gk, mstates[0].fid, b"post-leave", rng)
    with pytest.raises(MacFail):
        open_broadcast(params, old_gk, msg)  # leaver still holds the old key


def test_broadcast_framing_size(group):
    params, state, mstates = group
    rng = random.Random(3)
    payload = bytes(200)
    msg = broadcast(params, mstates[0].gk, mstates[0].fid, payload, rng)
    data = wire.encode_message(msg, params.element_width)
    # tag 1 + len 4 + (nonce 16 + fid 42 + payload) + mac 16
    assert len(data) == 200 + 79


# --- uplink ---------------------------------------------------------------------


def test_uplink_round_trip_and_isolation(group):
    params, state, mstates = group
    rng = random.Random(4)
    msg = to_rsu(params, mstates[0], b"report", rng)
    assert msg.fid == mstates[0].fid
    n1 = state.members[msg.fid].n1
    assert rsu_open_uplink(params, n1, msg) == b"report"
    # a different member's channel nonce fails the mac
    with pytest.raises(MacFail):
        rsu_open_uplink(params, state.members[fid_of(1)].n1, msg)


def test_uplink_overhead_fields(group):
    params, state, mstates = group
    msg = to_rsu(params, mstates[0], b"x", random.Random(5))
    assert len(msg.fid) == 42 and len(msg.mac) == 16
    assert measure_overhead(msg) == 58


# --- directory -------------------------------------------------------------------


def test_directory_request_recognized(group):
    params, state, mstates = group
    rng = random.Random(6)
    req = request_directory(params, mstates[1], rng)
    assert rsu_open_directory_request(params, state.gk, req) == mstates[1].fid


def test_directory_request_from_outsider_rejected(group):
    params, state, mstates = group
    rng = random.Random(7)
    outsider = MemberState(fid=fid_of(9), n1=55, lam=4, gk=params.g_exp(params.g, 999))
    req = request_directory(params, outsider, rng)
    with pytest.raises(MacFail):
        rsu_open_directory_request(params, state.gk, req)


def test_directory_request_without_a_group_key_is_a_state_error(group):
    params, state, mstates = group
    keyless = MemberState(fid=mstates[0].fid, n1=mstates[0].n1, lam=mstates[0].lam)
    with pytest.raises(StateError):
        request_directory(params, keyless, random.Random(7))


def test_serving_the_directory_without_a_group_key_is_a_state_error():
    params = get_profile("small64")
    with pytest.raises(StateError):
        rsu_serve_directory(params, GroupState(), random.Random(8))


def test_directory_lists_every_member(group):
    params, state, mstates = group
    rng = random.Random(8)
    listing = rsu_serve_directory(params, state, rng)
    assert listing.epoch == state.epoch
    directory = open_directory(params, mstates[0].gk, listing)
    assert set(directory) == {ms.fid for ms in mstates}
    for ms in mstates:
        assert directory[ms.fid] == params.g_exp(params.g, ms.lam * state.gamma)
    # outsider cannot read it
    with pytest.raises(MacFail):
        open_directory(params, params.g_exp(params.g, 1234), listing)


def test_directory_of_a_group_formed_by_joins_only():
    """Every join draws a new gamma; the directory lists each member's share
    blinded by the current one, so members still agree on pairwise keys."""
    params = get_profile("small64")
    rng = random.Random(15)
    state = GroupState()
    members = []
    for i in range(4):
        session = AuthSession(state=AuthState.CONFIRMED, fid=fid_of(i), pk_v=2, n1=100 + i)
        mstate, offer = member_offer(params, session, rng)
        result = handle_join(params, state, session, offer, rng)
        member_derive(params, mstate, result.share_updates[mstate.fid])
        for m in members:
            member_apply_notice(params, m, result.notice)
        members.append(mstate)
    listing = rsu_serve_directory(params, state, rng)
    directory = open_directory(params, members[0].gk, listing)
    assert directory == {m.fid: params.g_exp(params.g, m.lam * state.gamma) for m in members}
    ch_01 = derive_vvk(params, members[0], fid_of(1), directory, listing.epoch)
    ch_10 = derive_vvk(params, members[1], fid_of(0), directory, listing.epoch)
    assert ch_01.vvk == ch_10.vvk


# --- pairwise channel ---------------------------------------------------------------


def test_vvk_golden_vector():
    # lambda_i=3, lambda_j=5, gamma=2: both sides derive g^8 = 3
    params = get_profile("test")
    state, mstates = make_group(params, [3, 5, 7], gamma_script=[2])
    listing = rsu_serve_directory(params, state, ScriptedRng([], seed=9))
    directory = open_directory(params, mstates[0].gk, listing)
    ch_ij = derive_vvk(params, mstates[0], fid_of(1), directory, listing.epoch)
    ch_ji = derive_vvk(params, mstates[1], fid_of(0), directory, listing.epoch)
    assert ch_ij.vvk == ch_ji.vvk == 3
    # a third member with lambda=7 lands elsewhere
    ch_k = derive_vvk(params, mstates[2], fid_of(1), directory, listing.epoch)
    assert ch_k.vvk != ch_ij.vvk


def test_vvk_symmetry_exhaustive_at_desk_scale():
    params = get_profile("test")
    for li in range(1, 11):
        for lj in range(1, 11):
            for gamma in range(1, 11):
                bi = params.g_exp(params.g, li * gamma)
                bj = params.g_exp(params.g, lj * gamma)
                assert params.g_exp(bj, li) == params.g_exp(bi, lj)


def test_peer_round_trip_200_bytes(group):
    params, state, mstates = group
    rng = random.Random(10)
    listing = rsu_serve_directory(params, state, rng)
    directory = open_directory(params, mstates[0].gk, listing)
    ch_01 = derive_vvk(params, mstates[0], fid_of(1), directory, listing.epoch)
    ch_10 = derive_vvk(params, mstates[1], fid_of(0), directory, listing.epoch)
    payload = random.Random(11).randbytes(200)
    msg = send_peer(params, mstates[0], ch_01, payload, rng)
    assert recv_peer(params, mstates[1], ch_10, msg) == payload


def test_peer_message_confidential_separation(group):
    """A member holding only the group key can route but never forge or
    read the inner layer."""
    params, state, mstates = group
    rng = random.Random(12)
    listing = rsu_serve_directory(params, state, rng)
    directory = open_directory(params, mstates[0].gk, listing)
    ch_01 = derive_vvk(params, mstates[0], fid_of(1), directory, listing.epoch)
    ch_10 = derive_vvk(params, mstates[1], fid_of(0), directory, listing.epoch)
    msg = send_peer(params, mstates[0], ch_01, b"secret", rng)

    # the third member can open the envelope but is not the addressee
    ch_21 = derive_vvk(params, mstates[2], fid_of(1), directory, listing.epoch)
    with pytest.raises(FidAbsent):
        recv_peer(params, mstates[2], ch_21, msg)

    # forging an inner mac with group-key material only never validates
    for trial in range(100):
        forged_inner = rng.randbytes(20)
        forged_mac = hmac_tag(kdf(state.gk, b"vvk:mac"), forged_inner)
        envelope = (fid_of(1), fid_of(0), listing.epoch, forged_inner, forged_mac)
        forged = wire.Channel.derive(state.gk, b"gk").seal(
            params.element_width, wire.PeerMessage, envelope, rng
        )
        with pytest.raises(MacFail):
            recv_peer(params, mstates[1], ch_10, forged)


def test_directory_share_outside_group_rejected(group):
    params, state, mstates = group
    channel = wire.Channel.derive(state.gk, b"gk")
    honest = (params.g_exp(state.members[fid_of(1)].share_base, state.gamma), fid_of(1))
    rng = random.Random(14)
    for bad in (0, params.p, 256**params.element_width - 1):
        shares = ((bad, fid_of(0)), honest)
        listing = channel.seal(
            params.element_width, wire.DirectoryListing, (shares,), rng, state.epoch
        )
        with pytest.raises(DecryptFail):
            open_directory(params, mstates[0].gk, listing)


def test_peer_epoch_mismatch_refused(group):
    params, state, mstates = group
    rng = random.Random(13)
    listing = rsu_serve_directory(params, state, rng)
    directory = open_directory(params, mstates[0].gk, listing)
    ch = derive_vvk(params, mstates[0], fid_of(1), directory, listing.epoch)

    stale = MemberState(
        fid=mstates[0].fid, n1=1, lam=mstates[0].lam, gk=mstates[0].gk,
        epoch=mstates[0].epoch + 1,
    )
    with pytest.raises(EpochMismatch):
        send_peer(params, stale, ch, b"x", rng)
    with pytest.raises(EpochMismatch):
        derive_vvk(params, stale, fid_of(1), directory, listing.epoch)


def test_sending_a_peer_message_without_a_group_key_is_a_state_error(group):
    params, state, mstates = group
    rng = random.Random(13)
    listing = rsu_serve_directory(params, state, rng)
    directory = open_directory(params, mstates[0].gk, listing)
    ch = derive_vvk(params, mstates[0], fid_of(1), directory, listing.epoch)
    keyless = MemberState(
        fid=mstates[0].fid, n1=mstates[0].n1, lam=mstates[0].lam, epoch=mstates[0].epoch
    )
    with pytest.raises(StateError):
        send_peer(params, keyless, ch, b"x", rng)


def test_receiving_a_peer_message_without_a_group_key_is_a_state_error(group):
    params, state, mstates = group
    rng = random.Random(13)
    listing = rsu_serve_directory(params, state, rng)
    directory = open_directory(params, mstates[0].gk, listing)
    ch_01 = derive_vvk(params, mstates[0], fid_of(1), directory, listing.epoch)
    ch_10 = derive_vvk(params, mstates[1], fid_of(0), directory, listing.epoch)
    msg = send_peer(params, mstates[0], ch_01, b"x", rng)
    keyless = MemberState(
        fid=mstates[1].fid, n1=mstates[1].n1, lam=mstates[1].lam, epoch=mstates[1].epoch
    )
    with pytest.raises(StateError):
        recv_peer(params, keyless, ch_10, msg)


# --- overhead accounting --------------------------------------------------------------


def test_overhead_58_for_every_vehicle_originated_type():
    rng = random.Random(14)
    for cls in OBU_TO_RSU_TYPES:
        msg = random_message(cls, rng, 8)
        assert measure_overhead(msg) == 58


def test_overhead_linearity(group):
    params, state, mstates = group
    rng = random.Random(15)
    msgs = [to_rsu(params, mstates[0], bytes([i]), rng) for i in range(10)]
    assert sum(measure_overhead(m) for m in msgs) == 580


def test_overhead_table_covers_every_type():
    rng = random.Random(16)
    for cls in wire.MESSAGE_TYPES:
        measure_overhead(random_message(cls, rng, 4))
