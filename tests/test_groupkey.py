import random
from dataclasses import replace

import pytest

from vanetgka import wire
from vanetgka.auth import AuthSession, AuthState
from vanetgka.crypto import get_profile
from vanetgka.errors import (
    DuplicateIdentity,
    FidAbsent,
    MacFail,
    StateError,
    UnknownIdentity,
)
from vanetgka.groupkey import (
    GroupState,
    MemberRecord,
    MemberState,
    NeighborGkStore,
    handle_join,
    handle_leave,
    member_apply_notice,
    member_derive,
    member_derive_from_leave,
    member_offer,
    receive_gk_transfer,
    rsu_rekey,
    transfer_gk,
)


class ScriptedRng:
    def __init__(self, script, seed=0):
        self.script = list(script)
        self.rng = random.Random(seed)

    def randrange(self, *args):
        if self.script:
            return self.script.pop(0)
        return self.rng.randrange(*args)

    def randbytes(self, n):
        return self.rng.randbytes(n)


def fid_of(i: int) -> bytes:
    return bytes([i]) * 42


def auth_session(i: int, n1: int) -> AuthSession:
    return AuthSession(state=AuthState.CONFIRMED, fid=fid_of(i), pk_v=2, n1=n1)


def make_group(params, lams, gamma_script, seed=0):
    """RSU group with fixed lambdas and scripted gammas."""
    state = GroupState()
    mstates = []
    for i, lam in enumerate(lams):
        n1 = 100 + i if params.q > 200 else (i % (params.q - 1)) + 1
        state.members[fid_of(i)] = MemberRecord(
            fid=fid_of(i), n1=n1, share_base=params.g_exp(params.g, lam)
        )
        mstates.append(MemberState(fid=fid_of(i), n1=n1, lam=lam))
    result = rsu_rekey(params, state, ScriptedRng(gamma_script, seed))
    return state, mstates, result


# --- offers ------------------------------------------------------------------------


def test_member_offer_value_and_mac():
    params = get_profile("test")
    session = auth_session(1, n1=5)
    mstate, offer = member_offer(params, session, ScriptedRng([3]))
    assert mstate.lam == 3
    state = GroupState()
    result = handle_join(params, state, session, offer, ScriptedRng([2], seed=1))
    assert state.members[fid_of(1)].share_base == 8  # g^3


def test_offer_requires_authentication():
    params = get_profile("test")
    bad = AuthSession(state=AuthState.HELLO_SENT, fid=fid_of(1), pk_v=2, n1=5)
    with pytest.raises(StateError):
        member_offer(params, bad, random.Random(0))


def test_offer_lambda_never_zero():
    params = get_profile("test")
    session = auth_session(1, n1=5)
    for seed in range(50):
        mstate, _ = member_offer(params, session, random.Random(seed))
        assert 1 <= mstate.lam <= params.q - 1


def test_tampered_offer_rejected():
    params = get_profile("small64")
    session = auth_session(1, n1=5)
    _, offer = member_offer(params, session, random.Random(1))
    bad = replace(offer, ct=offer.ct[:-1] + bytes([offer.ct[-1] ^ 1]))
    with pytest.raises(MacFail):
        handle_join(params, GroupState(), session, bad, random.Random(2))


# --- rekey golden vectors -------------------------------------------------------------


def test_rekey_two_members_golden_vector():
    # lambdas (3, 5), gamma 2: blinded (g^6, g^10) = (5, 11),
    # product g^5 = 9, gk = g^7 = 10
    params = get_profile("test")
    state, mstates, result = make_group(params, [3, 5], [2])
    recs = list(state.members.values())
    assert [r.blinded for r in recs] == [5, 11]
    assert result.gk == 10 == state.gk
    assert state.epoch == 1


def test_rekey_single_member_golden_vector():
    # lambda 3, gamma 2: gk = g^2 * g^6 = g^8 = 3
    params = get_profile("test")
    state, _, result = make_group(params, [3], [2])
    assert result.gk == 3


def test_member_derive_golden_vector():
    params = get_profile("test")
    state, mstates, result = make_group(params, [3, 5], [2])
    update = result.share_updates[fid_of(0)]
    gk = member_derive(params, mstates[0], update)
    # lambda^-1 = 4, g_exp(5, 4) = g^2 = 4, gk = 4 * 9 -> 10
    assert mstates[0].blinded == 5
    assert params.g_exp(5, 4) == 4
    assert gk == 10


def test_rekey_empty_group_rejected():
    params = get_profile("test")
    with pytest.raises(StateError):
        rsu_rekey(params, GroupState(), random.Random(0))


def test_gamma_resampled_each_epoch():
    params = get_profile("small64")
    state, _, _ = make_group(params, [3, 5], [])
    gammas = {state.gamma}
    for _ in range(10):
        rsu_rekey(params, state, random.Random(len(gammas)))
        gammas.add(state.gamma)
    assert len(gammas) == 11


# --- agreement property ----------------------------------------------------------------


def test_members_agree_with_rsu_randomized():
    params = get_profile("small64")
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randrange(1, 6)
        lams = [rng.randrange(1, params.q) for _ in range(n)]
        state, mstates, result = make_group(params, lams, [], seed=rng.randrange(1 << 30))
        for ms in mstates:
            gk = member_derive(params, ms, result.share_updates[ms.fid])
            assert gk == state.gk


def test_share_commutation():
    params = get_profile("test")
    for lam in range(1, 11):
        for gamma in range(1, 11):
            a = params.g_exp(params.g_exp(params.g, lam), gamma)
            b = params.g_exp(params.g_exp(params.g, gamma), lam)
            assert a == b


# --- join ------------------------------------------------------------------------------


def test_join_flow_new_and_existing_members_agree():
    params = get_profile("small64")
    state, mstates, result = make_group(params, [3, 5], [])
    for ms in mstates:
        member_derive(params, ms, result.share_updates[ms.fid])

    joiner_session = auth_session(9, n1=999)
    j_mstate, offer = member_offer(params, joiner_session, random.Random(1))
    join_result = handle_join(params, state, joiner_session, offer, random.Random(2))
    # joiner derives from its per-member update
    assert member_derive(params, j_mstate, join_result.share_updates[fid_of(9)]) == state.gk
    # existing members pick the new key from the notice under the old key
    for ms in mstates:
        assert member_apply_notice(params, ms, join_result.notice) == state.gk


def test_duplicate_join_rejected():
    params = get_profile("small64")
    state, _, _ = make_group(params, [3], [])
    session = auth_session(0, n1=100)  # fid already present
    _, offer = member_offer(params, session, random.Random(3))
    with pytest.raises(DuplicateIdentity):
        handle_join(params, state, session, offer, random.Random(4))


def test_backward_security_joiner_cannot_read_history():
    params = get_profile("small64")
    state, mstates, r1 = make_group(params, [3, 5], [])
    old_gk = state.gk
    r2 = rsu_rekey(params, state, random.Random(5))  # old traffic: notice under old gk

    joiner_session = auth_session(9, n1=999)
    j_mstate, offer = member_offer(params, joiner_session, random.Random(6))
    join_result = handle_join(params, state, joiner_session, offer, random.Random(7))
    member_derive(params, j_mstate, join_result.share_updates[fid_of(9)])

    # every key the joiner holds fails to authenticate the pre-join notice
    for key_val in (j_mstate.gk, j_mstate.n1, j_mstate.lam):
        fake = MemberState(fid=j_mstate.fid, n1=j_mstate.n1, lam=j_mstate.lam, gk=key_val)
        with pytest.raises(MacFail):
            member_apply_notice(params, fake, r2.notice)


# --- leave -----------------------------------------------------------------------------


def test_leave_update_structure_and_agreement():
    params = get_profile("small64")
    state, mstates, result = make_group(params, [3, 5, 7], [])
    for ms in mstates:
        member_derive(params, ms, result.share_updates[ms.fid])
    old_gk = state.gk

    leave_result, update = handle_leave(params, state, fid_of(1), random.Random(8))
    assert fid_of(1) not in state.members
    assert state.epoch == 2

    # remaining members derive the same new key
    for ms in (mstates[0], mstates[2]):
        assert member_derive_from_leave(params, ms, update, old_gk) == state.gk

    # the departed member finds no entry for itself
    with pytest.raises(FidAbsent):
        member_derive_from_leave(params, mstates[1], update, old_gk)


def test_leave_unknown_fid_rejected():
    params = get_profile("small64")
    state, _, _ = make_group(params, [3], [])
    with pytest.raises(UnknownIdentity):
        handle_leave(params, state, fid_of(7), random.Random(9))


def test_leave_last_member_empties_group():
    params = get_profile("small64")
    state, _, _ = make_group(params, [3], [])
    result, update = handle_leave(params, state, fid_of(0), random.Random(10))
    assert update is None
    assert state.gk is None and not state.members


def test_forward_security_exhaustive_at_desk_scale():
    """The departed member's derivations never hit the new g^gamma unless
    its lambda collides with a remaining member's lambda."""
    params = get_profile("test")
    hits = 0
    checks = 0
    for lam_leaver in range(1, 11):
        for lam_stay in range(1, 11):
            for gamma in range(1, 11):
                # leave broadcast exposes g^(lam_stay * gamma); the leaver
                # can only apply its own inverse exponent
                blinded = params.g_exp(params.g, lam_stay * gamma)
                candidate = params.g_exp(blinded, pow(lam_leaver, -1, params.q))
                g_gamma = params.g_exp(params.g, gamma)
                checks += 1
                if candidate == g_gamma:
                    hits += 1
                    assert lam_stay == lam_leaver
                else:
                    assert lam_stay != lam_leaver
    # hit rate is exactly the lambda-collision rate 1/(q-1)
    assert hits == checks // 10


def test_forward_security_full_protocol_exhaustive_over_gamma():
    """With distinct lambdas, the leaver's derivation applied to every
    share exposed by the leave broadcast misses g^gamma for all gamma."""
    params = get_profile("test")
    w = params.element_width
    for gamma in range(1, 11):
        lams = [2, 5, 3]  # leaver is the middle member
        state, mstates, result = make_group(params, lams, [], seed=gamma)
        old_gk = state.gk
        leaver = mstates[1]
        _, update = handle_leave(params, state, leaver.fid, ScriptedRng([gamma]))
        assert state.gamma == gamma

        # the leaver can open the broadcast (it still holds the old gk)
        plain = wire.Channel.derive(old_gk, b"gk").open(w, update)
        count = int.from_bytes(plain[:4], "big")
        shares = [
            params.decode_elem(plain[4 + i * (w + 42) : 4 + i * (w + 42) + w])
            for i in range(count)
        ]

        inv = pow(leaver.lam, -1, params.q)
        candidates = {params.g_exp(b, inv) for b in shares}
        assert params.g_exp(params.g, gamma) not in candidates


# --- membership churn ----------------------------------------------------------------


def test_random_membership_sequences_agree():
    params = get_profile("small64")
    meta = random.Random(12)
    for trial in range(20):
        rng = random.Random(1000 + trial)
        state = GroupState()
        members: dict[bytes, MemberState] = {}
        next_id = 0
        for _ in range(25):
            do_join = not members or (len(members) < 8 and rng.random() < 0.6)
            if do_join:
                session = auth_session(next_id, n1=rng.randrange(1, params.q))
                mstate, offer = member_offer(params, session, rng)
                result = handle_join(params, state, session, offer, rng)
                member_derive(params, mstate, result.share_updates[mstate.fid])
                for fid, ms in members.items():
                    member_apply_notice(params, ms, result.notice)
                members[mstate.fid] = mstate
                next_id += 1
            else:
                fid = rng.choice(sorted(members))
                old_gk = state.gk
                leaver = members.pop(fid)
                result, update = handle_leave(params, state, fid, rng)
                if update is not None:
                    for ms in members.values():
                        member_derive_from_leave(params, ms, update, old_gk)
            assert all(ms.gk == state.gk for ms in members.values())
            assert all(ms.epoch == state.epoch for ms in members.values())


# --- transfer -----------------------------------------------------------------------


def test_transfer_round_trip_and_staleness():
    params = get_profile("small64")
    state, _, _ = make_group(params, [3, 5], [])
    sk = params.g_exp(params.g, 777)
    rng = random.Random(13)
    store = NeighborGkStore()

    msg = transfer_gk(params, state, sk, rng)
    epoch, gk = receive_gk_transfer(params, store, b"rsu-a", msg, sk)
    assert (epoch, gk) == (1, state.gk)
    assert store.current(b"rsu-a") == state.gk

    first_gk = state.gk
    rsu_rekey(params, state, rng)
    receive_gk_transfer(params, store, b"rsu-a", transfer_gk(params, state, sk, rng), sk)
    assert store.current(b"rsu-a") == state.gk
    # stale epoch arriving late never shadows the newer key
    receive_gk_transfer(params, store, b"rsu-a", msg, sk)
    assert store.current(b"rsu-a") == state.gk
    # but remains available for fast-path matching
    assert first_gk in store.candidates()


def test_transfer_wrong_session_key_rejected():
    params = get_profile("small64")
    state, _, _ = make_group(params, [3], [])
    rng = random.Random(14)
    msg = transfer_gk(params, state, params.g_exp(params.g, 777), rng)
    with pytest.raises(MacFail):
        receive_gk_transfer(params, NeighborGkStore(), b"x", msg, params.g_exp(params.g, 778))


def test_transfer_requires_session_key_and_group_key():
    params = get_profile("small64")
    state = GroupState()
    with pytest.raises(StateError):
        transfer_gk(params, state, None, random.Random(0))
    with pytest.raises(StateError):
        transfer_gk(params, state, 5, random.Random(0))


def test_neighbor_store_keeps_bounded_history():
    store = NeighborGkStore(keep=3)
    for epoch in range(10):
        store.add(b"s", epoch, 1000 + epoch)
    assert store.current(b"s") == 1009
    assert store.candidates() == [1009, 1008, 1007]
