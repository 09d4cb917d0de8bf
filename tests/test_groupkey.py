import random
from collections import Counter
from copy import deepcopy
from dataclasses import replace

import pytest

from vanetgka import wire
from vanetgka.auth import AuthSession, AuthState
from vanetgka.crypto import SystemParams, get_profile
from vanetgka.errors import (
    DecryptFail,
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
    RekeyResult,
    handle_join,
    handle_leave,
    member_apply_notice,
    member_derive,
    member_derive_from_leave,
    member_offer,
    receive_gk_transfer,
    transfer_gk,
)
from reference import rsu_rekey
from scripted import ScriptedRng


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
        state.members[fid_of(i)] = MemberRecord(n1=n1, share_base=params.g_exp(params.g, lam))
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
    assert [params.g_exp(r.share_base, state.gamma) for r in recs] == [5, 11]
    assert state.gk == 10
    assert state.epoch == 1


def test_rekey_single_member_golden_vector():
    # lambda 3, gamma 2: gk = g^2 * g^6 = g^8 = 3
    params = get_profile("test")
    state, _, _ = make_group(params, [3], [2])
    assert state.gk == 3


def test_member_derive_golden_vector():
    params = get_profile("test")
    state, mstates, result = make_group(params, [3, 5], [2])
    update = result.share_updates[fid_of(0)]
    assert wire.Channel.derive(mstates[0].n1, b"n1").open(params.element_width, update) == (5, 9)
    gk = member_derive(params, mstates[0], update)
    # lambda^-1 = 4, g_exp(5, 4) = g^2 = 4, gk = 4 * 9 -> 10
    assert params.g_exp(5, 4) == 4
    assert gk == 10


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


def group_of(params, size):
    return make_group(params, range(3, 3 + size), [])[0] if size else GroupState()


def encode(params, msg):
    return wire.encode_message(msg, params.element_width)


@pytest.mark.parametrize("size", [0, 1, 5])
def test_join_sends_what_a_full_rekey_seals(size):
    """Oracle: the joiner's update and the notice of ``handle_join`` are
    the bytes ``rsu_rekey`` seals after the same insert, from the same rng."""
    params = get_profile("small64")
    state = group_of(params, size)
    session = auth_session(9, n1=999)
    j_mstate, offer = member_offer(params, session, random.Random(1))
    oracle = deepcopy(state)
    oracle.members[session.fid] = MemberRecord(
        n1=session.n1, share_base=params.g_exp(params.g, j_mstate.lam)
    )
    rng, oracle_rng = random.Random(2), random.Random(2)

    result = handle_join(params, state, session, offer, rng)
    expected = rsu_rekey(params, oracle, oracle_rng)

    assert list(result.share_updates) == [session.fid]
    joiner_update = result.share_updates[session.fid]
    assert encode(params, joiner_update) == encode(params, expected.share_updates[session.fid])
    if size:
        assert encode(params, result.notice) == encode(params, expected.notice)
    else:
        assert result.notice is expected.notice is None
    assert (state.gk, state.epoch, state.gamma) == (oracle.gk, oracle.epoch, oracle.gamma)
    assert rng.getstate() == oracle_rng.getstate()


@pytest.mark.parametrize("size", [2, 5])
def test_leave_sends_what_a_full_rekey_and_the_leave_seal_give(size):
    """Oracle: ``rsu_rekey`` after the removal, then the leave update sealed
    from every member's blinded share and their product."""
    params = get_profile("small64")
    w = params.element_width
    state = group_of(params, size)
    old_gk = state.gk
    oracle = deepcopy(state)
    rng, oracle_rng = random.Random(3), random.Random(3)

    result, update = handle_leave(params, state, fid_of(1), rng)
    del oracle.members[fid_of(1)]
    rsu_rekey(params, oracle, oracle_rng)
    blinded = [params.g_exp(rec.share_base, oracle.gamma) for rec in oracle.members.values()]
    shares = tuple(zip(blinded, oracle.members))
    expected = wire.Channel.derive(old_gk, b"gk").seal(
        w, wire.LeaveUpdate, (shares, params.g_prod(blinded)), oracle_rng, oracle.epoch
    )

    assert result == RekeyResult({}, None)
    assert encode(params, update) == encode(params, expected)
    assert (state.gk, state.epoch, state.gamma) == (oracle.gk, oracle.epoch, oracle.gamma)
    assert rng.getstate() == oracle_rng.getstate()


def test_join_exponentiations_do_not_grow_with_the_group(monkeypatch):
    params = get_profile("small64")
    real = SystemParams.g_exp
    counts = []
    for size in (5, 50):
        state = group_of(params, size)
        session = auth_session(99, n1=999)
        _, offer = member_offer(params, session, random.Random(4))
        calls = []

        def counted(self, a, b):
            calls.append(b)
            return real(self, a, b)

        monkeypatch.setattr(SystemParams, "g_exp", counted)
        handle_join(params, state, session, offer, random.Random(5))
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts == [3, 3]


def joined_group(params, size, rng):
    """A group of ``size`` members admitted by ``handle_join``, and their states."""
    state, mstates = GroupState(), []
    for i in range(size):
        session = auth_session(i, n1=100 + i)
        mstate, offer = member_offer(params, session, rng)
        result = handle_join(params, state, session, offer, rng)
        member_derive(params, mstate, result.share_updates[session.fid])
        for ms in mstates:
            member_apply_notice(params, ms, result.notice)
        mstates.append(mstate)
    return state, mstates


@pytest.mark.parametrize("leaves", [1, 6])
def test_leave_sequence_builds_each_members_powers_once(monkeypatch, leaves):
    """Consecutive leaves from a group of 20: each remaining record builds
    its share base's powers once, at the first leave, and compares and
    prints as before; every ``LeaveUpdate`` is the bytes ``rsu_rekey`` and
    the leave seal give on a copy of the state, from the same rng."""
    params = get_profile("small64")
    w = params.element_width
    rng = random.Random(30)
    state, _ = joined_group(params, 20, rng)
    assert all(rec.powers is None for rec in state.members.values())
    before = {fid: (deepcopy(rec), repr(rec)) for fid, rec in state.members.items()}
    real = SystemParams.base_powers
    builds = Counter()

    def counted(self, a):
        builds[a] += 1
        return real(self, a)

    for fid in list(state.members)[:leaves]:
        old_gk = state.gk
        oracle = deepcopy(state)
        oracle_rng = random.Random()
        oracle_rng.setstate(rng.getstate())
        with monkeypatch.context() as m:
            m.setattr(SystemParams, "base_powers", counted)
            _, update = handle_leave(params, state, fid, rng)
        del oracle.members[fid]
        rsu_rekey(params, oracle, oracle_rng)
        blinded = [params.g_exp(rec.share_base, oracle.gamma) for rec in oracle.members.values()]
        shares = tuple(zip(blinded, oracle.members))
        expected = wire.Channel.derive(old_gk, b"gk").seal(
            w, wire.LeaveUpdate, (shares, params.g_prod(blinded)), oracle_rng, oracle.epoch
        )
        assert encode(params, update) == encode(params, expected)
        assert (state.gk, state.epoch, state.gamma) == (oracle.gk, oracle.epoch, oracle.gamma)
        assert rng.getstate() == oracle_rng.getstate()

    # the first leave builds every other record's table, later leaves none
    assert builds == Counter(rec.share_base for rec, _ in list(before.values())[1:])
    for fid, rec in state.members.items():
        assert rec.powers is not None
        assert rec == before[fid][0] and repr(rec) == before[fid][1]


def test_member_inverts_lambda_once(monkeypatch):
    """Over a join and several leaves each member state computes lambda^-1
    once, and a directly constructed state derives the key that
    g^(lambda^-1) of the blinded share times the product gives."""
    params = get_profile("small64")
    rng = random.Random(31)
    real_pow = pow
    inverses = Counter()

    def counted(*args):
        if args[1:2] == (-1,):
            inverses[args[0]] += 1
        return real_pow(*args)

    monkeypatch.setattr("builtins.pow", counted)
    state, mstates = joined_group(params, 6, rng)
    for leaver in mstates[:3]:
        old_gk = state.gk
        _, update = handle_leave(params, state, leaver.fid, rng)
        for ms in mstates[mstates.index(leaver) + 1 :]:
            assert member_derive_from_leave(params, ms, update, old_gk) == state.gk
    monkeypatch.undo()
    assert inverses == Counter(ms.lam for ms in mstates)

    shares, product = wire.Channel.derive(old_gk, b"gk").open(params.element_width, update)
    for ms in mstates[3:]:
        fresh = MemberState(fid=ms.fid, n1=ms.n1, lam=ms.lam)
        (blinded,) = (b for b, fid in shares if fid == ms.fid)
        expected = params.g_mul(params.g_exp(blinded, pow(ms.lam, -1, params.q)), product)
        assert member_derive_from_leave(params, fresh, update, old_gk) == expected == state.gk
        assert fresh == ms and repr(fresh) == repr(ms)


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
        entries, _ = wire.Channel.derive(old_gk, b"gk").open(w, update)
        shares = [blinded for blinded, _ in entries]

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
    assert store.candidates()[0] == state.gk

    first_gk = state.gk
    rsu_rekey(params, state, rng)
    receive_gk_transfer(params, store, b"rsu-a", transfer_gk(params, state, sk, rng), sk)
    assert store.candidates()[0] == state.gk
    # stale epoch arriving late never shadows the newer key
    receive_gk_transfer(params, store, b"rsu-a", msg, sk)
    assert store.candidates()[0] == state.gk
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
    store = NeighborGkStore()
    for epoch in range(10):
        store.add(b"s", epoch, 1000 + epoch)
    assert store.candidates()[0] == 1009
    assert store.candidates() == [1009, 1008, 1007, 1006]


# --- received elements outside the group ------------------------------------------


def outside_group(params):
    """Element values that fit the wire width but are not in G's [1, q]."""
    return (0, params.p, 256**params.element_width - 1)


def test_share_offer_outside_group_rejected():
    params = get_profile("small64")
    session = auth_session(1, n1=5)
    channel = wire.Channel.derive(session.n1, b"n1")
    rng = random.Random(20)
    for bad in outside_group(params):
        state = GroupState()
        offer = channel.seal(params.element_width, wire.ShareOffer, (session.fid, bad), rng)
        with pytest.raises(DecryptFail):
            handle_join(params, state, session, offer, rng)
        assert not state.members


def test_share_update_outside_group_rejected():
    params = get_profile("small64")
    state, mstates, result = make_group(params, [3, 5], [])
    ms = mstates[0]
    channel = wire.Channel.derive(ms.n1, b"n1")
    w = params.element_width
    blinded, product = channel.open(w, result.share_updates[ms.fid])
    rng = random.Random(21)
    for bad in outside_group(params):
        for body in ((bad, product), (blinded, bad)):
            update = channel.seal(w, wire.ShareUpdate, body, rng, state.epoch)
            with pytest.raises(DecryptFail):
                member_derive(params, ms, update)
            assert ms.gk is None


def test_group_key_notice_outside_group_rejected():
    params = get_profile("small64")
    state, mstates, result = make_group(params, [3, 5], [])
    ms = mstates[0]
    member_derive(params, ms, result.share_updates[ms.fid])
    channel = wire.Channel.derive(state.gk, b"gk")
    rng = random.Random(22)
    for bad in outside_group(params):
        notice = channel.seal(params.element_width, wire.GroupKeyNotice, (bad,), rng, 2)
        with pytest.raises(DecryptFail):
            member_apply_notice(params, ms, notice)
        assert ms.gk == state.gk


def test_leave_update_outside_group_rejected():
    """A member holding the old key forges the victim's entry or the product."""
    params = get_profile("small64")
    state, mstates, result = make_group(params, [3, 5, 7], [])
    for ms in mstates:
        member_derive(params, ms, result.share_updates[ms.fid])
    old_gk = state.gk
    _, update = handle_leave(params, state, mstates[2].fid, random.Random(23))
    channel = wire.Channel.derive(old_gk, b"gk")
    w = params.element_width
    shares, product = channel.open(w, update)
    victim = mstates[0]
    rng = random.Random(24)
    for bad in outside_group(params):
        own_bad = tuple((bad if fid == victim.fid else b, fid) for b, fid in shares)
        for body in ((own_bad, product), (shares, bad)):
            forged = channel.seal(w, wire.LeaveUpdate, body, rng, update.epoch)
            with pytest.raises(DecryptFail):
                member_derive_from_leave(params, victim, forged, old_gk)
            assert victim.gk == old_gk


def test_transfer_outside_group_rejected():
    params = get_profile("small64")
    sk = params.g_exp(params.g, 777)
    channel = wire.Channel.derive(sk, b"sk")
    store = NeighborGkStore()
    rng = random.Random(25)
    for bad in outside_group(params):
        msg = channel.seal(params.element_width, wire.GroupKeyTransfer, (bad, 5), rng)
        with pytest.raises(DecryptFail):
            receive_gk_transfer(params, store, b"rsu-a", msg, sk)
    assert store.candidates() == []
