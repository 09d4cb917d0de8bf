import random
from dataclasses import replace

import pytest

from vanetgka import wire
from vanetgka.crypto import get_profile, schnorr_sign
from vanetgka.errors import (
    ChainBreak,
    DuplicateIdentity,
    ProtocolError,
    SchnorrFail,
    SigFail,
    StateError,
    TokenMismatch,
    UnknownIdentity,
)
from vanetgka.gka import GkaPeer, GkaSession, run_agreement
from vanetgka.registry import register_rsu, ta_init
from scripted import ScriptedRng


def make_rsus(profile, n, seed=0):
    ta = ta_init(profile, random.Random(seed))
    rng = random.Random(seed + 1)
    creds = [
        register_rsu(ta, b"rsu-%c" % (0x61 + i), (i * 1000, 0), rng)[0]
        for i in range(n)
    ]
    return ta.params, creds


def closed_form_key(params, xs):
    n = len(xs)
    exponent = sum(xs[i] * xs[(i + 1) % n] for i in range(n)) % params.q
    return params.g_exp(params.g, exponent)


# --- golden vector at the test profile ----------------------------------------


def test_round1_commitment_value():
    params, creds = make_rsus("test", 3)
    session = GkaSession(params, creds[0], [GkaPeer(c.tid, c.pk) for c in creds])
    msg = session.round1(ScriptedRng([2, 5, 3]))
    assert msg.x_pub == 4  # g^2
    assert msg.r_pub == 9  # g^5
    assert msg.t_pub == 8  # g^3


def test_ring_values_golden_vector():
    params, creds = make_rsus("test", 3)
    roster = [GkaPeer(c.tid, c.pk) for c in creds]
    sessions = [GkaSession(params, c, roster) for c in creds]
    rngs = [ScriptedRng([x, 5, 3], seed=i) for i, x in enumerate((2, 3, 4))]
    commits = [s.round1(r) for s, r in zip(sessions, rngs)]
    assert [m.x_pub for m in commits] == [4, 8, 7]  # g^2, g^3, g^4
    responses = [s.round2(commits) for s in sessions]
    # first member: left neighbor holds g^4, right neighbor g^3
    assert sessions[0].y_left == 3  # 7^2
    assert sessions[0].y_right == 5  # 8^2
    assert responses[0].y == 6  # g^(6-8) = g^9
    keys = [s.finalize(responses) for s in sessions]
    assert keys == [7, 7, 7]  # g^(6+12+8 mod 11) = g^4


def test_response_check_equation_standalone():
    # xi=2, r=5, v=3 gives s=10 and g^10 * (g^2)^3 = 11 * 5 = 9 = g^5
    params = get_profile("test")
    xi, r, v = 2, 5, 3
    s = (r - v * xi) % params.q
    assert s == 10
    lhs = params.g_mul(
        params.g_exp(params.g, s), params.g_exp(params.g_exp(params.g, xi), v)
    )
    assert lhs == 9 == params.g_exp(params.g, r)


def test_token_value():
    params = get_profile("test")
    # sender's r = 5 applied to a peer commitment g^3
    assert params.g_exp(params.g_exp(params.g, 3), 5) == 7


def test_two_member_ring_degenerates():
    params, creds = make_rsus("test", 2)
    roster = [GkaPeer(c.tid, c.pk) for c in creds]
    sessions = [GkaSession(params, c, roster) for c in creds]
    rngs = [ScriptedRng([3, 5, 2], seed=0), ScriptedRng([4, 6, 7], seed=1)]
    commits = [s.round1(r) for s, r in zip(sessions, rngs)]
    responses = [s.round2(commits) for s in sessions]
    assert responses[0].y == 1 and responses[1].y == 1
    keys = [s.finalize(responses) for s in sessions]
    assert keys[0] == keys[1] == params.g_exp(params.g, 2 * 3 * 4)


def test_single_member_rejected():
    params, creds = make_rsus("test", 1)
    with pytest.raises(ValueError):
        GkaSession(params, creds[0], [GkaPeer(creds[0].tid, creds[0].pk)])


# --- properties -----------------------------------------------------------------


def test_agreement_matches_closed_form_all_sizes():
    params, creds = make_rsus("small64", 8)
    rng = random.Random(77)
    for n in range(2, 9):
        members = creds[:n]
        roster = [GkaPeer(c.tid, c.pk) for c in members]
        sessions = [GkaSession(params, c, roster) for c in members]
        commits = [s.round1(rng) for s in sessions]
        responses = [s.round2(commits) for s in sessions]
        keys = [s.finalize(responses) for s in sessions]
        xs = [s.x for s in sessions]
        expected = closed_form_key(params, xs)
        assert all(k == expected for k in keys)


def test_ring_identity_product_is_one():
    params, creds = make_rsus("small64", 5)
    rng = random.Random(5)
    _, _, responses = run_agreement(params, creds, rng)
    assert params.g_prod(m.y for m in responses) == 1


def test_token_symmetry():
    params, creds = make_rsus("small64", 4)
    rng = random.Random(6)
    roster = [GkaPeer(c.tid, c.pk) for c in creds]
    sessions = [GkaSession(params, c, roster) for c in creds]
    commits = [s.round1(rng) for s in sessions]
    for si in sessions:
        for sj in sessions:
            if si is sj:
                continue
            assert params.g_exp(
                params.g_exp(params.g, sj.t), si.r
            ) == params.g_exp(params.g_exp(params.g, si.r), sj.t)
    for s in sessions:
        s.round2(commits)


def test_message_ordering_is_irrelevant():
    params, creds = make_rsus("small64", 4)
    rng = random.Random(8)
    roster = [GkaPeer(c.tid, c.pk) for c in creds]
    sessions = [GkaSession(params, c, roster) for c in creds]
    commits = [s.round1(rng) for s in sessions]
    responses = [s.round2(list(reversed(commits))) for s in sessions]
    shuffled = responses[2:] + responses[:2]
    keys = [s.finalize(shuffled) for s in sessions]
    assert len(set(keys)) == 1


# --- state machine and validation --------------------------------------------------


def test_round1_reinvocation_rejected():
    params, creds = make_rsus("test", 2)
    roster = [GkaPeer(c.tid, c.pk) for c in creds]
    session = GkaSession(params, creds[0], roster)
    session.round1(random.Random(1))
    with pytest.raises(StateError):
        session.round1(random.Random(2))


def test_phase_order_enforced():
    params, creds = make_rsus("test", 2)
    roster = [GkaPeer(c.tid, c.pk) for c in creds]
    session = GkaSession(params, creds[0], roster)
    with pytest.raises(StateError):
        session.round2([])
    with pytest.raises(StateError):
        session.finalize([])


def test_missing_commit_named():
    params, creds = make_rsus("small64", 3)
    roster = [GkaPeer(c.tid, c.pk) for c in creds]
    sessions = [GkaSession(params, c, roster) for c in creds]
    rng = random.Random(3)
    commits = [s.round1(rng) for s in sessions]
    with pytest.raises(UnknownIdentity, match="missing"):
        sessions[0].round2(commits[:2])


def test_duplicate_commit_rejected():
    params, creds = make_rsus("small64", 3)
    roster = [GkaPeer(c.tid, c.pk) for c in creds]
    sessions = [GkaSession(params, c, roster) for c in creds]
    rng = random.Random(4)
    commits = [s.round1(rng) for s in sessions]
    with pytest.raises(DuplicateIdentity):
        sessions[0].round2(commits + [commits[1]])


def test_non_roster_commit_rejected():
    params, creds = make_rsus("small64", 4)
    roster3 = [GkaPeer(c.tid, c.pk) for c in creds[:3]]
    sessions = [GkaSession(params, c, roster3) for c in creds[:3]]
    outsider = GkaSession(params, creds[3], [GkaPeer(c.tid, c.pk) for c in creds])
    rng = random.Random(5)
    commits = [s.round1(rng) for s in sessions]
    bad = commits + [outsider.round1(rng)]
    with pytest.raises(UnknownIdentity):
        sessions[0].round2(bad)


# --- fault injection -----------------------------------------------------------------


def _tampered_int(value, rng, limit):
    other = rng.randrange(limit)
    while other == value:
        other = rng.randrange(limit)
    return other


def test_outsider_tampering_always_detected():
    params, creds = make_rsus("small64", 3)
    meta_rng = random.Random(99)
    silent = 0
    for trial in range(100):
        roster = [GkaPeer(c.tid, c.pk) for c in creds]
        sessions = [GkaSession(params, c, roster) for c in creds]
        rng = random.Random(1000 + trial)
        commits = [s.round1(rng) for s in sessions]
        stage = meta_rng.choice(("commit", "response"))
        victim = meta_rng.randrange(3)
        if stage == "commit":
            target = meta_rng.randrange(3)
            field = meta_rng.choice(("x_pub", "r_pub", "t_pub", "sig_c", "sig_s"))
            bad = replace(
                commits[target],
                **{field: _tampered_int(getattr(commits[target], field), meta_rng, params.q)},
            )
            tampered = [bad if i == target else m for i, m in enumerate(commits)]
            if victim == target:
                victim = (victim + 1) % 3
            try:
                sessions[victim].round2(tampered)
                silent += 1
            except ProtocolError:
                pass
        else:
            responses = [s.round2(commits) for s in sessions]
            target = meta_rng.randrange(3)
            field = meta_rng.choice(("y", "s", "sig_c", "sig_s", "tokens"))
            if field == "tokens":
                toks = list(responses[target].tokens)
                j = meta_rng.randrange(len(toks))
                toks[j] = _tampered_int(toks[j], meta_rng, params.q)
                bad = replace(responses[target], tokens=tuple(toks))
            else:
                bad = replace(
                    responses[target],
                    **{field: _tampered_int(getattr(responses[target], field), meta_rng, params.q)},
                )
            tampered = [bad if i == target else m for i, m in enumerate(responses)]
            if victim == target:
                victim = (victim + 1) % 3
            try:
                sessions[victim].finalize(tampered)
                silent += 1
            except ProtocolError:
                pass
    assert silent == 0


def _resign(params, creds, msg):
    c, s = schnorr_sign(params, creds.sk, wire.signed_input(msg, params.element_width))
    return replace(msg, sig_c=c, sig_s=s)


def _insider_setup(seed):
    params, creds = make_rsus("small64", 3, seed=seed)
    roster = [GkaPeer(c.tid, c.pk) for c in creds]
    sessions = [GkaSession(params, c, roster) for c in creds]
    rng = random.Random(seed + 50)
    commits = [s.round1(rng) for s in sessions]
    responses = [s.round2(commits) for s in sessions]
    return params, creds, sessions, responses


def test_insider_bad_ring_value_breaks_chain():
    params, creds, sessions, responses = _insider_setup(1)
    bad = replace(responses[1], y=params.g_mul(responses[1].y, params.g))
    bad = _resign(params, creds[1], bad)
    with pytest.raises(ChainBreak):
        sessions[0].finalize([responses[0], bad, responses[2]])


def test_insider_bad_response_scalar_fails_check():
    params, creds, sessions, responses = _insider_setup(2)
    bad = replace(responses[1], s=(responses[1].s + 1) % params.q)
    bad = _resign(params, creds[1], bad)
    with pytest.raises(SchnorrFail) as exc:
        sessions[0].finalize([responses[0], bad, responses[2]])
    assert exc.value.tid == creds[1].tid


def test_insider_bad_token_detected_by_its_verifier():
    params, creds, sessions, responses = _insider_setup(3)
    # member 1 corrupts the token meant for member 0
    victim_pos = sessions[1]._index_of[creds[0].tid]
    toks = list(responses[1].tokens)
    idx = victim_pos if victim_pos < sessions[1].index else victim_pos - 1
    toks[idx] = params.g_mul(toks[idx], params.g)
    bad = _resign(params, creds[1], replace(responses[1], tokens=tuple(toks)))
    with pytest.raises(TokenMismatch):
        sessions[0].finalize([responses[0], bad, responses[2]])
    # the other member's token is intact, so it still completes
    assert sessions[2].finalize([responses[0], bad, responses[2]])


def test_forged_signature_rejected_and_named():
    params, creds, sessions, responses = _insider_setup(4)
    bad = replace(responses[1], sig_c=(responses[1].sig_c + 1) % params.q)
    with pytest.raises(SigFail, match="rsu-b"):
        sessions[0].finalize([responses[0], bad, responses[2]])
