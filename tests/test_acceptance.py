"""Acceptance suite: every release criterion with its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import contextlib
import dataclasses
import random
import time

import pytest

from vanetgka import wire
from vanetgka.auth import make_hello, process_hello, rsu_verify, start_vehicle_auth, vehicle_confirm
from vanetgka.costs import PrimitiveTimings, effective_rsu_delay, transmission_overhead, verification_delay
from vanetgka.crypto import get_profile
from vanetgka.errors import KeyConfirmFail
from vanetgka.gka import GkaPeer, GkaSession
from vanetgka.groupkey import (
    GroupState,
    MemberState,
    handle_join,
    handle_leave,
    member_apply_notice,
    member_derive,
    member_derive_from_leave,
    member_offer,
    rsu_rekey,
)
from vanetgka.registry import (
    refresh_vehicle_epoch,
    register_rsu,
    register_vehicle,
    ta_init,
    trace,
)
from vanetgka.sim import ScenarioConfig, Simulation, sweep_density
from scripted import ScriptedRng
from test_sim import vehicle_send_overheads
from wiregen import random_message


@contextlib.contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:2d}] FAIL  {desc}")
        raise
    print(f"\n[criterion {num:2d}] PASS  {desc}")


def test_criterion_01_gka_agreement_randomized():
    with criterion(1, "group key agreement equals the closed form, n=2..8, 100 runs each, <5 s"):
        ta = ta_init("small64", random.Random(100))
        rng = random.Random(101)
        creds = [register_rsu(ta, b"rsu-%02d" % i, (i, 0), rng)[0] for i in range(8)]
        params = ta.params
        start = time.perf_counter()
        for n in range(2, 9):
            for _ in range(100):
                roster = [GkaPeer(c.tid, c.pk) for c in creds[:n]]
                sessions = [GkaSession(params, c, roster) for c in creds[:n]]
                commits = [s.round1(rng) for s in sessions]
                responses = [s.round2(commits) for s in sessions]
                keys = [s.finalize(responses) for s in sessions]
                xs = {s.index: s.x for s in sessions}
                exponent = sum(xs[i] * xs[(i + 1) % n] for i in range(n)) % params.q
                expected = params.g_exp(params.g, exponent)
                assert all(k == expected for k in keys)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_02_gka_golden_vector():
    with criterion(2, "test-profile golden vector x=(2,3,4) gives sk=7 at every member"):
        ta = ta_init("test", random.Random(102))
        rng = random.Random(103)
        creds = [register_rsu(ta, b"rsu-%c" % (0x61 + i), (i, 0), rng)[0] for i in range(3)]
        roster = [GkaPeer(c.tid, c.pk) for c in creds]
        sessions = [GkaSession(ta.params, c, roster) for c in creds]
        rngs = [ScriptedRng([x, 5, 3], seed=i) for i, x in enumerate((2, 3, 4))]
        commits = [s.round1(r) for s, r in zip(sessions, rngs)]
        responses = [s.round2(commits) for s in sessions]
        keys = [s.finalize(responses) for s in sessions]
        assert keys == [7, 7, 7]


def test_criterion_03_mutual_authentication():
    with criterion(
        3,
        "confirmation identity exhaustive over (Z_11^*)^5; >=99% impostor rejection at 64-bit",
    ):
        params = get_profile("test")
        psi = 7
        pk_ta_g1 = psi % params.q
        star = range(1, 11)
        for alpha in star:
            for beta in star:
                for n1 in star:
                    for q_r in star:
                        s_r = psi * q_r % params.q
                        for q_v in star:
                            s_v = psi * q_v % params.q
                            k_v = params.g_mul(
                                params.pair(beta * n1 * q_r % params.q, pk_ta_g1),
                                params.pair(n1 * s_v % params.q, alpha),
                            )
                            k_rsu = params.g_mul(
                                params.pair(alpha * n1 * q_v % params.q, pk_ta_g1),
                                params.pair(n1 * s_r % params.q, beta),
                            )
                            assert k_v == k_rsu

        # impostor rejection through the full message flow
        ta = ta_init("small64", random.Random(104))
        rng = random.Random(105)
        rsu, beacon = register_rsu(ta, b"rsu-a", (0, 0), rng)
        veh = register_vehicle(ta, b"veh-1")
        rejected = 0
        trials = 1000
        for _ in range(trials):
            fake_s = rng.randrange(1, ta.params.q)
            impostor = dataclasses.replace(veh, s_u=fake_s)
            epoch = refresh_vehicle_epoch(impostor, ta.params, rng)
            vs = start_vehicle_auth(ta.params, epoch, beacon, rsu.tid)
            hello = make_hello(ta.params, vs, None, rng, now_ms=1000)
            rs, challenge = process_hello(
                ta.params, rsu, hello, 1010, 500, [], rng
            )
            confirm = vehicle_confirm(ta.params, vs, impostor, challenge, rng)
            try:
                rsu_verify(ta.params, rsu, rs, confirm)
            except KeyConfirmFail:
                rejected += 1
        assert rejected >= 0.99 * trials, f"only {rejected}/{trials} rejected"


def _fid(i):
    return bytes([i]) * 42


def _fresh_group(params, lams, rng):
    from vanetgka.groupkey import MemberRecord

    state = GroupState()
    mstates = []
    for i, lam in enumerate(lams):
        n1 = rng.randrange(1, params.q)
        state.members[_fid(i)] = MemberRecord(n1=n1, share_base=params.g_exp(params.g, lam))
        mstates.append(MemberState(fid=_fid(i), n1=n1, lam=lam))
    result = rsu_rekey(params, state, rng)
    for ms in mstates:
        member_derive(params, ms, result.share_updates[ms.fid])
    return state, mstates


def test_criterion_04_group_key_lifecycle():
    with criterion(
        4,
        "membership churn agreement; forward security exhaustive at q=11; backward security 100%",
    ):
        # 100 randomized sequences of >= 20 membership events
        params = get_profile("small64")
        from vanetgka.auth import AuthSession, AuthState

        for trial in range(100):
            rng = random.Random(2000 + trial)
            state = GroupState()
            members: dict[bytes, MemberState] = {}
            next_id = 0
            for _ in range(20):
                if not members or (len(members) < 10 and rng.random() < 0.6):
                    session = AuthSession(
                        state=AuthState.CONFIRMED,
                        fid=_fid(next_id),
                        pk_v=2,
                        n1=rng.randrange(1, params.q),
                    )
                    mstate, offer = member_offer(params, session, rng)
                    result = handle_join(params, state, session, offer, rng)
                    member_derive(params, mstate, result.share_updates[mstate.fid])
                    for ms in members.values():
                        member_apply_notice(params, ms, result.notice)
                    members[mstate.fid] = mstate
                    next_id += 1
                else:
                    fid = rng.choice(sorted(members))
                    old_gk = state.gk
                    members.pop(fid)
                    _, update = handle_leave(params, state, fid, rng)
                    if update is not None:
                        for ms in members.values():
                            member_derive_from_leave(params, ms, update, old_gk)
                assert all(ms.gk == state.gk for ms in members.values())

        # forward security: exhaustive over (leaver lambda, stayer lambda, gamma)
        tp = get_profile("test")
        hits = checks = 0
        for lam_leaver in range(1, 11):
            inv = pow(lam_leaver, -1, tp.q)
            for lam_stay in range(1, 11):
                for gamma in range(1, 11):
                    candidate = tp.g_exp(tp.g_exp(tp.g, lam_stay * gamma), inv)
                    checks += 1
                    hit = candidate == tp.g_exp(tp.g, gamma)
                    assert hit == (lam_stay == lam_leaver)
                    hits += hit
        assert hits * (tp.q - 1) == checks  # accident rate exactly 1/(q-1)

        # backward security: joiners fail on all pre-join ciphertexts
        failures = trials = 0
        for trial in range(100):
            rng = random.Random(3000 + trial)
            state, mstates = _fresh_group(
                params, [rng.randrange(1, params.q) for _ in range(3)], rng
            )
            pre_join_notice = rsu_rekey(params, state, rng).notice
            for ms in mstates:
                member_apply_notice(params, ms, pre_join_notice)
            session = AuthSession(
                state=AuthState.CONFIRMED, fid=_fid(9), pk_v=2,
                n1=rng.randrange(1, params.q),
            )
            j_mstate, offer = member_offer(params, session, rng)
            result = handle_join(params, state, session, offer, rng)
            member_derive(params, j_mstate, result.share_updates[_fid(9)])
            for key_val in (j_mstate.gk, j_mstate.n1, j_mstate.lam):
                trials += 1
                probe = MemberState(fid=_fid(9), n1=0, lam=1, gk=key_val)
                try:
                    member_apply_notice(params, probe, pre_join_notice)
                except Exception:
                    failures += 1
        assert failures == trials


def test_criterion_05_trace_identity():
    with criterion(5, "trace recovers the identity for all alpha (test) and 1000 random (default)"):
        ta = ta_init("test", random.Random(106))
        veh = register_vehicle(ta, b"veh-tr")
        from vanetgka.registry import pad_tid

        for alpha in range(1, 11):
            pk_v = ta.params.g_exp(ta.params.g, alpha)
            mask = ta.params.mask_hash(ta.params.g_exp(ta.params.pk_ta_g, alpha))
            fid = bytes(a ^ b for a, b in zip(pad_tid(veh.tid), mask))
            assert trace(ta, fid, pk_v) == veh.tid

        big = ta_init("default", random.Random(107))
        veh2 = register_vehicle(big, b"veh-tr2")
        rng = random.Random(108)
        for _ in range(1000):
            epoch = refresh_vehicle_epoch(veh2, big.params, rng)
            assert trace(big, epoch.fid, epoch.pk_v) == veh2.tid


def test_criterion_06_verification_delay_table():
    with criterion(
        6,
        "delay closed forms exact at n in {1,10,100}; fast-path ratio <1 vs ACP/IBV, monotone in reauth",
    ):
        t = PrimitiveTimings()
        expected = {
            ("ibv", "obu"): (4.2, 42.0, 420.0),
            ("ibv", "rsu"): (15.3, 26.1, 134.1),
            ("ecpp", "obu"): (6.9, 69.0, 690.0),
            ("ecpp", "rsu"): (14.7, 147.0, 1470.0),
            ("rmaka", "obu"): (2.4, 24.0, 240.0),
            ("rmaka", "rsu"): (2.4, 24.0, 240.0),
            ("acp", "obu"): (0.6, 6.0, 60.0),
            ("acp", "rsu"): (15.3, 26.1, 134.1),
            ("ours", "obu"): (12.6, 126.0, 1260.0),
            ("ours", "rsu"): (11.4, 114.0, 1140.0),
        }
        for (scheme, side), values in expected.items():
            for n, want in zip((1, 10, 100), values):
                got = verification_delay(scheme, side, n, t)
                assert abs(got - want) < 1e-9, (scheme, side, n, got)

        for n in (10, 20, 50, 100, 200):
            previous = -1.0
            for reauth in (0.0, 0.01, 0.02, 0.03, 0.04, 0.05):
                eff = effective_rsu_delay(n, 0.05, reauth, t)
                assert eff / verification_delay("acp", "rsu", n, t) < 1
                assert eff / verification_delay("ibv", "rsu", n, t) < 1
                assert eff > previous  # ratio curve monotone in reauth fraction
                previous = eff


def test_criterion_07_transmission_overhead():
    with criterion(
        7,
        "overhead is exactly 58n; every vehicle-originated message in a full run reports 58",
    ):
        for n in (0, 1, 10, 100, 1000):
            assert transmission_overhead("ours", n) == 58 * n
        sim = Simulation(
            ScenarioConfig(crypto_profile="small64", n_vehicles=10, rng_seed=21)
        )
        overheads = vehicle_send_overheads(sim)
        report = sim.run()
        assert len(overheads) > 0
        assert set(overheads) == {58}, set(overheads)
        assert report.total_overhead_bytes == 58 * len(overheads)


def test_criterion_08_density_delay_trend():
    with criterion(
        8,
        "average delay nondecreasing over n in {10,20,40,80}, 5 seeds, defaults, <60 s",
    ):
        start = time.perf_counter()
        for seed in range(1, 6):
            cfg = ScenarioConfig(rng_seed=seed)
            reports = sweep_density(cfg, [10, 20, 40, 80])
            delays = [r.average_delay_ms for r in reports]
            assert all(d is not None for d in delays)
            for a, b in zip(delays, delays[1:]):
                assert a <= b, f"seed {seed}: {delays}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"sweep took {elapsed:.1f} s"


def test_criterion_09_codec_round_trip():
    with criterion(9, "codec round-trips 10^4 random messages per type; field widths 42/16"):
        width = get_profile("default").element_width
        rng = random.Random(109)
        for cls in wire.MESSAGE_TYPES:
            for _ in range(10_000):
                msg = random_message(cls, rng, width)
                data = wire.encode_message(msg, width)
                assert wire.decode_message(data, width) == msg
        # field-width spot checks on the wire image
        up = wire.UplinkMessage(b"\xaa" * 42, b"ct", b"\xbb" * 16)
        data = wire.encode_message(up, width)
        assert data[1:43] == b"\xaa" * 42 and data[-16:] == b"\xbb" * 16
        with pytest.raises(ValueError):
            wire.encode_message(wire.UplinkMessage(b"\xaa" * 41, b"", b"\xbb" * 16), width)
        with pytest.raises(ValueError):
            wire.encode_message(wire.UplinkMessage(b"\xaa" * 42, b"", b"\xbb" * 15), width)


def test_criterion_10_group_exhaustives():
    with criterion(10, "desk-scale closure, associativity, exponent law, bilinearity, <1 s"):
        params = get_profile("test")
        start = time.perf_counter()
        elems = range(1, 12)
        for a in elems:
            for b in elems:
                assert 1 <= params.g_mul(a, b) <= 11
                for c in elems:
                    assert params.g_mul(params.g_mul(a, b), c) == params.g_mul(
                        a, params.g_mul(b, c)
                    )
            for s in range(11):
                assert 1 <= params.g_exp(a, s) <= 11
                for t in range(11):
                    assert params.g_exp(params.g_exp(a, s), t) == params.g_exp(
                        a, s * t % 11
                    )
        e_pp = params.pair(1, 1)
        assert e_pp != 1
        for x in range(11):
            for y in range(11):
                assert params.pair(x, y) == params.g_exp(e_pp, x * y)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"
