"""Each correctness check of the benchmark reports a failure when fed a
perturbed input.

    python3 -m pytest perfbench -q
"""

from dataclasses import replace

import pytest

import checks
from tracer import Tracer
from vanetgka import crypto, sim
from workloads import RsuAdmission, SimWorkload

SMALL = SimWorkload(
    "small",
    [sim.ScenarioConfig(n_vehicles=12, sim_time_s=6.0, illegal_fraction=0.25)],
)


@pytest.fixture(scope="module")
def traced_sim():
    sims = SMALL.build(seed=3)
    with Tracer() as tracer:
        outcome = SMALL.play(sims)
    return sims, outcome, tracer


@pytest.fixture(scope="module")
def admission():
    wl = RsuAdmission()
    inputs = wl.build(seed=2)
    outcome = wl.play(inputs)
    return wl, inputs, outcome


def test_sim_checks_pass_on_real_outputs(traced_sim):
    sims, outcome, tracer = traced_sim
    assert SMALL.verify(sims, outcome, tracer) == []
    assert sims[0].failed_full_auths > 0  # the impostor checks have something to check


def test_traced_and_untraced_rounds_agree(traced_sim):
    _, outcome, _ = traced_sim
    again = SMALL.play(SMALL.build(seed=3))
    assert checks.same_outcome(outcome, again, "untraced") == []


def test_tracer_restores_the_package():
    original = crypto.kdf
    from vanetgka import auth

    with Tracer():
        assert auth.kdf is not original
    assert auth.kdf is original and crypto.kdf is original
    assert "__wrapped__" not in vars(sim.Simulation.run)


def test_altered_report_is_caught(traced_sim):
    _, outcome, _ = traced_sim
    report, counters = outcome.digest[0]
    altered = replace(outcome, digest=((replace(report, rekey_count=report.rekey_count + 1), counters),))
    assert checks.same_outcome(outcome, altered, "traced")


def test_altered_counter_is_caught(traced_sim):
    _, outcome, _ = traced_sim
    report, counters = outcome.digest[0]
    altered = replace(outcome, digest=((report, (counters[0] + 1, *counters[1:])),))
    assert checks.same_outcome(outcome, altered, "traced")


def test_miscounted_send_is_caught(traced_sim):
    sims, _, tracer = traced_sim
    rec = tracer.scenarios[0]
    n = rec.overhead_returns()
    assert checks.overhead_law(sims[0].total_overhead_bytes, n, "x") == []
    assert checks.overhead_law(sims[0].total_overhead_bytes, n + 1, "x")
    assert checks.overhead_law(sims[0].total_overhead_bytes + 1, n, "x")


def test_illegal_join_is_caught(traced_sim):
    sims, outcome, tracer = traced_sim
    s, rec = sims[0], tracer.scenarios[0]
    rec.joined.append(rec.failed_confirms[0])
    try:
        assert any("joined vehicle traces" in p for p in SMALL.verify(sims, outcome, tracer))
    finally:
        rec.joined.pop()


def test_failed_confirmation_of_legal_vehicle_is_caught():
    legal, illegal = {b"veh-0001"}, {b"veh-0002"}
    assert checks.admissions_traced([b"veh-0001"], [b"veh-0002"], illegal, legal, 1, "x") == []
    assert checks.admissions_traced([b"veh-0001"], [b"veh-0001"], illegal, legal, 1, "x")
    assert checks.admissions_traced([b"veh-0001"], [None], illegal, legal, 1, "x")
    assert checks.admissions_traced([b"veh-0001"], [b"veh-0002"], illegal, legal, 2, "x")


def test_real_group_keys_pass_and_changed_lambda_is_caught(admission):
    wl, inputs, outcome = admission
    assert wl.verify(inputs, outcome) == []
    p = inputs.ta.params
    what, gk, gamma, lambdas, member_gks = inputs.round.snapshots[40]
    assert checks.group_keys(p.p, p.q, p.g, gk, gamma, lambdas, member_gks, what) == []
    bad = [lambdas[0] + 1, *lambdas[1:]]
    assert checks.group_keys(p.p, p.q, p.g, gk, gamma, bad, member_gks, what)
    stale = [member_gks[0] + 1, *member_gks[1:]]
    assert checks.group_keys(p.p, p.q, p.g, gk, gamma, lambdas, stale, what)


def test_altered_broadcast_is_caught(admission):
    _, inputs, _ = admission
    r = inputs.round
    ct, (fid, payload) = r.opened[0]
    assert checks.broadcast_opened(r.sent, ct, (fid, payload)) == []
    assert checks.broadcast_opened(r.sent, ct, (fid, payload[:-1] + b"\x00"))
    assert checks.broadcast_opened(r.sent, ct, (bytes(len(fid)), payload))
    assert checks.broadcast_opened(r.sent, ct + b"\x00", (fid, payload))


def test_wrong_rejections_are_caught(admission):
    wl, inputs, outcome = admission
    r = inputs.round
    impostor = next(v.creds.tid for v in inputs.vehicles if not v.legit)
    leaver = next(k for k in r.rejected if k[0] == "leave")
    fast = next(k for k in r.rejected if k[0] == "fastpath")
    for key, wrong in (
        (("confirm", impostor), None),  # an impostor accepted
        (leaver, None),  # a departed member derived the new key
        (fast, "challenged"),  # a fast-path hello answered with a challenge
    ):
        right = r.rejected[key]
        r.rejected[key] = wrong
        try:
            assert wl.verify(inputs, outcome)
        finally:
            r.rejected[key] = right


def test_session_key_and_transfer_disagreement_is_caught():
    assert checks.equal_values([5, 5], "keys") == []
    assert checks.equal_values([5, 6], "keys")
    assert checks.equal_values([(1, 5), (1, 6)], "transfer")
