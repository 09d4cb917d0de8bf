import dataclasses
import math
import random

import pytest

from vanetgka import costs
from vanetgka.costs import (
    DelaySample,
    PrimitiveTimings,
    StepCharges,
    average_delay,
    cost_table_rows,
    effective_rsu_delay,
    transmission_overhead,
    verification_delay,
)

T = PrimitiveTimings()  # 4.5 / 0.6 / 0.6 / 0.006

# hand-evaluated closed forms at the default timings
EXPECTED_DELAYS = {
    # scheme: side: {n: ms}
    ("ibv", "obu"): {1: 4.2, 10: 42.0, 100: 420.0},
    ("ibv", "rsu"): {1: 15.3, 10: 26.1, 100: 134.1},
    ("ecpp", "obu"): {1: 6.9, 10: 69.0, 100: 690.0},
    ("ecpp", "rsu"): {1: 14.7, 10: 147.0, 100: 1470.0},
    ("rmaka", "obu"): {1: 2.4, 10: 24.0, 100: 240.0},
    ("rmaka", "rsu"): {1: 2.4, 10: 24.0, 100: 240.0},
    ("acp", "obu"): {1: 0.6, 10: 6.0, 100: 60.0},
    ("acp", "rsu"): {1: 15.3, 10: 26.1, 100: 134.1},
    ("ours", "obu"): {1: 12.6, 10: 126.0, 100: 1260.0},
    ("ours", "rsu"): {1: 11.4, 10: 114.0, 100: 1140.0},
}


@pytest.mark.parametrize("key", sorted(EXPECTED_DELAYS))
def test_verification_delay_closed_forms(key):
    scheme, side = key
    for n, expected in EXPECTED_DELAYS[key].items():
        assert verification_delay(scheme, side, n, T) == pytest.approx(
            expected, abs=1e-9
        )


def test_zero_verifications_cost_nothing():
    for (scheme, side) in EXPECTED_DELAYS:
        assert verification_delay(scheme, side, 0, T) == 0.0


def test_linearity_of_constant_free_forms():
    # forms without constant terms are additive in n
    for scheme, side in (
        ("rmaka", "obu"),
        ("rmaka", "rsu"),
        ("ours", "obu"),
        ("ours", "rsu"),
        ("ibv", "obu"),
        ("ecpp", "obu"),
        ("ecpp", "rsu"),
        ("acp", "obu"),
    ):
        for a, b in ((1, 2), (10, 5), (40, 60)):
            assert verification_delay(scheme, side, a + b, T) == pytest.approx(
                verification_delay(scheme, side, a, T)
                + verification_delay(scheme, side, b, T)
            )


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        verification_delay("nope", "rsu", 1, T)
    with pytest.raises(ValueError):
        verification_delay("ours", "sideways", 1, T)
    with pytest.raises(ValueError):
        transmission_overhead("nope", 1)


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        verification_delay("ours", "rsu", -1, T)
    with pytest.raises(ValueError):
        transmission_overhead("ours", -1)


# --- step charges ----------------------------------------------------------------


def test_charges_compose_to_the_cost_model(monkeypatch):
    # binary-fraction timings add exactly, so both sides agree to the bit;
    # HMAC and symmetric decryption are charges the model leaves out
    t = PrimitiveTimings(t_par=4.5, t_mul=0.625, t_mp=0.75, t_hmac=0.0)
    monkeypatch.setattr(costs, "SYM_DECRYPT_MS", 0.0)
    charges = StepCharges(t)
    assert charges.hello_full + charges.confirm_verify == verification_delay("ours", "rsu", 1, t)
    assert charges.confirm_create == verification_delay("ours", "obu", 1, t)
    # a fast-path re-admission costs two HMACs and one decryption
    monkeypatch.setattr(costs, "SYM_DECRYPT_MS", 0.25)
    fast = StepCharges(dataclasses.replace(t, t_hmac=0.125)).hello_fast
    assert fast == 2 * 0.125 + 0.25


def test_rekey_charges_grow_by_two_multiplications_per_member(monkeypatch):
    monkeypatch.setattr(costs, "SYM_DECRYPT_MS", 0.25)
    charges = StepCharges(PrimitiveTimings(t_mul=0.5, t_hmac=0.125))
    assert [charges.leave_rekey(m) for m in (0, 1, 4)] == [0.5, 1.5, 4.5]
    # a join also verifies the offer and rekeys the joiner's share
    assert [charges.join_rekey(m) for m in (0, 1, 4)] == [1.875, 2.875, 5.875]


# --- fast-path model -----------------------------------------------------------


def test_effective_delay_degenerates_to_full_cost():
    for n in (1, 10, 100):
        assert effective_rsu_delay(n, 0.0, 1.0, T) == pytest.approx(
            verification_delay("ours", "rsu", n, T)
        )


def test_effective_delay_closed_form():
    fp = StepCharges(T).hello_fast
    assert fp == pytest.approx(2 * 0.006 + 0.01)
    assert effective_rsu_delay(100, 0.05, 0.0, T) == pytest.approx(
        5 * 11.4 + 95 * fp
    )


def test_effective_delay_zero_cost_cases(monkeypatch):
    free_macs = PrimitiveTimings(t_hmac=0.0)
    monkeypatch.setattr(costs, "SYM_DECRYPT_MS", 0.0)
    assert effective_rsu_delay(100, 0.0, 0.0, free_macs) == 0.0
    assert effective_rsu_delay(0, 0.05, 0.05, T) == 0.0


def test_effective_delay_fraction_validation():
    with pytest.raises(ValueError):
        effective_rsu_delay(10, 0.6, 0.6, T)
    with pytest.raises(ValueError):
        effective_rsu_delay(10, -0.1, 0.0, T)
    with pytest.raises(ValueError):
        effective_rsu_delay(10, 0.0, 1.5, T)


def test_fastpath_ratio_below_one_and_monotone_in_reauth():
    for n in (10, 20, 50, 100, 200):
        prev = -1.0
        for reauth in (0.0, 0.01, 0.03, 0.05):
            eff = effective_rsu_delay(n, 0.05, reauth, T)
            for rival in ("acp", "ibv"):
                assert eff / verification_delay(rival, "rsu", n, T) < 1
            assert eff > prev
            prev = eff


# --- transmission overhead --------------------------------------------------------


def test_overhead_table():
    assert transmission_overhead("ours", 10) == 580
    assert transmission_overhead("argbv", 1) == 63
    assert transmission_overhead("abaka", 2) == 168
    assert transmission_overhead("rmaka", 3) == 501
    for scheme in ("ours", "argbv", "abaka", "rmaka"):
        assert transmission_overhead(scheme, 0) == 0


# --- average delay ------------------------------------------------------------------


def test_average_delay_single_message():
    s = DelaySample("v1", 0, "rsu", 1.0, 2.0, 3.0)
    assert average_delay([s]) == pytest.approx(6.0)


def test_average_delay_double_mean():
    samples = [
        DelaySample("v1", 0, "r", 1.0, 2.0, 3.0),  # 6
        DelaySample("v1", 1, "r", 4.0, 4.0, 2.0),  # 10
        DelaySample("v2", 0, "r", 1.0, 1.0, 2.0),  # 4
    ]
    assert average_delay(samples) == pytest.approx((8.0 + 4.0) / 2)


def test_average_delay_all_zero():
    samples = [DelaySample("v1", i, "r", 0.0, 0.0, 0.0) for i in range(5)]
    assert average_delay(samples) == 0.0


def test_average_delay_empty_rejected():
    with pytest.raises(ValueError):
        average_delay([])


def test_average_delay_negative_rejected():
    with pytest.raises(ValueError):
        average_delay([DelaySample("v", 0, "r", -1.0, 0.0, 0.0)])


def test_average_delay_permutation_invariant():
    rng = random.Random(1)
    samples = [
        DelaySample(f"v{rng.randrange(5)}", i, "r", rng.random(), rng.random(), rng.random())
        for i in range(50)
    ]
    base = average_delay(samples)
    for _ in range(10):
        rng.shuffle(samples)
        assert math.isclose(average_delay(samples), base, rel_tol=1e-12)


# --- table export ---------------------------------------------------------------------


def test_cost_table_rows_shape():
    rows = cost_table_rows([1, 10], T)
    delay_rows = [r for r in rows if r["ms"] != ""]
    overhead_rows = [r for r in rows if r["bytes"] != ""]
    assert len(delay_rows) == 2 * 5 * 2  # n-values x schemes x sides
    assert len(overhead_rows) == 2 * 4
    ours_rsu_10 = next(
        r for r in delay_rows if r["scheme"] == "ours" and r["side"] == "rsu" and r["n"] == 10
    )
    assert ours_rsu_10["ms"] == pytest.approx(114.0)
