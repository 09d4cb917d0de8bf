"""Analytic verification-delay and transmission-overhead models.

Five schemes are compared through closed-form costs over three primitive
timings (pairing, point multiplication, map-to-point) plus an HMAC cost.
The per-primitive coefficient tables below are the published comparison
rows; ``n`` counts verifications (OBU side) or vehicles served (RSU
side), and n = 0 means no work at all.

``StepCharges`` prices each protocol step for the simulator.
``effective_rsu_delay`` models the group-key fast path: only vehicles
that cannot present a transferred group key (illegal ones plus a
configurable re-authentication fraction) pay the full per-vehicle
verification cost; everyone else costs two HMACs and a symmetric
decryption.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable
from dataclasses import dataclass


@dataclass(frozen=True)
class PrimitiveTimings:
    """Milliseconds per primitive operation."""

    t_par: float = 4.5
    t_mul: float = 0.6
    t_mp: float = 0.6
    t_hmac: float = 0.006

    def validate(self) -> None:
        if not all(0 <= t < math.inf for t in (self.t_par, self.t_mul, self.t_mp, self.t_hmac)):
            raise ValueError("primitive timings must be nonnegative and finite")


@dataclass(frozen=True)
class CostForm:
    """Linear form (slope * n + intercept) per primitive, in operations."""

    mul: tuple[float, float] = (0.0, 0.0)
    par: tuple[float, float] = (0.0, 0.0)
    mp: tuple[float, float] = (0.0, 0.0)

    def evaluate(self, n: int, t: PrimitiveTimings) -> float:
        return (
            (self.mul[0] * n + self.mul[1]) * t.t_mul
            + (self.par[0] * n + self.par[1]) * t.t_par
            + (self.mp[0] * n + self.mp[1]) * t.t_mp
        )


OBU = "obu"
RSU = "rsu"

VERIFICATION_FORMS: dict[str, dict[str, CostForm]] = {
    "ibv": {
        OBU: CostForm(mul=(5, 0), mp=(2, 0)),
        RSU: CostForm(mul=(1, 1), par=(0, 3), mp=(1, 0)),
    },
    "ecpp": {
        OBU: CostForm(mul=(4, 0), par=(1, 0)),
        RSU: CostForm(mul=(2, 0), par=(3, 0)),
    },
    "rmaka": {
        OBU: CostForm(mul=(4, 0)),
        RSU: CostForm(mul=(4, 0)),
    },
    "acp": {
        OBU: CostForm(mul=(1, 0)),
        RSU: CostForm(mul=(2, 1), par=(0, 3)),
    },
    "ours": {
        OBU: CostForm(mul=(5, 0), par=(2, 0), mp=(1, 0)),
        RSU: CostForm(mul=(4, 0), par=(2, 0)),
    },
}

OVERHEAD_BYTES_PER_MESSAGE: dict[str, int] = {
    "rmaka": 167,
    "abaka": 84,
    "argbv": 63,
    "ours": 58,
}

def verification_delay(scheme: str, side: str, n: int, timings: PrimitiveTimings) -> float:
    """Milliseconds to complete n verifications on the given side."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    try:
        form = VERIFICATION_FORMS[scheme][side]
    except KeyError:
        raise ValueError(f"unknown scheme/side {scheme!r}/{side!r}") from None
    if n == 0:
        return 0.0
    return form.evaluate(n, timings)


# milliseconds to decrypt one sealed body, a charge the published rows leave out
SYM_DECRYPT_MS = 0.01


class StepCharges:
    """Compute charge per protocol step, in milliseconds, from the primitive
    timings and ``SYM_DECRYPT_MS`` per decryption.  A full RSU-side
    admission (``hello_full + confirm_verify``) and ``confirm_create`` are the
    "ours" rows at n = 1 plus HMACs and decryptions; ``hello_fast`` is a
    fast-path re-admission."""

    def __init__(self, t: PrimitiveTimings):
        sym = SYM_DECRYPT_MS
        self.beacon_verify = 2 * t.t_mul
        self.epoch_refresh = 2 * t.t_mul
        self.hello_create = 2 * t.t_mul + t.t_hmac + 2 * sym
        self.hello_full = t.t_mul + 2 * t.t_hmac + 2 * sym
        self.hello_fast = 2 * t.t_hmac + sym
        self.hello_stale = 0.001  # a stale hello fails a clock check, no primitive
        self.challenge_create = t.t_mul + t.t_hmac + sym
        # vehicle: challenge verify plus the confirmation-value computation
        self.confirm_create = t.t_mp + 5 * t.t_mul + 2 * t.t_par + t.t_hmac + sym
        # rsu: recompute the confirmation value and compare
        self.confirm_verify = 3 * t.t_mul + 2 * t.t_par + t.t_hmac + sym
        self.offer_create = t.t_mul + t.t_hmac + sym
        self.offer_verify = t.t_hmac + sym
        self.rekey_base = t.t_mul
        self.rekey_per_member = 2 * t.t_mul
        self.seal = t.t_hmac + sym
        self.derive = 2 * t.t_mul + t.t_hmac + sym
        self.ack = t.t_hmac

    def leave_rekey(self, members: int) -> float:
        """RSU rekey for a leave from a group of ``members``."""
        return self.rekey_base + self.rekey_per_member * members

    def join_rekey(self, members: int) -> float:
        """RSU share-offer check and rekey for one joiner to ``members``."""
        return self.offer_verify + self.rekey_base + self.rekey_per_member * (members + 1)


def effective_rsu_delay(
    n: int,
    illegal_fraction: float,
    reauth_fraction: float,
    timings: PrimitiveTimings,
) -> float:
    """RSU-side delay for n arrivals when the fast path serves the rest.

    Vehicles that are illegal or must re-run the full handshake pay the
    full single-verification cost; the remainder pay the fast-path cost.
    """
    for name, frac in (("illegal", illegal_fraction), ("reauth", reauth_fraction)):
        if not 0 <= frac <= 1:
            raise ValueError(f"{name}_fraction outside [0, 1]")
    if illegal_fraction + reauth_fraction > 1:
        raise ValueError("fraction sum exceeds 1")
    full = verification_delay("ours", RSU, 1, timings)
    slow = illegal_fraction + reauth_fraction
    return n * (slow * full + (1 - slow) * StepCharges(timings).hello_fast)


def transmission_overhead(scheme: str, n: int) -> int:
    """Bytes of identity-plus-integrity overhead for n OBU-to-RSU messages."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    try:
        return OVERHEAD_BYTES_PER_MESSAGE[scheme] * n
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}") from None


# ---------------------------------------------------------------------------
# Message delay metric
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DelaySample:
    """One delivered message: creation, transmission and verification time."""

    creator: Hashable
    message: Hashable
    receiver: Hashable
    t_create: float
    t_transmit: float
    t_verify: float


class DelayMean:
    """Mean over creators of the per-creator mean message delay, kept as a
    running (total, count) per creator rather than as samples."""

    def __init__(self) -> None:
        self._per_creator: dict[Hashable, tuple[float, int]] = {}

    def add(
        self, creator: Hashable, t_create: float, t_transmit: float, t_verify: float
    ) -> None:
        total, count = self._per_creator.get(creator, (0.0, 0))
        self._per_creator[creator] = (total + t_create + t_transmit + t_verify, count + 1)

    def value(self) -> float | None:
        """The mean, or None before the first sample."""
        if not self._per_creator:
            return None
        return sum(t / c for t, c in self._per_creator.values()) / len(self._per_creator)


def average_delay(samples: Iterable[DelaySample]) -> float:
    """Mean over creators of the per-creator mean message delay."""
    mean = DelayMean()
    for s in samples:
        if min(s.t_create, s.t_transmit, s.t_verify) < 0:
            raise ValueError("delay components must be nonnegative")
        mean.add(s.creator, s.t_create, s.t_transmit, s.t_verify)
    value = mean.value()
    if value is None:
        raise ValueError("no delay samples")
    return value


# ---------------------------------------------------------------------------
# Comparison table export
# ---------------------------------------------------------------------------


def cost_table_rows(
    n_values: Iterable[int], timings: PrimitiveTimings
) -> list[dict[str, object]]:
    """Rows for the comparison CSV: per-scheme delay (both sides) and
    per-scheme transmission overhead."""
    rows: list[dict[str, object]] = []
    for n in n_values:
        for scheme in VERIFICATION_FORMS:
            for side in (OBU, RSU):
                rows.append(
                    {
                        "n": n,
                        "scheme": scheme,
                        "side": side,
                        "ms": verification_delay(scheme, side, n, timings),
                        "bytes": "",
                    }
                )
        for scheme in OVERHEAD_BYTES_PER_MESSAGE:
            rows.append(
                {
                    "n": n,
                    "scheme": scheme,
                    "side": "obu-to-rsu",
                    "ms": "",
                    "bytes": transmission_overhead(scheme, n),
                }
            )
    return rows
