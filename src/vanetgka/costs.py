"""Analytic verification-delay and transmission-overhead models.

Five schemes are compared through closed-form costs over three primitive
timings (pairing, point multiplication, map-to-point) plus an HMAC cost.
The per-primitive coefficient tables below are the published comparison
rows; ``n`` counts verifications (OBU side) or vehicles served (RSU
side), and n = 0 means no work at all.

``effective_rsu_delay`` models the group-key fast path: only vehicles
that cannot present a transferred group key (illegal ones plus a
configurable re-authentication fraction) pay the full per-vehicle
verification cost; everyone else costs two HMACs and a symmetric
decryption.
"""

from __future__ import annotations

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
        if min(self.t_par, self.t_mul, self.t_mp, self.t_hmac) < 0:
            raise ValueError("primitive timings must be nonnegative")


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

DELAY_SCHEMES = tuple(VERIFICATION_FORMS)
OVERHEAD_SCHEMES = tuple(OVERHEAD_BYTES_PER_MESSAGE)


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


def fastpath_cost(timings: PrimitiveTimings, sym_decrypt_ms: float = 0.01) -> float:
    """Per-vehicle cost when re-admission proves a transferred group key."""
    return 2 * timings.t_hmac + sym_decrypt_ms


def effective_rsu_delay(
    n: int,
    illegal_fraction: float,
    reauth_fraction: float,
    timings: PrimitiveTimings,
    sym_decrypt_ms: float = 0.01,
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
    return n * (slow * full + (1 - slow) * fastpath_cost(timings, sym_decrypt_ms))


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
        for scheme in DELAY_SCHEMES:
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
        for scheme in OVERHEAD_SCHEMES:
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
