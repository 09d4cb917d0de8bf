"""Print one SHA-256 per simulator scenario, per cost table and for one
protocol-engine round.

From the root of a checkout:

    python3 tools/report_digest.py > digests.txt

Run it in two checkouts and compare the files: equal output means the two
trees give the same simulator results on every scenario below, the same
``vanetgka cost table`` CSV at two timing sets and the same protocol-engine
outputs.  A scenario's digest covers
``repr(MetricsReport)``, the sent and delivered counts, the sorted ``drops``,
``incomplete_associations``, ``total_overhead_bytes`` and the kept
``DelaySample`` list in emission order, so a change in the order in which one
delivery reaches its receivers changes it too.  The 27 scenarios are the
criterion-8 sweep (the default scenario at n = 10, 20, 40, 80 with seeds 1 to
5), the highway-churn benchmark scenario, and six small64 runs, three of them
with timestamp windows short enough to drop stale hellos.  The density-sweep
and highway-churn configurations are those of ``perfbench/workloads.py``,
imported read-only.
The protocol-engine line hashes ``repr`` of the ``Outcome.digest`` of one
round of the ``rsu-admission`` benchmark workload built with seed 1: every
join's and leave's group key, every rejection and the group-key transfer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from vanetgka.cli import main as cli_main  # noqa: E402
from vanetgka.sim import ScenarioConfig, Simulation  # noqa: E402
from workloads import DENSITY_SWEEP, HIGHWAY_CHURN, RsuAdmission  # noqa: E402

FAST = ScenarioConfig(crypto_profile="small64", n_vehicles=6, n_rsus=2, rng_seed=3)

SCENARIOS: dict[str, ScenarioConfig] = {
    # the density-sweep workload: the default scenario at n = 10, 20, 40, 80
    **{f"default-n{cfg.n_vehicles}": cfg for cfg in DENSITY_SWEEP.configs},
    # the rest of the criterion-8 sweep of tests/test_acceptance.py
    **{
        f"default-seed{seed}-n{cfg.n_vehicles}": replace(cfg, rng_seed=seed)
        for seed in (2, 3, 4, 5)
        for cfg in DENSITY_SWEEP.configs
    },
    "highway-churn": HIGHWAY_CHURN.configs[0],
    "small64-n20-illegal20-delta10": replace(
        FAST, n_vehicles=20, illegal_fraction=0.2, delta_max_ms=10.0, sim_time_s=5.0, rng_seed=1
    ),
    "fast": FAST,
    "fast-n30-delta3-seed5": replace(FAST, n_vehicles=30, delta_max_ms=3.0, rng_seed=5),
    "small64-n10-seed11-30mps": replace(FAST, n_vehicles=10, rng_seed=11, vehicle_speed_mps=30.0),
    "small64-n8-illegal25-seed7": replace(FAST, n_vehicles=8, illegal_fraction=0.25, rng_seed=7),
    "small64-n40-delta5-seed2-10s": replace(
        FAST, n_vehicles=40, delta_max_ms=5.0, rng_seed=2, sim_time_s=10.0
    ),
}

# the defaults, then one set of binary fractions off the defaults
COST_TABLES: dict[str, list[str]] = {
    "cost-table-default": [],
    "cost-table-custom": [
        "--t-par", "3.25", "--t-mul", "0.375", "--t-mp", "0.5", "--t-hmac", "0.0625"
    ],
}


def scenario_digest(cfg: ScenarioConfig) -> str:
    sim = Simulation(cfg, keep_samples=True)
    report = sim.run()
    parts = (
        repr(report),
        repr((sim.messages_sent, sim.messages_delivered)),
        repr(sorted(sim.drops.items())),
        repr(sim.incomplete_associations),
        repr(sim.total_overhead_bytes),
        repr(sim.samples),
    )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def cost_table_digest(args: list[str]) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "costs.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["cost", "table", "--out", str(out), *args])
        if code != 0:
            raise SystemExit("cost table failed")
        return hashlib.sha256(out.read_bytes()).hexdigest()


def engine_digest(seed: int) -> str:
    workload = RsuAdmission()
    outcome = workload.play(workload.build(seed))
    return hashlib.sha256(repr(outcome.digest).encode()).hexdigest()


def main() -> int:
    for name, cfg in SCENARIOS.items():
        print(f"{name} {scenario_digest(cfg)}", flush=True)
    for name, args in COST_TABLES.items():
        print(f"{name} {cost_table_digest(args)}", flush=True)
    print(f"rsu-admission-seed1 {engine_digest(1)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
