"""Split the host time of simulator scenarios by layer.

From the root of a checkout:

    python3 tools/layers.py                        # the default scenario
    python3 tools/layers.py '{"n_vehicles": 80}'   # any ScenarioConfig fields
    python3 tools/layers.py '{"n_vehicles": 10}' '{"n_vehicles": 20}'

Each argument is a JSON object of ``ScenarioConfig`` fields, as in a
``vanetgka simulate --config`` file; with none, the default scenario runs.
Each scenario is built and run, one after the other, under one ``perfbench``
``Tracer`` (imported read-only), and the totals over all of them are printed:

- each traced layer's calls and self time (its time minus that of the traced
  calls it made), by falling self time;
- the simulator's own time: ``Simulation.run`` minus every traced call in it;
- ``Simulation._on_delivery`` split by message type: deliveries, receivers and
  inclusive time, the traced layers inside it included.

Times are host seconds of a traced run, not scaled by host speed as
``perfbench/run.py`` scales them. The tracer's bookkeeping and the delivery
timer's two clock reads per delivery count in the simulator's own time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def trace(configs: list[dict]):
    """(tracer stats, {message type: [deliveries, receivers, seconds]},
    setup seconds, run seconds) over the scenarios ``configs``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from tracer import Tracer
    from vanetgka.sim import ScenarioConfig, Simulation

    cfgs = [ScenarioConfig.from_json_dict(c) for c in configs]
    by_type: dict[str, list] = defaultdict(lambda: [0, 0, 0.0])
    deliver = Simulation._on_delivery

    def timed_delivery(self, now, msg, msg_id, sender, receivers, create_cost, tx):
        t0 = time.perf_counter()
        try:
            deliver(self, now, msg, msg_id, sender, receivers, create_cost, tx)
        finally:
            row = by_type[type(msg).__name__]
            row[0] += 1
            row[1] += len(receivers)
            row[2] += time.perf_counter() - t0

    setup_s = run_s = 0.0
    # heap entries take the handler from the class when they are pushed
    Simulation._on_delivery = timed_delivery
    try:
        with Tracer() as tracer:
            for cfg in cfgs:
                t0 = time.perf_counter()
                sim = Simulation(cfg)
                t1 = time.perf_counter()
                sim.run()
                setup_s += t1 - t0
                run_s += time.perf_counter() - t1
    finally:
        Simulation._on_delivery = deliver
    return tracer.stats, dict(by_type), setup_s, run_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "configs", nargs="*", type=json.loads, help="a JSON object of ScenarioConfig fields"
    )
    args = ap.parse_args(argv)
    configs = args.configs or [{}]
    try:
        stats, by_type, setup_s, run_s = trace(configs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"{len(configs)} scenario(s): set-up {setup_s:.3f} s, run {run_s:.3f} s (host, traced)")
    print()
    print(f"{'layer':<40} {'calls':>10} {'self_s':>9}")
    layers = sorted(
        ((k, s) for k, s in stats.items() if k != "sim" and s.calls),
        key=lambda item: -item[1].self_s,
    )
    for key, stat in layers:
        print(f"{key:<40} {stat.calls:>10} {stat.self_s:>9.3f}")
    print(f"{'sim (own time)':<40} {'':>10} {stats['sim'].self_s:>9.3f}")
    print()
    print(f"{'_on_delivery by message type':<30} {'deliveries':>10} {'receivers':>10} {'incl_s':>9}")
    for name, (deliveries, receivers, seconds) in sorted(by_type.items(), key=lambda i: -i[1][2]):
        print(f"{name:<30} {deliveries:>10} {receivers:>10} {seconds:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
