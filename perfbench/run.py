"""Benchmark of the vanetgka simulator and protocol engine.

Run from the root of the repository:

    python3 perfbench/run.py --workload density-sweep --seed 1 --seconds 25 --trace 0

Workloads: density-sweep, highway-churn, rsu-admission (see README.md).

One run in one process:

1. set-up: build the first round's inputs; ``setup_s`` is the time from the
   start of this script to the end of that set-up, so it holds interpreter
   start-up and imports as well as the build: one cold set-up per run;
2. warm-up: play that round with the tracer installed and run every
   correctness check on it;
3. timed phase: build and play fresh rounds untraced until ``--seconds``
   have passed, checking each against the warm-up round; each build and
   each play is timed on its own;
4. with ``--trace 1``: play one more round traced, check it against the
   warm-up round, time ``handle_join``/``handle_leave`` at group sizes 10
   and 100, and report the per-layer metrics instead of the end-to-end ones.

Every timed interval runs under its own ``speed.SpeedSampler`` interval, and
its time is reported at the reference speed the sampler defines (see
speed.py and README.md).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_T0 = time.monotonic()

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
T0_ENV = "PERFBENCH_T0"


def _fresh_interpreter() -> None:
    """Re-execute this script once with hash seeding fixed and the
    simulator's trace switch removed, keeping the original start time."""
    if T0_ENV in os.environ:
        return
    env = {k: v for k, v in os.environ.items() if k != "SIM_LOG"}
    env["PYTHONHASHSEED"] = "0"
    env[T0_ENV] = repr(_T0)
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "vanetgka" / "__init__.py").is_file():
        print(f"perfbench: no vanetgka sources under {SRC}", file=sys.stderr)
        return 2
    _fresh_interpreter()
    t0 = float(os.environ[T0_ENV])
    sys.path[:0] = [str(SRC), str(HERE)]

    import speed

    sampler = speed.SpeedSampler()
    sampler.start()

    import checks
    from tracer import Tracer, rekey_timings
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sampler.stop()
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    build_t0 = time.monotonic()
    inputs = wl.build(args.seed)
    setup_end = time.monotonic()
    sampler.stop()
    setup_s = sampler.scaled(setup_end - t0)
    setup_build_s = setup_s * (setup_end - build_t0) / (setup_end - t0)

    # warm-up round, traced so that the checks can see inside every layer
    with Tracer() as tracer:
        reference = wl.play(inputs)
    problems = wl.verify(inputs, reference, tracer)
    rounds = 1

    def timed(fn, *fn_args):
        """``fn(*fn_args)``, its host seconds and its seconds at the
        reference speed, under a sampler interval of its own."""
        sampler.start()
        t = time.perf_counter()
        result = fn(*fn_args)
        host = time.perf_counter() - t
        sampler.stop()
        return result, host, sampler.scaled(host)

    builds, walls, host_walls = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        inputs, _, build_s = timed(wl.build, args.seed)
        builds.append(build_s)
        outcome, host, wall = timed(wl.play, inputs)
        host_walls.append(host)
        walls.append(wall)
        problems += wl.verify(inputs, outcome)
        problems += checks.same_outcome(reference, outcome, f"timed round {len(walls)}")
        rounds += 1
    wall_s = statistics.median(walls)
    host_wall_s = statistics.median(host_walls)

    if args.trace:
        with Tracer() as tracer:
            inputs = wl.build(args.seed)
            outcome, traced_host, traced_s = timed(wl.play, inputs)
        problems += wl.verify(inputs, outcome, tracer)
        problems += checks.same_outcome(reference, outcome, "traced round")
        rounds += 1
        # probes land in each wrapped function in proportion to its time, so
        # the round's ratio also takes them out of the self times
        layers = tracer.metrics(traced_s / traced_host)
        layers["trace.overhead_s"] = (traced_s - wall_s, "s")
        layers["host.wall_s"] = (host_wall_s, "s")
        layers["host.speed"] = (wall_s / host_wall_s, "ratio")
        layers["setup.build_s"] = (statistics.median(builds), "s")
        rekey, rekey_host, rekey_s = timed(rekey_timings, args.seed)
        layers.update(
            {k: (v * rekey_s / rekey_host, u) for k, (v, u) in rekey.items()}
        )
        metrics = {k: _metric(v, u) for k, (v, u) in sorted(layers.items())}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(wall_s, "s"),
            "messages_per_s": _metric(reference.attempted / wall_s, "messages/s"),
            "admissions_per_s": _metric(reference.admissions / wall_s, "admissions/s"),
            "peak_rss_mb": _metric(peak_kb / 1024, "MB"),
        }

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(
        f"{args.workload}: {len(walls)} timed rounds of {reference.attempted} messages, "
        f"{reference.failed} failed, {reference.admissions} admissions; host seconds "
        f"{' '.join(f'{w:.3f}' for w in host_walls)}, at reference speed "
        f"{' '.join(f'{w:.3f}' for w in walls)}; set-up {setup_s:.3f} s, of which "
        f"{setup_build_s:.3f} s first build, median later build "
        f"{statistics.median(builds):.3f} s"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not problems,
        "attempted": reference.attempted * rounds,
        "failed": reference.failed * rounds,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
