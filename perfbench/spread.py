"""Run the benchmark on several seeds and summarise the spread of each metric.

From the root of the repository:

    python3 perfbench/spread.py --seeds 1-10 [--trace]

For each workload in ``BENCHMARK.json`` it runs ``perfbench/run.py`` once per
seed, for the ``run_seconds`` given there, one run at a time, and prints
every metric's median, first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, plus the failed share. Each run's JSON result is kept
in ``perfbench/results/<workload>-<trace|untraced>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0,
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        results = []
        for seed in _seeds(args.seeds):
            r = run_once(workload, seed, BENCHMARK["run_seconds"], args.trace)
            results.append({"seed": seed, **r})
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", flush=True)
        name = f"{workload}-{'trace' if args.trace else 'untraced'}.json"
        (out_dir / name).write_text(json.dumps(results, indent=1))
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: failed share {sorted(shares)}, all correct: "
              f"{all(r['correct'] for r in results)}")
        for metric, s in summarise(results).items():
            print(f"  {metric:40s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  iqr/median {s['iqr_share']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
