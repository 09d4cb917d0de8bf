"""Benchmark a change against its parent in alternating pairs of runs.

From the root of the repository, with the parent commit checked out in a
directory of its own (``git clone`` or ``git worktree``):

    python3 tools/bench_pairs.py --parent ../parent --pairs 10 --out BENCH_x.json \
        --claim density-sweep:wall_s

For each workload of ``BENCHMARK.json`` it runs ``perfbench/run.py`` once in
the parent's checkout and once in this one per pair, one run at a time, pair
``i`` with seed ``i`` and ``--trace 0``; odd pairs run the parent first, even
pairs the change first, so that a slow spell of the host falls on both sides.
``--trace-runs`` adds that many ``--trace 1`` runs per side and workload.

The JSON file, written at the root of this checkout after every pair, holds
the git revisions, the Python version, the CPU count, every run's result and,
per workload, each side's median and quartiles (``statistics.quantiles(values,
n=4)``, as ``perfbench/spread.py`` computes them) of every metric, plus a
verdict per end-to-end metric:

- ``wins``: the pairs in which the change is better than the parent;
- ``median_gain_share``: how much better the change's median is, as a share of
  the parent's (negative when it is worse);
- ``gain``: the change wins at least nine pairs in ten and its median is better
  than the parent's by more than the parent's interquartile distance;
- ``worse_beyond_bound``: the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``.

Per workload, ``failed_share`` holds each side's failed operations over its
attempted ones, summed over its timed runs.

``--claim workload:metric`` names the gain that the change claims; the run
exits 1 if that claim does not hold, if any end-to-end metric is worse beyond
its bound, if the change's failed share on a workload exceeds the parent's,
or if any run is not correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
WIN_SHARE = 0.9


def git_rev(path: Path) -> dict:
    def git(*args: str) -> str:
        proc = subprocess.run(["git", "-C", str(path), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else ""

    return {
        "path": str(path),
        "rev": git("rev-parse", "HEAD") or None,
        "dirty": bool(git("status", "--porcelain")),
    }


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3}


def verdict(parent: list[dict], change: list[dict]) -> dict:
    """Per end-to-end metric, the change against the parent over paired runs."""
    out = {}
    for name, spec in END_TO_END.items():
        sign = 1 if spec["better"] == "higher" else -1
        pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in zip(parent, change)]
        p_stats = quartiles([p for p, _ in pairs])
        c_stats = quartiles([c for _, c in pairs])
        gain = sign * (c_stats["median"] - p_stats["median"])
        wins = sum(sign * (c - p) > 0 for p, c in pairs)
        out[name] = {
            "wins": wins,
            "pairs": len(pairs),
            "median_gain_share": gain / p_stats["median"] if p_stats["median"] else 0.0,
            "parent_iqr": p_stats["q3"] - p_stats["q1"],
            "gain": wins >= math.ceil(WIN_SHARE * len(pairs)) and gain > p_stats["q3"] - p_stats["q1"],
            "worse_beyond_bound": -gain > spec["bound"] * abs(p_stats["median"]),
        }
    return out


def failed_share(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def summarise(runs: list[dict]) -> dict:
    return {name: quartiles([r["metrics"][name] for r in runs]) for name in runs[0]["metrics"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--out", required=True, help="file name, written at the root of this checkout")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    ap.add_argument("--trace-runs", type=int, default=1)
    ap.add_argument("--claim", help="workload:metric whose gain the change claims")
    args = ap.parse_args()
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    doc = {
        "revs": {side: git_rev(path) for side, path in sides.items()},
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "command": [*BENCHMARK["command"], "--seconds", str(args.seconds)],
        "pairs": args.pairs,
        "claim": args.claim,
        "workloads": {},
    }
    out_path = ROOT / args.out

    for workload in args.workloads.split(","):
        runs = {"parent": [], "change": []}
        entry = doc["workloads"][workload] = {"runs": runs}
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                r = run_once(sides[side], workload, i, args.seconds, trace=False)
                runs[side].append({"pair": i, "first": side == order[0], **r})
                print(f"{workload} pair {i} {side}: wall_s {r['metrics']['wall_s']:.3f} "
                      f"correct={r['correct']} failed={r['failed']}/{r['attempted']}",
                      file=sys.stderr, flush=True)
            entry["summary"] = {side: summarise(rs) for side, rs in runs.items()}
            entry["verdict"] = verdict(runs["parent"], runs["change"])
            entry["failed_share"] = {side: failed_share(rs) for side, rs in runs.items()}
            out_path.write_text(json.dumps(doc, indent=1) + "\n")
        if args.trace_runs:
            entry["traced"] = {
                side: [
                    run_once(path, workload, 1, args.seconds, trace=True)
                    for _ in range(args.trace_runs)
                ]
                for side, path in sides.items()
            }
            out_path.write_text(json.dumps(doc, indent=1) + "\n")

    ok = True
    for workload, entry in doc["workloads"].items():
        every_run = [r for rs in entry["runs"].values() for r in rs]
        every_run += [r for rs in entry.get("traced", {}).values() for r in rs]
        if not all(r["correct"] for r in every_run):
            print(f"{workload}: a run is not correct", file=sys.stderr)
            ok = False
        shares = entry["failed_share"]
        print(f"{workload} failed share: parent {shares['parent']:.6f}, "
              f"change {shares['change']:.6f}")
        if shares["change"] > shares["parent"]:
            print(f"{workload}: the change fails a larger share of operations", file=sys.stderr)
            ok = False
        for name, v in entry["verdict"].items():
            print(f"{workload} {name}: median better by {v['median_gain_share']:+.3f} of the parent's "
                  f"median, {v['wins']}/{v['pairs']} wins, gain={v['gain']}, "
                  f"worse_beyond_bound={v['worse_beyond_bound']}")
            ok = ok and not v["worse_beyond_bound"]
    if args.claim:
        workload, metric = args.claim.split(":")
        holds = doc["workloads"][workload]["verdict"][metric]["gain"]
        doc["claim_holds"] = holds
        out_path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"claim {args.claim}: {'holds' if holds else 'does not hold'}")
        ok = ok and holds
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
