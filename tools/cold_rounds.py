"""Check that a workload's traced call counts do not depend on what earlier
rounds left in the process's memos.

From the root of a checkout:

    python3 tools/cold_rounds.py

For each workload of ``perfbench/workloads.py`` it starts a fresh Python
process that builds and plays ``ROUNDS`` rounds with ``SEED``, each round
under a fresh ``perfbench`` ``Tracer`` (both imported read-only), and prints
each round's call counts of ``crypto.g_exp``, ``kdf``, ``hmac_tag``,
``sym_encrypt`` and ``sym_decrypt``. The first round starts with every
module-level memo empty; later rounds find what earlier ones left there.

The exit status is 1 if the ``g_exp``, ``hmac_tag``, ``sym_encrypt`` or
``sym_decrypt`` count differs between the rounds of a workload. ``kdf`` is
printed but not compared: ``wire.Channel.derive`` and ``auth.gk_fid_key``
keep their keys across rounds, so a warm round derives fewer.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARED = ("crypto.g_exp", "crypto.hmac_tag", "crypto.sym_encrypt", "crypto.sym_decrypt")
PRINTED = ("crypto.g_exp", "crypto.kdf", *COMPARED[1:])
SEED = 1
ROUNDS = 3


def play_rounds(workload: str) -> list[dict[str, int]]:
    """Each round's counts of ``PRINTED``, in this process."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    out = []
    for _ in range(ROUNDS):
        with Tracer() as tracer:
            wl.play(wl.build(SEED))
        out.append({key: tracer.stats[key].calls for key in PRINTED})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="play this workload here and print its counts as JSON")
    args = ap.parse_args(argv)
    if args.workload:
        print(json.dumps(play_rounds(args.workload)))
        return 0

    env = {k: v for k, v in os.environ.items() if k != "SIM_LOG"}
    env["PYTHONHASHSEED"] = "0"  # as perfbench/run.py runs
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    status = 0
    for name in names:
        child = [sys.executable, __file__, "--workload", name]
        proc = subprocess.run(child, env=env, capture_output=True, text=True, check=True)
        counts = json.loads(proc.stdout.splitlines()[-1])
        for i, round_counts in enumerate(counts, 1):
            cells = " ".join(f"{k.split('.')[1]}={v}" for k, v in round_counts.items())
            print(f"{name} round {i}: {cells}")
        differ = [k for k in COMPARED if len({c[k] for c in counts}) > 1]
        if differ:
            status = 1
            print(f"{name}: counts differ between rounds: {', '.join(differ)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
