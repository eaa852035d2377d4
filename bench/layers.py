"""Per-layer metrics of every workload, with the tracing overhead.

    python3 bench/layers.py [--seed N]

Run from the root of a source checkout. For each workload, makes one
untraced and one traced run of bench/run.py with the same seed, then writes
bench/out/layers.json: per workload, the untraced wall_s, the traced wall_s,
their ratio (the tracing overhead) and every per-layer metric. Spans of the
traced runs are in bench/out/spans-WORKLOAD.npz.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=BENCH.parent, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload}: run was not correct: {result}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    report = {}
    for workload in WORKLOADS:
        untraced = run(workload, args.seed, 0)["metrics"]["wall_s"]["value"]
        metrics = run(workload, args.seed, 1)["metrics"]
        traced = json.loads((BENCH / "out" / f"layers-{workload}.json").read_text())["wall_s"]
        report[workload] = {
            "wall_s": untraced,
            "traced_wall_s": traced,
            "overhead": traced / untraced,
            "metrics": {name: m["value"] for name, m in metrics.items()},
        }
        print(f"{workload}: wall {untraced:.2f} s, traced {traced:.2f} s, "
              f"overhead {traced / untraced:.2f}x", flush=True)
    (BENCH / "out" / "layers.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
