"""The wignerfluct benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Repeats cold rounds of the workload,
each a fresh Python process (bench/worker.py), until S seconds have passed,
with at least one round. Prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.

  setup_s       median over SETUP_SAMPLES fresh worker processes (the
                rounds, then set-up-only ones): from process launch until
                wignerfluct is imported and the inputs are built
  wall_s        median over rounds of the wall time of the CLI calls
  peak_rss_mib  median over rounds of the worker's peak resident memory

A traced run also writes its per-layer metrics and traced wall time to
bench/out/layers-NAME.json. Exits 2 without a result when the checkout has
no src/wignerfluct or a round does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

# Every run must end within 180 s; leave room for the last round's checks.
RUN_LIMIT_S = 170.0
# One cold set-up takes about 0.15 s, and host speed varies by +-30% over
# windows that short; the median of several cold set-ups is steadier.
SETUP_SAMPLES = 7
# The load is one process; BLAS may use at most two threads.
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))


class RoundFailed(RuntimeError):
    pass


def run_round(workload: str, seed: int, mode: str, timeout: float) -> dict:
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(seed % 2**32),
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
    )
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RoundFailed(f"round did not finish within {timeout:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise RoundFailed(f"worker exited with status {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - launched
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "wignerfluct" / "__init__.py").is_file():
        print(f"error: no src/wignerfluct under {ROOT}", file=sys.stderr)
        return 2

    start = time.monotonic()
    mode = "trace" if args.trace else "run"
    rounds: list[dict] = []
    try:
        while not rounds or time.monotonic() - start < args.seconds:
            remaining = RUN_LIMIT_S - (time.monotonic() - start)
            rounds.append(run_round(args.workload, args.seed, mode, remaining))
        setups = [r["setup_s"] for r in rounds]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            remaining = RUN_LIMIT_S - (time.monotonic() - start)
            setups.append(run_round(args.workload, args.seed, "setup", remaining)["setup_s"])
    except RoundFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 2

    problems = [p for r in rounds for p in r["problems"]]
    for problem in problems:
        print(f"check: {problem}", file=sys.stderr)
    wall_s = statistics.median(r["wall_s"] for r in rounds)
    if args.trace:
        metrics = {
            name: {"value": statistics.median(r["layers"][name][0] for r in rounds),
                   "unit": unit}
            for name, (_, unit) in rounds[0]["layers"].items()
        }
        out = BENCH / "out" / f"layers-{args.workload}.json"
        out.write_text(json.dumps({"wall_s": wall_s, "metrics": metrics}, indent=1))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mib": {
                "value": statistics.median(r["peak_rss_mib"] for r in rounds),
                "unit": "MiB",
            },
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
