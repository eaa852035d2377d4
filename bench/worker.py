"""One cold round of a workload, in a process of its own.

    python3 bench/worker.py WORKLOAD SEED MODE

Imports wignerfluct from src/ once, builds the workload's commands from the
seed, then calls wignerfluct.cli.main in-process for each command with
stdout captured, so the package's caches start cold and are shared by the
commands of the round. Prints one JSON line: the monotonic time at which
set-up ended, the wall time of the calls, the peak resident memory, the
operation counts, the problems the checks found and, in MODE trace, the
per-layer metrics (the spans go to bench/out/). MODE setup stops after the
set-up and prints only its end time; MODE run neither traces nor stops.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    name, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(ROOT / "src"))
    import wignerfluct.cli as cli

    import workloads

    workload = workloads.WORKLOADS[name]
    commands = workload.commands(seed)
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    trace = mode == "trace"
    if trace:
        import spans

        tracer = spans.Tracer()
        originals = spans.install(tracer)

    done: list[list[str]] = []
    outputs: list[workloads.Output] = []
    failed = 0
    start = time.perf_counter()
    for argv in commands:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                status = cli.main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            status = None
        if status in (0, 1):  # 1 is a failed cross-check, which the check reports
            done.append(argv)
            outputs.append((status, buf.getvalue()))
        else:
            print(f"failed: wignerfluct {' '.join(argv)} (exit {status})", file=sys.stderr)
            failed += 1
    wall = time.perf_counter() - start
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mib": rss_mib,
        "attempted": len(commands),
        "failed": failed,
    }
    if trace:  # before the checks, which call into the package too
        samples = sum(int(c[c.index("--samples") + 1]) for c in done if "--samples" in c)
        result["layers"] = spans.layer_metrics(tracer, originals, samples)
        tracer.save(BENCH / "out" / f"spans-{name}.npz")

    try:
        result["problems"] = workload.check(done, outputs)
    except (KeyError, ValueError, IndexError) as exc:
        result["problems"] = [f"check could not run: {exc!r}"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
