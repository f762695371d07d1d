"""One round of one workload in a fresh interpreter, so orderone's in-process
memo tables start empty, as they do for a command-line user.

    python3 perfbench/worker.py --workload W --seed S --round R --spawned T
        [--trace] [--probe] --workdir DIR

T is the parent's time.monotonic() just before it started this process, so
the set-up time covers interpreter start and imports; the round's inputs are
built after it, untimed.
Prints one JSON object as its last line of output; each op is recorded as
[kind, wall seconds, CPU seconds of this thread, check passed].
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

MAX_ERRORS = 5


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    import tracer as tracing
    from workloads import WORKLOADS  # imports orderone.cli, as a command-line user does

    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s, "ops": [], "errors": [], "counts": Counter()}
    if args.probe:
        print(json.dumps(result))
        return 0
    rng = random.Random(f"{args.workload}:{args.seed}:{args.round}")
    ops = WORKLOADS[args.workload](rng, Path(args.workdir))

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    records = result["ops"]
    for op_id, op in enumerate(ops):
        error = None
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.op(op_id):
                    out = op.run()
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        cpu = time.thread_time() - c0
        if error is None:
            try:
                error = op.check(out)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
        records.append([op.kind, elapsed, cpu, error is None])
        if error is not None and len(result["errors"]) < MAX_ERRORS:
            result["errors"].append(f"op {op_id} ({op.kind}): {error}")
        if op.counts is not None:
            result["counts"].update(op.counts())
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
