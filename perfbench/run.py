"""orderone benchmark: seeded workloads through the public functions, every
output checked, end-to-end metrics untraced and per-layer metrics traced.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 25 --trace 0

Workloads are listed in BENCHMARK.json and described in perfbench/README.md.
The run is one closed loop: a single client issues the next op when the last
one returns.  Ops run in rounds of a fixed shape; each round has its own
seeded inputs and runs in a fresh interpreter (perfbench/worker.py), so the
program's memo tables start empty.  A new round starts only if it would end
within the time given, judged by the longest round so far; the first round
always runs.  Every op runs once and every op time counts: on a shared host
whose speed drifts, the mean and median over the whole run are steadier than
the least of a few repeats.  Set-up time is sampled by start-only workers
before and after the rounds, so its median spans the run.
With --trace 1 half the time runs rounds untraced and then the same rounds
run again with span wrappers installed; the per-layer metrics come from that
traced pass (the latency percentiles from the untraced one), and one JSON
trace document is written under .perfbench-out/.

The last line of output is one JSON object: correct, attempted, failed and
metrics.  Lines before it starting with "#" record machine and run facts.
Exits 2 if orderone's sources are not next to the benchmark.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = Path.cwd() / ".perfbench-out"

WORKLOADS = ("decompose", "relations", "search", "cli_cache")
# start-only workers before the rounds; after them, enough to make SETUP_SAMPLES
SETUP_PROBES_BEFORE = 4
SETUP_SAMPLES = 11
WORKER_TIMEOUT_S = 170
# numpy and BLAS stay on one thread; the run is a single process at a time
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

SPANS = (
    "intpoly.power_sums", "intpoly.from_power_sums", "intpoly.radical", "intpoly.divmod",
    "cyclo.root_sum", "cyclo.reduced",
    "weil.real_to_weil", "weil.newton_polygon",
    "madanpal.madan_pal_poly", "madanpal.build_record",
    "geometry.f_oracle", "geometry.build_reports", "geometry.geom_isogenous",
    "relations.lift_mod2", "relations.lift_is_unique", "relations.partition_mod2",
    "relations.partition_exact", "relations.is_indecomposable",
    "relations.enumerate_indecomposable",
    "solver.solve_bounded", "solver.is_solution", "solver.classify_solutions",
    "solver.is_parametric", "solver.expected_parametric",
    "serialize.cache_get_or_compute", "serialize.encode",
    "cli.main",
)
LAYERS = ("intpoly", "cyclo", "weil", "madanpal", "geometry", "relations", "solver", "serialize", "cli")
COUNTS = (
    "relations.sign_space", "solver.order_triples", "solver.confirmed",
    "serialize.hits", "serialize.misses", "serialize.recomputes",
    "serialize.bytes_written", "serialize.bytes_read",
)


def _worker(workload, seed, rnd, workdir, *extra) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--round", str(rnd), "--workdir", str(workdir), *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], capture_output=True, text=True,
                          env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for round {rnd} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile_ms(latencies, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(latencies)
    return 1000 * s[max(0, math.ceil(q * len(s)) - 1)]


def _machine_facts(args) -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cli_workers": 1,
        "threads": {v: "1" for v in THREAD_VARS},
    }


def run_rounds(args, workdir, seconds) -> list[dict]:
    """Rounds 0, 1, ... one worker each, while the next would end in time."""
    rounds = []
    start = time.monotonic()
    longest = 0.0
    while not rounds or time.monotonic() - start + longest <= seconds:
        t0 = time.monotonic()
        r = len(rounds)
        rounds.append(_worker(args.workload, args.seed, r, workdir / f"r{r}"))
        longest = max(longest, time.monotonic() - t0)
    return rounds


def setup_probes(args, workdir, count) -> list[float]:
    return [_worker(args.workload, args.seed, 0, workdir / "p", "--probe")["setup_s"] for _ in range(count)]


def end_to_end(ops, setups, rss_mb) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(ops) / sum(sec for _, sec in ops), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(ops, untraced_s, traced, trace_file) -> dict:
    self_s = defaultdict(float)
    calls = Counter()
    counts = Counter()
    spans = []
    for i, r in enumerate(traced):
        t = r["trace"]
        for k, v in t["self_s"].items():
            self_s[k] += v
        calls.update(t["calls"])
        counts.update(t["counts"])
        counts.update(r["counts"])
        spans.append({"round": i, "dropped": t["dropped"], "spans": t["spans"]})
    traced_s = sum(op[1] for r in traced for op in r["ops"])
    span_self_s = sum(self_s.values())
    m = {}
    for name in SPANS:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v for k, v in self_s.items() if k.split(".")[0] == layer), "s")
    m["unspanned.self_s"] = (self_s.get("op", 0.0), "s")
    for name in COUNTS:
        m[name] = (counts.get(name, 0), "count")
    candidates = calls.get("solver.is_solution", 0)
    m["solver.prefilter_precision"] = (counts["solver.confirmed"] / candidates if candidates else 0.0, "ratio")
    lat = [sec for _, sec in ops]
    m["run.op_p50_ms"] = (_percentile_ms(lat, 0.5), "ms")
    m["run.op_p90_ms"] = (_percentile_ms(lat, 0.9), "ms")
    kinds = defaultdict(list)
    for kind, sec in ops:
        kinds[kind].append(sec)
    hits, misses = kinds.get("hit", []), kinds.get("miss", []) + kinds.get("recompute", [])
    m["cli.hit_p50_ms"] = (_percentile_ms(hits, 0.5) if hits else 0.0, "ms")
    m["cli.miss_p50_ms"] = (_percentile_ms(misses, 0.5) if misses else 0.0, "ms")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.traced_s"] = (traced_s, "s")
    m["trace.span_self_s"] = (span_self_s, "s")
    m["trace.overhead"] = (traced_s / untraced_s - 1, "ratio")
    doc = {
        "metrics": {k: v for k, (v, _) in m.items()},
        "span_fields": ["id", "name", "start", "end", "parent", "op"],
        "rounds": spans,
    }
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps(doc))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "orderone" / "__init__.py").is_file():
        print(f"error: orderone sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        facts = _machine_facts(args)
        if args.trace:
            rounds = run_rounds(args, workdir, args.seconds / 2)
        else:
            setups = setup_probes(args, workdir, SETUP_PROBES_BEFORE)
            rounds = run_rounds(args, workdir, args.seconds)
            setups += [w["setup_s"] for w in rounds]
            setups += setup_probes(args, workdir, max(SETUP_PROBES_BEFORE, SETUP_SAMPLES - len(setups)))
        records = [op for w in rounds for op in w["ops"]]
        errors = [e for w in rounds for e in w["errors"]]
        ops = [(kind, wall) for kind, wall, _, _ in records]
        facts["op_wall_s"] = sum(op[1] for op in records)
        facts["op_cpu_s"] = sum(op[2] for op in records)
        if args.trace:
            traced = [
                _worker(args.workload, args.seed, i, workdir / f"t{i}", "--trace")
                for i in range(len(rounds))
            ]
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = per_layer(ops, facts["op_wall_s"], traced, trace_file)
            records += [op for r in traced for op in r["ops"]]
            errors += [e for r in traced for e in r["errors"]]
            facts["trace_file"] = str(trace_file.relative_to(Path.cwd()))
        else:
            facts["setup_samples"] = len(setups)
            metrics = end_to_end(ops, setups, max(w["rss_mb"] for w in rounds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for op in records if not op[3])
    facts["rounds"] = len(rounds)
    facts["ops"] = dict(Counter(kind for kind, _ in ops))
    for e in errors:
        print(f"# failed: {e}", file=sys.stderr)
    print("# facts " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
