"""Span recording around the public functions at orderone's module boundaries.

The benchmark installs the wrappers from outside: each wrapped function is
rebound at every place an orderone module holds a reference to it (the module
that defines it and every module that imported it by name), and methods are
replaced on their class.  No source file changes.  While no op is running the
wrappers call straight through, so the benchmark's own checks are not traced.

A span's self time is its duration minus the time covered by its child spans.
Each op is itself a root span named "op"; its self time is the op time that
no layer span covers, such as the roots module, which gets no span because
its functions run 10^5 to 10^6 times per run and a wrapper would measure
itself.
"""
from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter, defaultdict

# keep at most this many spans per worker process; aggregates stay exact beyond it
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        # (span id, name, start, end, parent span id or -1, op id)
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.dropped = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.active = False
        self._op = -1
        self._next_id = 0
        # open spans: [name, start, time covered by children, span id]
        self._stack: list[list] = []

    # -- spans -----------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        parent = -1
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][3]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent, self._op))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Trace one op as a root span; outside ops the wrappers call straight through."""
        self._op = op_id
        self.active = True
        self._enter("op")
        try:
            yield
        finally:
            self._exit()
            self.active = False

    def span(self, name: str, fn, after=None):
        """Wrapper recording a span named `name`; after(args, kwargs, result) adds counts."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- report ----------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": self.spans,
            "dropped": self.dropped,
        }


def rebind(original, replacement) -> int:
    """Replace every orderone module attribute that is `original`."""
    n = 0
    for name, mod in list(sys.modules.items()):
        if name != "orderone" and not name.startswith("orderone."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def install(tracer: Tracer) -> None:
    """Wrap the public functions named in the benchmark's per-layer metrics."""
    import orderone.cli  # noqa: F401  (loads every module, so every import site is seen)
    from orderone import cyclo, geometry, intpoly, madanpal, relations, serialize, solver, weil

    def fn(module, attr, name=None, after=None):
        original = getattr(module, attr)
        label = name or f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
        if rebind(original, tracer.span(label, original, after)) == 0:
            raise RuntimeError(f"no import site found for {label}")

    def method(cls, attr, name):
        setattr(cls, attr, tracer.span(name, getattr(cls, attr)))

    counts = tracer.counts

    def count_sign_space(args, kwargs, result):
        counts["relations.sign_space"] += 2 ** max(args[0].weight - 1, 0)

    def count_confirmed(args, kwargs, result):
        counts["solver.confirmed"] += bool(result)

    def partition_name(args, kwargs):
        mod2 = kwargs.get("mod2", args[1] if len(args) > 1 else False)
        return "relations.partition_mod2" if mod2 else "relations.partition_exact"

    fn(intpoly, "power_sums")
    fn(intpoly, "from_power_sums")
    fn(intpoly, "radical")
    method(intpoly.IntPoly, "__divmod__", "intpoly.divmod")
    fn(cyclo, "root_sum")
    method(cyclo.CycInt, "reduced", "cyclo.reduced")
    fn(weil, "real_to_weil")
    fn(weil, "newton_polygon")
    fn(madanpal, "madan_pal_poly")
    fn(madanpal, "build_record")
    fn(geometry, "f_oracle")
    fn(geometry, "build_reports")
    fn(geometry, "geom_isogenous")
    fn(relations, "lift_mod2", after=count_sign_space)
    fn(relations, "lift_is_unique", after=count_sign_space)
    fn(relations, "conjugation_stable_partition", name=partition_name)
    fn(relations, "is_indecomposable")
    fn(relations, "enumerate_indecomposable")
    fn(solver, "solve_bounded")
    fn(solver, "is_solution", after=count_confirmed)
    fn(solver, "classify_solutions")
    fn(solver, "is_parametric")
    fn(solver, "expected_parametric")
    for attr in [a for a in vars(serialize) if a.startswith("encode_")]:
        fn(serialize, attr, name="serialize.encode")
    # the counting wrapper goes outside the span, so its file checks are not serialize time
    fn(serialize, "cache_get_or_compute")
    rebind(serialize.cache_get_or_compute, _counting_cache(tracer, serialize.cache_get_or_compute))
    fn(orderone.cli, "main")


def _counting_cache(tracer: Tracer, cache_get_or_compute):
    """Count hits, misses, corrupt-entry recomputes and bytes of the result cache.

    Seen from outside: a call whose compute callback runs is a miss, and a miss
    on an entry file that already existed is a recompute of a corrupt entry.
    The entry file of a key is `<key>.json` in the cache directory.
    """
    counts = tracer.counts

    def entry_size(key, directory):
        try:
            return (directory / f"{key}.json").stat().st_size
        except FileNotFoundError:
            return None

    def counting(key, compute, directory):
        if not tracer.active:
            return cache_get_or_compute(key, compute, directory)
        before = entry_size(key, directory)
        ran = []

        def observed():
            ran.append(True)
            return compute()

        result = cache_get_or_compute(key, observed, directory)
        if ran:
            counts["serialize.misses"] += 1
            counts["serialize.recomputes"] += before is not None
            counts["serialize.bytes_written"] += entry_size(key, directory) or 0
        else:
            counts["serialize.hits"] += 1
            counts["serialize.bytes_read"] += before or 0
        return result

    return counting
