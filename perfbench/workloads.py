"""The four seeded workloads: their inputs, their ops, and each op's check.

Inputs come from random.Random seeded with (workload, seed, round), so the
same seed gives the same inputs; the program only sees the generated inputs.
Every op is a call into orderone's public functions.  A check returns None
when the output is right and a short reason when it is not; checks use the
pinned data and the independent arithmetic in reference.py.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from fractions import Fraction
from pathlib import Path

import reference as ref
from orderone import cli, geometry, relations, solver
from orderone.roots import RootOfUnity


class Op:
    """run() is timed; check(output) and counts() run after it, untimed."""

    __slots__ = ("kind", "run", "check", "counts")

    def __init__(self, kind, run, check, counts=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.counts = counts


def _values(rel) -> list[Fraction]:
    return [Fraction(v.num, v.den) for v in rel.values()]


def _canonical(values) -> tuple:
    """Rotation-class key of a multiset of roots of unity."""
    return min(tuple(sorted((x - v) % 1 for x in values)) for v in values)


# -- decompose -------------------------------------------------------------------

# Every round is the full decompose pass: build_reports(n) for every class
# n <= 32, in ascending order, so the memo tables the classes share fill in the
# same order in every round; then the paper's pair table, geom_isogenous on
# every pair n1 <= n2 <= 30 (the range of its list), as one op, in seeded
# order.  Per-class cost spans 1 ms (n = 8) to about 6 s (n = 31), and a pair
# test costs 0.1 ms to 1.5 s, so a seeded subset of classes or pairs changed
# which op sits at the median with the seed (by 40% or more on a 2-core
# Xeon); the whole pass and the whole table do not.  The seed orders the pair
# tests, and
# so picks the pair that first passes the dimension prefilter and builds the
# cyclotomic tables.
DECOMPOSE_CLASSES = tuple(range(1, 33))
DECOMPOSE_PAIR_MAX = 30


def decompose_round(rng, workdir: Path):
    """One op per class, building its reports; then one op testing every pair."""
    pairs = [(a, b) for b in range(1, DECOMPOSE_PAIR_MAX + 1) for a in range(1, b + 1)]
    rng.shuffle(pairs)
    return [_class_op(n) for n in DECOMPOSE_CLASSES] + [_pairs_op(pairs)]


def _class_op(n):
    f = ref.expected_f(n)

    def check(reports):
        if not reports:
            return f"n={n}: no reports"
        for r in reports:
            if r.n != n or r.f_oracle != f or r.f_formula != f or r.geom_simple != (f == 1):
                return f"n={n}: f_oracle={r.f_oracle} f_formula={r.f_formula}, expected {f}"
        return None

    return Op("class", lambda: geometry.build_reports(n), check)


def _pairs_op(pairs):
    def check(isogenous):
        found = {frozenset(p) for p, got in zip(pairs, isogenous) if got is True}
        if len(isogenous) != len(pairs) or found != ref.GEOM_PAIRS:
            return f"isogenous pairs {sorted(map(sorted, found))}, expected the paper's list"
        return None

    return Op("pairs", lambda: [geometry.geom_isogenous(a, b) for a, b in pairs], check)


# -- relations -------------------------------------------------------------------

RELATION_MAX_WEIGHT = 18
RELATION_OPS_PER_ROUND = 250
_BASE_CLASSES = [ref.class_values(c) for c in ref.WEIGHT8_CLASSES]
_PINNED_CLASS_KEYS = {_canonical(v) for v in _BASE_CLASSES}


def relations_round(rng, workdir: Path):
    ops = [Op("enumerate", lambda: relations.enumerate_indecomposable(8), _check_enumeration(8))]
    for _ in range(RELATION_OPS_PER_ROUND):
        values = _random_stable_relation(rng)
        ops.append(_relation_op(values, _equivariant_signs(rng, values)))
    return ops


def _random_stable_relation(rng) -> list[Fraction]:
    """Union of rotated pinned classes with their conjugates, weight <= 18."""
    parts, total = [], 0
    while True:
        base = rng.choice(_BASE_CLASSES)
        zeta = Fraction(rng.randrange(12), 12) + Fraction(rng.randrange(7), 7)
        cand = sorted((v + zeta) % 1 for v in base)
        conj = sorted(ref.conjugate(cand))
        need = len(cand) * (1 if conj == cand else 2)
        if total + need > RELATION_MAX_WEIGHT:
            break
        parts.append(cand)
        if conj != cand:
            parts.append(conj)
        total += need
        if rng.random() < 0.4:
            break
    if not parts:
        parts = [_BASE_CLASSES[0]]
    return [v for p in parts for v in p]


def _equivariant_signs(rng, values) -> list[int]:
    """One random sign per conjugate pair of values, so the flipped multiset
    stays stable under conjugation."""
    flip = {}
    out = []
    for v in values:
        key = min(v, (-v) % 1)
        if key not in flip:
            flip[key] = rng.choice((1, -1))
        out.append(flip[key])
    return out


def _relation(values, signs=None):
    signs = signs or [1] * len(values)
    return relations.Relation.make(
        [(RootOfUnity.make(v.numerator, v.denominator), s) for v, s in zip(values, signs)]
    )


def _relation_op(values, signs):
    exact = _relation(values)
    flipped = _relation(values, signs)
    flipped_values = [(v + (ref.HALF if s < 0 else 0)) % 1 for v, s in zip(values, signs)]

    def run():
        return (
            relations.lift_mod2(flipped),
            relations.lift_is_unique(flipped),
            relations.conjugation_stable_partition(flipped, mod2=True),
            relations.conjugation_stable_partition(exact),
        )

    def check(out):
        lifted, unique, parts2, parts = out
        if lifted is None:
            return "no lift found"
        lv = _values(lifted)
        if not ref.sums_to_zero(lv):
            return "lift does not sum to zero"
        if sorted(min(v, (v + ref.HALF) % 1) for v in lv) != sorted(
            min(v, (v + ref.HALF) % 1) for v in flipped_values
        ):
            return "lift is not a re-signing of the input"
        if not isinstance(unique, bool):
            return "lift_is_unique returned a non-boolean"
        return _check_partition(parts2, flipped_values, mod2=True) or _check_partition(
            parts, values, mod2=False
        )

    return Op("relation", run, check)


def _check_partition(parts, values, mod2: bool):
    label = "mod-2" if mod2 else "exact"
    part_values = [_values(p) for p in parts]
    for pv in part_values:
        ok = ref.is_indecomposable_mod2(pv) if mod2 else ref.is_indecomposable_exact(pv)
        if not ok:
            return f"{label} part is not an indecomposable relation"
    if sorted(v for pv in part_values for v in pv) != sorted(values):
        return f"{label} parts do not cover the multiset"
    if sorted(tuple(sorted(pv)) for pv in part_values) != sorted(
        tuple(sorted(ref.conjugate(pv))) for pv in part_values
    ):
        return f"{label} parts are not stable under conjugation"
    return None


def _check_enumeration(max_weight):
    want = {_canonical(v) for v in _BASE_CLASSES if len(v) <= max_weight}

    def check(classes):
        got = [_values(c.representative) for c in classes]
        if len(got) != len(want) or {_canonical(v) for v in got} != want:
            return f"{len(got)} classes up to weight {max_weight}, expected {len(want)} pinned ones"
        return None

    return check


# -- search ----------------------------------------------------------------------

# Box strata: box k reaches order bounds 32 + 3k .. 32 + 3k + 2 and level bound
# 120 + 25k .. 120 + 25k + 24, so every round spans small to large boxes and
# every box contains the paper's (32, 32, 120).  Box cost grows with k (about
# 0.5 s to 1.1 s on a 2-core Xeon); with an odd number of strata the median
# op falls inside the middle stratum, not on the edge between two.
SEARCH_BOXES_PER_ROUND = 5


def search_boxes(rng) -> list[tuple[int, int, int]]:
    return [
        (32 + 3 * k + rng.randrange(3), 32 + 3 * k + rng.randrange(3), 120 + 25 * k + rng.randrange(25))
        for k in range(SEARCH_BOXES_PER_ROUND)
    ]


def search_round(rng, workdir: Path):
    return [
        Op("box", lambda box=box: solver.verify_table2(*box, workers=1), _check_search(box),
           lambda box=box: {"solver.order_triples": ref.order_triples(*box)})
        for box in search_boxes(rng)
    ]


def _within(t, box) -> bool:
    a, c, lv = box
    return t.eta1.order <= a and t.eta2.order <= a and t.eta3.order <= c and t.level() <= lv


def _check_search(box):
    """Checks verify_table2's result but not its "ok": for max_order3 >= 42 the
    sporadic patterns gain order-42 symmetry images (see README), so the
    pinned patterns are compared on the solutions inside TABLE2_BOX only."""

    def check(out):
        sols = out["solutions"]
        for t in sols:
            if not _within(t, box):
                return f"solution {t} outside box {box}"
            if not ref.g_vanishes(*(x for r in (t.eta1, t.eta2, t.eta3) for x in (r.num, r.den))):
                return f"{t} does not solve g"
        if not out["parametric_ok"]:
            return f"parametric part differs from expected_parametric{box}"
        inner = [t for t in sols if _within(t, ref.TABLE2_BOX)]
        sporadic = tuple(
            (p.order1, p.order2, tuple(p.orders3))
            for p in solver.classify_solutions(inner)
            if p.kind == "sporadic"
        )
        if sporadic != ref.SPORADIC_PATTERNS:
            return f"sporadic patterns within {ref.TABLE2_BOX} differ from the pinned nine"
        return None

    return check


# -- cli_cache -------------------------------------------------------------------

# Keys are drawn by cost stratum so every round costs about the same: five
# madan-pal K per stratum of phi(K), the two dearest relation bounds and one
# cheap one, and one solve-g box per size stratum.  Popularity is skewed (Zipf
# over ranks), and ranks are dealt round-robin over the strata, so the hot
# keys are one of each stratum in every round whichever keys the seed picks.
# Each key is requested round(weight share) times, the first request a miss
# and the rest hits, at seeded places in the stream.
CLI_PHI_STRATA = ((1, 16), (17, 40), (41, 64), (65, 128))
CLI_REQUESTS_PER_ROUND = 135
CLI_CORRUPT_SHARE = 0.1
CORRUPT_ENTRIES = (
    b'{"schema": 1, "sha256": "',  # truncated write
    b'{"payload": [], "schema": 1, "sha256": "0"}',  # checksum mismatch
    b"\xff\xfe not json",  # garbage bytes
)


def _cli_keys(rng) -> list:
    """Keys in rank order, most requested first."""
    strata = []
    for lo, hi in CLI_PHI_STRATA:
        stratum = [k for k in range(1, 129) if lo <= ref.euler_phi(k) <= hi]
        strata.append([("madan-pal", k) for k in rng.sample(stratum, 5)])
    strata.append([("relations", 6), ("relations", 7), ("relations", rng.randrange(2, 6))])
    strata.append([
        ("solve-g", (4 + 2 * k + rng.randrange(2), 4 + 2 * k + rng.randrange(2), 12 + 10 * k + rng.randrange(10)))
        for k in range(4)
    ])
    for stratum in strata:
        rng.shuffle(stratum)
    return [s[i] for i in range(max(map(len, strata))) for s in strata if i < len(s)]


def _cli_stream(rng, keys) -> list:
    """One request per key plus the rest shared by Zipf weight over the ranks
    (largest remainders), in seeded order."""
    weights = [1 / (rank + 1) for rank in range(len(keys))]
    shares = [(CLI_REQUESTS_PER_ROUND - len(keys)) * w / sum(weights) for w in weights]
    counts = [1 + math.floor(s) for s in shares]
    by_remainder = sorted(range(len(keys)), key=lambda i: math.floor(shares[i]) - shares[i])
    for i in by_remainder[: CLI_REQUESTS_PER_ROUND - sum(counts)]:
        counts[i] += 1
    stream = [k for k, c in zip(keys, counts) for _ in range(c)]
    rng.shuffle(stream)
    return stream


def cli_cache_round(rng, workdir: Path):
    cache = workdir / "cache"
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True)
    keys = _cli_keys(rng)
    stream = _cli_stream(rng, keys)
    corrupt = set(rng.sample(keys, round(CLI_CORRUPT_SHARE * len(keys))))
    for key in corrupt:
        (cache / _entry_name(key)).write_bytes(rng.choice(CORRUPT_ENTRIES))
    first: dict = {}
    ops = []
    for key in stream:
        if key in first:
            kind = "hit"
        else:
            kind = "recompute" if key in corrupt else "miss"
            first[key] = None
        ops.append(_cli_op(key, kind, cache, first))
    return ops


def _entry_name(key) -> str:
    cmd, arg = key
    if cmd == "madan-pal":
        return f"madan_pal_{arg}.json"
    if cmd == "relations":
        return f"relations_w{arg}.json"
    return "solve_{}_{}_{}.json".format(*arg)


def _argv(key, cache: Path) -> list[str]:
    cmd, arg = key
    argv = ["--cache-dir", str(cache), "--workers", "1", cmd]
    if cmd == "madan-pal":
        return argv + ["--n", str(arg)]
    if cmd == "relations":
        return argv + ["--max-weight", str(arg)]
    a, c, lv = arg
    return argv + ["--max-order12", str(a), "--max-order3", str(c), "--max-level", str(lv)]


def _cli_op(key, kind, cache: Path, first: dict):
    argv = _argv(key, cache)

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv)
        return status, buf.getvalue()

    def check(out):
        status, text = out
        if status != 0:
            return f"{' '.join(argv[4:])}: exit status {status}"
        if kind == "hit":
            return None if text == first[key] else f"{' '.join(argv[4:])}: hit differs from miss"
        first[key] = text
        if kind == "recompute" and (cache / _entry_name(key)).read_bytes() in CORRUPT_ENTRIES:
            return f"{' '.join(argv[4:])}: corrupt entry was not replaced"
        return _check_response(key, json.loads(text))

    return Op(kind, run, check)


def _check_response(key, doc):
    cmd, arg = key
    if cmd == "madan-pal":
        degree = len(doc["p_n"]) - 1
        if doc["n"] != arg or degree != max(2, ref.euler_phi(arg)):
            return f"madan-pal {arg}: degree {degree}, expected max(2, phi(n))"
        if sum(int(c) for c in doc["weil"]) != 1:
            return f"madan-pal {arg}: order is not 1"
        return None
    if cmd == "relations":
        want = ref.expected_class_count(arg)
        got = []
        for c in doc["classes"]:
            values = []
            for e in c["representative"]["entries"]:
                num, den = map(int, e["root"].split("/"))
                values.append((Fraction(num, den) + (ref.HALF if e["sign"] < 0 else 0)) % 1)
            got.append(values)
        if doc["count"] != want or len(got) != want:
            return f"relations {arg}: {doc['count']} classes, expected {want}"
        if not all(ref.sums_to_zero(v) and _canonical(v) in _PINNED_CLASS_KEYS for v in got):
            return f"relations {arg}: a class is not one of the pinned relations"
        return None
    a, c, lv = arg
    if doc["bounds"] != [a, c, lv] or doc["count"] != len(doc["solutions"]) or not doc["count"]:
        return f"solve-g {arg}: malformed response"
    for triple in doc["solutions"]:
        (k1, n1), (k2, n2), (k3, n3) = (map(int, s.split("/")) for s in triple)
        if max(n1, n2) > a or n3 > c or math.lcm(n1, n2, n3) > lv:
            return f"solve-g {arg}: solution {triple} outside the box"
        if not ref.g_vanishes(k1, n1, k2, n2, k3, n3):
            return f"solve-g {arg}: {triple} does not solve g"
    return None


# name -> round generator: round(rng, workdir) gives the round's ops
WORKLOADS = {
    "decompose": decompose_round,
    "relations": relations_round,
    "search": search_round,
    "cli_cache": cli_cache_round,
}
