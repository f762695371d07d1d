import collections
import hashlib
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orderone import solver
from orderone.arith import euler_phi
from orderone.cyclo import root_sum
from orderone.relations import Relation, conjugation_stable_partition
from orderone.roots import RootOfUnity
from orderone.solver import (
    PREFILTER_ERROR_BOUND,
    PREFILTER_TOLERANCE,
    SPORADIC_ORDER_PATTERNS,
    SolutionPattern,
    SolutionTriple,
    apply_symmetry,
    candidate_h_set,
    classify_solutions,
    eigenvalue_resultant_identity,
    eval_g,
    expected_parametric,
    g_expr,
    is_parametric,
    is_solution,
    orbit_representatives,
    ratio_resultant_factor,
    ratio_resultant_identity,
    solve_bounded,
    verify_table2,
)

r = RootOfUnity.make
REPO = Path(__file__).resolve().parent.parent


def test_g_has_fourteen_terms_with_pinned_coefficients():
    """All 14 (exponent, coefficient) pairs, written out independently of the
    S_MONOMIALS table that g_expr is built from."""
    g = g_expr()
    assert dict(g.terms) == {
        (1, 0, 0): 1, (-1, 0, 0): 1,
        (0, 1, 0): 1, (0, -1, 0): 1,
        (0, 0, 1): 1, (0, 0, -1): 1,
        (1, 0, -1): -1, (-1, 0, 1): -1,
        (0, 1, -1): -1, (0, -1, 1): -1,
        (1, 1, -1): 1, (-1, -1, 1): 1,
        (1, 1, -2): -2, (-1, -1, 2): -2,
    }
    assert len(g.terms) == 14
    # total weight as a relation, with the double terms counted twice
    assert sum(abs(c) for _, c in g.terms) == 16


@pytest.mark.parametrize("k", [0, 1, 2])
def test_g_invariant_under_generators(k):
    g = g_expr()
    assert apply_symmetry(k, g).key() == g.key()


def test_symmetry_on_triples():
    t = SolutionTriple(r(1, 5), r(1, 5), r(1, 5).negated())
    assert apply_symmetry(2, t) == SolutionTriple(r(1, 5), r(4, 5), r(0, 1))
    assert apply_symmetry(1, SolutionTriple(r(1, 3), r(1, 5), r(1, 7))) == SolutionTriple(
        r(1, 5), r(1, 3), r(1, 7)
    )
    assert apply_symmetry(0, t) == SolutionTriple(r(4, 5), r(4, 5), r(1, 5).negated().inverse())


def apply_symmetry_word(word, obj):
    """Apply a word in the three generators, e.g. (2, 0, 1), left to right."""
    for k in word:
        obj = apply_symmetry(k, obj)
    return obj


def test_symmetry_words():
    g = g_expr()
    for word in [(), (0,), (1, 2), (2, 1, 0), (0, 1, 2, 1, 0)]:
        assert apply_symmetry_word(word, g).key() == g.key()
    t = SolutionTriple(r(1, 5), r(1, 5), r(1, 5).negated())
    assert apply_symmetry_word((2, 2), t) == t  # each generator is an involution


def test_candidate_set_counts():
    cands = candidate_h_set()
    assert len(cands) == 70
    constant_terms = [h for h in cands if any(e == (0, 0, 0) for e, _ in h.terms)]
    assert len(constant_terms) == 28
    # u + u^-1 with empty T is a candidate
    from orderone.solver import LaurentExpr, U_INV_TERM, U_TERM

    assert LaurentExpr.make([U_TERM, U_INV_TERM]).key() in {h.key() for h in cands}


def test_orbit_representative_count():
    assert len(orbit_representatives()) == 16


def test_eval_g_examples():
    assert is_solution(SolutionTriple(r(1, 5), r(1, 5), r(1, 5).negated()))
    assert is_solution(SolutionTriple(r(0, 1), r(1, 2), r(1, 8)))
    assert is_solution(SolutionTriple(r(1, 2), r(1, 2), r(1, 4)))
    assert is_solution(SolutionTriple(r(0, 1), r(0, 1), r(0, 1)))
    assert not is_solution(SolutionTriple(r(1, 5), r(1, 5), r(1, 5)))
    # the shape (zeta, zeta, 1) from the printed one-parameter display fails;
    # its orbit-mate (zeta, 1/zeta, 1) is the actual solution
    assert not is_solution(SolutionTriple(r(1, 5), r(1, 5), r(0, 1)))
    assert is_solution(SolutionTriple(r(1, 5), r(4, 5), r(0, 1)))


def test_parametric_detection():
    assert is_parametric(SolutionTriple(r(1, 5), r(1, 5), r(1, 5).negated()))
    assert is_parametric(SolutionTriple(r(1, 5), r(4, 5), r(0, 1)))
    assert not is_parametric(SolutionTriple(r(0, 1), r(1, 2), r(1, 8)))


def exact_solve(max12, max3, maxlevel):
    """Independent slow path: exact evaluation over the whole grid."""
    out = set()
    for a in range(1, max12 + 1):
        for b in range(1, max12 + 1):
            for c in range(1, max3 + 1):
                if math.lcm(a, b, c) > maxlevel:
                    continue
                for k1 in range(a):
                    if math.gcd(k1, a) != 1 and a > 1:
                        continue
                    for k2 in range(b):
                        if math.gcd(k2, b) != 1 and b > 1:
                            continue
                        for k3 in range(c):
                            if math.gcd(k3, c) != 1 and c > 1:
                                continue
                            t = SolutionTriple(r(k1, a), r(k2, b), r(k3, c))
                            if is_solution(t):
                                out.add(t)
    return out


def test_solver_matches_exact_enumeration_small():
    got = set(solve_bounded(8, 8, 24))
    want = exact_solve(8, 8, 24)
    assert got == want


def test_solutions_are_symmetry_stable_with_slack():
    sols = set(solve_bounded(8, 8, 24))
    wide = set(solve_bounded(16, 16, 48))
    for t in sols:
        for k in range(3):
            img = apply_symmetry(k, t)
            assert is_solution(img)
            if (
                img.eta1.order <= 16
                and img.eta2.order <= 16
                and img.eta3.order <= 48
                and img.level() <= 48
            ):
                assert img in wide


def test_row_for_eighth_roots():
    sols = solve_bounded(2, 8, 8)
    with_1_2 = {t for t in sols if t.eta1.order == 1 and t.eta2.order == 2}
    assert {t.eta3 for t in with_1_2} == {r(1, 8), r(3, 8), r(5, 8), r(7, 8)}


def test_trivial_bounds():
    assert solve_bounded(1, 1, 1) == [SolutionTriple(r(0, 1), r(0, 1), r(0, 1))]


def test_verify_table2_full():
    result = verify_table2(32, 32, 120)
    assert result["sporadic_ok"]
    assert result["parametric_ok"]
    sporadic = [p for p in result["patterns"] if p.kind == "sporadic"]
    assert tuple(sporadic) == SPORADIC_ORDER_PATTERNS


def test_verify_table2_past_the_known_finding():
    """(32, 42, 120) reaches eta3 order 42, where the (6, 7) pattern gains 24
    solutions that classify_solutions, normalizing by the swap only, does not
    fold into the pinned pattern: sporadic_ok is False, parametric_ok True.
    The solutions and patterns are pinned byte for byte by their repr."""
    result = verify_table2(32, 42, 120)
    assert (result["sporadic_ok"], result["parametric_ok"], result["ok"]) == (False, True, False)
    sporadic = [p for p in result["patterns"] if p.kind == "sporadic"]
    assert [p for p in sporadic if p not in SPORADIC_ORDER_PATTERNS] == [SolutionPattern(6, 7, (21, 42), "sporadic")]
    assert [p for p in SPORADIC_ORDER_PATTERNS if p not in sporadic] == [SolutionPattern(6, 7, (21,), "sporadic")]
    sols = result["solutions"]
    assert len(sols) == 835
    assert sum(sorted(t.orders()) == [6, 7, 42] for t in sols) == 24
    assert hashlib.sha256(repr(sols).encode()).hexdigest() == (
        "76a0a61b48d11d86632e4933590fcbed8554c317da81a56ea16f94eedc7cfb60"
    )
    assert hashlib.sha256(repr(result["patterns"]).encode()).hexdigest() == (
        "2d912ee4c263641941bb7acc59ad8319a44a074e93665eca597c2eef97366d6e"
    )


def test_sporadic_levels_divide_known_conductor_doublings():
    result = verify_table2(32, 32, 120)
    allowed = (30, 42, 24, 15, 21)
    for t in result["solutions"]:
        if not is_parametric(t):
            assert any(a % t.level() == 0 for a in allowed), t


def test_solution_relation_separates_the_double_terms():
    g = g_expr()
    checked = 0
    for t in solve_bounded(8, 8, 30):
        values = []
        for e, c in g.terms:
            v = (t.eta1 ** e[0]) * (t.eta2 ** e[1]) * (t.eta3 ** e[2])
            if c < 0:
                v = v.negated()
            values.extend([v] * abs(c))
        rel = Relation.from_values(values)
        assert rel.weight == 16
        u_val = ((t.eta1 * t.eta2) * (t.eta3 ** -2)).negated()
        parts = conjugation_stable_partition(rel)
        for part in parts:
            assert part.values().count(u_val) <= 1
            assert part.values().count(u_val.inverse()) <= 1
        checked += 1
    assert checked > 20


def test_eigenvalue_resultant_identity():
    for n in range(3, 31):
        assert eigenvalue_resultant_identity(n), n


def test_ratio_resultant_identity():
    assert ratio_resultant_identity()
    coeff, expo = ratio_resultant_factor()
    # the eliminant is exactly -2 * z1 * z2^-1 * z3^-2 times g
    assert (coeff, expo) == (-2, (1, -1, -2))


def test_classify_groups_by_swapped_signature():
    sols = solve_bounded(8, 8, 24)
    patterns = classify_solutions(sols)
    for p in patterns:
        assert p.order1 <= p.order2
    sporadic = {(p.order1, p.order2): p.orders3 for p in patterns if p.kind == "sporadic"}
    assert sporadic[(1, 2)] == (8,)
    assert sporadic[(2, 2)] == (4,)


def test_expected_parametric_matches_found():
    found = {t for t in solve_bounded(6, 6, 24) if is_parametric(t)}
    want = expected_parametric(6, 6, 24)
    assert found == want


# candidates of each box on the family, decided by the identity g o phi = 0
FAMILY_CANDIDATES = {(32, 32, 120): 243, (12, 12, 60): 36}


@pytest.mark.parametrize("box, candidates", [((32, 32, 120), 363), ((12, 12, 60), 66)])
def test_prefilter_candidate_counts_are_pinned(monkeypatch, box, candidates):
    """verify_table2, the benchmark's op, and solve_bounded each decide the
    box's pinned number of prefilter candidates, every one a zero and each
    decided once: those on the family by the identity g o phi = 0, every
    other one by one is_solution call.  The benchmark counts is_solution
    calls as candidates and its true answers as confirmations, so those
    counts leave out the family share and every call is a zero."""
    family = FAMILY_CANDIDATES[box]
    rest = candidates - family
    decoded, verdicts = [], []
    decode = solver._candidates

    def recording_candidates(tasks, workers):
        decoded.append(decode(tasks, workers))
        return decoded[-1]

    def recording_is_solution(t):
        verdicts.append((t, is_solution(t)))
        return verdicts[-1][1]

    monkeypatch.setattr(solver, "_candidates", recording_candidates)
    monkeypatch.setattr(solver, "is_solution", recording_is_solution)
    for search in (verify_table2, solve_bounded):
        decoded.clear()
        verdicts.clear()
        search(*box)
        (rows,) = decoded
        triples = [SolutionTriple(r(k1, a), r(k2, b), r(k3, c)) for a, b, c, k1, k2, k3 in rows.tolist()]
        assert len(set(triples)) == len(triples) == candidates
        assert all(is_solution(t) for t in triples)
        on_family = {t for t in triples if per_solution_is_parametric(t)}
        assert len(on_family) == family
        sent = [t for t, _ in verdicts]
        assert len(set(sent)) == len(sent) == rest and all(v for _, v in verdicts)
        assert set(sent) == set(triples) - on_family


def test_family_certificate_checks_each_map(monkeypatch):
    """The four family maps pass the identity g o phi = 0; a map with one
    sign flipped fails it, and then the search certifies no family hit."""
    solver._family_certificate.cache_clear()
    try:
        solver._family_certificate()
        maps = solver._family_maps()
        (first, second, (s3, e3)), *others = maps
        doctored = ((first, second, (-s3, e3)), *others)
        monkeypatch.setattr(solver, "_family_maps", lambda: doctored)
        solver._family_certificate.cache_clear()
        with pytest.raises(ArithmeticError):
            solver._family_certificate()
        with pytest.raises(ArithmeticError):
            verify_table2(6, 6, 24)
    finally:
        monkeypatch.undo()
        solver._family_certificate.cache_clear()


def test_search_imports_no_further_numpy_module():
    """The array route from prefilter hit to verdict imports no numpy module
    after the CLI's own imports (numpy.ma in particular, which some numpy
    functions import on their first call)."""
    code = (
        "import sys; sys.path[:0] = ['src']; import orderone.cli; from orderone import solver; "
        "before = set(sys.modules); solver.verify_table2(32, 32, 120); solver.solve_bounded(6, 6, 24); "
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'numpy'))"
    )
    res = subprocess.run([sys.executable, "-c", code], cwd=REPO, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


def test_parametric_verdict_is_constant_on_symmetry_images():
    """verify_table2 decides is_parametric once per inversion/swap orbit.  The
    family is the symmetry orbit of (zeta, zeta, -zeta), a union of orbits of
    the whole group, so every image of a solution shares its verdict; the
    inversion and swap images of a solution are solutions of the same box."""
    sols = solve_bounded(46, 46, 244)
    found = set(sols)
    for t in sols:
        verdict = is_parametric(t)
        swapped = apply_symmetry(1, t)
        for img in (apply_symmetry(0, t), swapped, apply_symmetry(0, swapped)):
            assert img in found, (t, img)
            assert is_parametric(img) == verdict, (t, img)
        assert is_parametric(apply_symmetry(2, t)) == verdict, t


def test_solutions_are_closed_under_galois():
    """Every zero of (32, 32, 120) maps to a zero of the same box under each
    Galois automorphism z_j -> z_j^u, u a unit mod m = lcm(2, orders), run
    through _image as the diagonal signed-monomial map: Galois conjugation
    keeps the orders, and g has rational coefficients."""
    sols = solve_bounded(32, 32, 120)
    found = set(sols)
    checked = 0
    for t in sols:
        m, ks = solver._exponents(t)
        for u in range(1, m):
            if math.gcd(u, m) == 1:
                diagonal = tuple((1, tuple(u if i == j else 0 for i in range(3))) for j in range(3))
                img = SolutionTriple(*(RootOfUnity.make(e, m) for e in solver._image(diagonal, m, ks)))
                assert img in found, (t, u)
                checked += 1
    assert (len(sols), checked) == (765, 8591)


def test_image_on_arrays_matches_apply_symmetry():
    """_image of each generator on the exponent arrays of all zeros of
    (32, 32, 120) at once gives apply_symmetry's triples, in order."""
    sols = solve_bounded(32, 32, 120)
    keys = np.array([(r.den, r.num) for t in sols for r in (t.eta1, t.eta2, t.eta3)]).reshape(-1, 6)
    m, ks = solver._exponent_vectors(keys[:, 0::2], keys[:, 1::2])
    for k, gen in enumerate(solver.GENERATORS):
        images = np.stack(solver._image(gen, m, tuple(ks.T)), axis=1)
        assert solver._from_keys(solver._root_keys(m, images)) == [apply_symmetry(k, t) for t in sols]


# PREFILTER_ROWS = 3 and PREFILTER_BLOCK = 7 cut the stacked rows of one
# eta3-order set into 3-row chunks, some starting inside one pair's rows, and
# each chunk into blocks of at most 7 points, some starting inside one eta3
# order's columns
SPLIT_GRID = pytest.mark.parametrize("rows, block", [(None, None), (3, 7)], ids=["default", "split"])


def split_grid(monkeypatch, rows, block):
    if rows is not None:
        monkeypatch.setattr(solver, "PREFILTER_ROWS", rows)
        monkeypatch.setattr(solver, "PREFILTER_BLOCK", block)


def grid_is_split(tasks) -> bool:
    """Some task's grid is cut inside one pair's rows and inside one order's columns."""
    for pairs, cs in tasks:
        tops, lefts = set(), set()
        for top, left, half_g in solver._prefilter_blocks(pairs, cs):
            tops.add(top)
            lefts.add(left)
        col_starts = set(itertools.accumulate((len(primitive(c)) for c in cs), initial=0))
        row_starts = {0, *solver._grid_ends(pairs, cs)[0].tolist()}
        if tops - row_starts and lefts - col_starts:
            return True
    return False


def test_workers_do_not_change_results(monkeypatch):
    """workers=2 maps the tasks of (6, 6, 24) to a pool, with the default
    grid and with one split in rows and columns (a pool started by fork, the
    default on Linux, inherits the patched sizes)."""
    for rows, block in [(None, None), (3, 7)]:
        split_grid(monkeypatch, rows, block)
        tasks = solver._order_pair_tasks(6, 6, 24)
        assert len(tasks) == 5  # one task per eta3-order set, 20 order pairs
        want = [(a, b) for a in range(1, 7) for b in range(a, 7) if math.lcm(a, b) <= 24]
        assert sorted(pair for pairs, _ in tasks for pair in pairs) == want
        assert grid_is_split(tasks) == (rows is not None)
        assert solve_bounded(6, 6, 24, workers=1) == solve_bounded(6, 6, 24, workers=2)


def test_worker_pool_is_capped_by_tasks_and_processors(monkeypatch):
    """_candidates starts a pool of min(workers, tasks, os.cpu_count())
    processes, and none when that is 1 or the processor count is unknown.
    The pool is a stand-in that records its size and maps in this process,
    so no process is started; the hits do not depend on the worker count."""
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return [func(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    tasks = solver._order_pair_tasks(6, 6, 24)
    assert len(tasks) == 5
    want = solver._candidates(tasks, 1)
    for cpus, workers, size in [(4, 100000, 4), (64, 100000, 5), (64, 3, 3), (64, 1, None), (1, 100000, None), (None, 100000, None)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sizes.clear()
        assert np.array_equal(solver._candidates(tasks, workers), want)
        assert sizes == ([] if size is None else [size])
    sizes.clear()
    assert solve_bounded(6, 6, 24, workers=100000) == solve_bounded(6, 6, 24)
    assert sizes == []


@SPLIT_GRID
def test_prefilter_blocks_build_each_pair_rows_once(monkeypatch, rows, block):
    """_prefilter_blocks stacks a task's rows once: _order_pair_rows is
    called exactly once per order pair of the task, also when the chunks
    start and end inside one pair's rows."""
    split_grid(monkeypatch, rows, block)
    calls = collections.Counter()
    build = solver._order_pair_rows

    def counting_rows(a, b):
        calls[a, b] += 1
        return build(a, b)

    monkeypatch.setattr(solver, "_order_pair_rows", counting_rows)
    tasks = solver._order_pair_tasks(12, 12, 60)
    assert grid_is_split(tasks) == (rows is not None)
    for pairs, cs in tasks:
        calls.clear()
        for _ in solver._prefilter_blocks(pairs, cs):
            pass
        assert calls == collections.Counter(pairs)


def test_one_search_lays_out_its_grid_once(monkeypatch):
    """verify_table2 calls _grid_ends once, on the tasks of the box laid end
    to end; _prefilter_blocks needs no layout of its own."""
    calls = []
    lay_out = solver._grid_ends

    def counting_grid_ends(pairs, cs):
        calls.append(len(pairs))
        return lay_out(pairs, cs)

    monkeypatch.setattr(solver, "_grid_ends", counting_grid_ends)
    verify_table2(12, 12, 60)
    assert calls == [sum(len(pairs) for pairs, _ in solver._order_pair_tasks(12, 12, 60))]


def per_pair_grid_ends(pairs, cs):
    """The grid layout by one count per order pair and per eta3 order."""
    rows = [len([k for k in primitive(a) if 2 * k <= a]) * len(primitive(b)) for a, b in pairs]
    return np.cumsum(rows, dtype=np.int64), np.cumsum([len(primitive(c)) for c in cs], dtype=np.int64)


@pytest.mark.parametrize("box", [(12, 12, 60), (44, 45, 220)])
def test_grid_ends_match_per_pair_counts(box):
    """_grid_ends reads the lower-half count (phi(a) + 1) // 2 and phi(b)
    off the totient column; on every task, and on all tasks end to end, it
    equals the counts of the residues themselves."""
    tasks = solver._order_pair_tasks(*box)
    everything = ([pair for pairs, _ in tasks for pair in pairs], [c for _, cs in tasks for c in cs])
    for pairs, cs in [*tasks, everything]:
        got, want = solver._grid_ends(pairs, cs), per_pair_grid_ends(pairs, cs)
        assert all(g.dtype == np.int64 and np.array_equal(g, w) for g, w in zip(got, want))


def test_order_pair_tasks_match_brute_force():
    """Every order pair a <= b <= 44 with some c <= 45 and lcm(a, b, c) <= 220,
    grouped by its set of such c in the order of the first pair of each set."""
    groups = {}
    for a in range(1, 45):
        for b in range(a, 45):
            cs = tuple(c for c in range(1, 46) if math.lcm(a, b, c) <= 220)
            if cs:
                groups.setdefault(cs, []).append((a, b))
    want = [(tuple(pairs), cs) for cs, pairs in groups.items()]
    assert solver._order_pair_tasks(44, 45, 220) == want


# -- reference routes ------------------------------------------------------------
# Independent slow versions of the solver's fast paths: the per-order-triple
# float mask of the direct 14-term formula, the hand-written action of the
# generators on triples, the orbit walk per solution, and the per-seed
# expected_parametric loop.  The library must agree with them exactly.


def primitive(n):
    return [k for k in range(n) if math.gcd(k, n) == 1] if n > 1 else [0]


def per_triple_float_zero_mask(a, b, c, k1s, k2s, k3s):
    t1 = np.exp(2j * np.pi * np.asarray(k1s, dtype=float)[:, None, None] / a)
    t2 = np.exp(2j * np.pi * np.asarray(k2s, dtype=float)[None, :, None] / b)
    t3 = np.exp(2j * np.pi * np.asarray(k3s, dtype=float)[None, None, :] / c)
    g = (
        t1 + 1 / t1 + t2 + 1 / t2 + t3 + 1 / t3
        - t1 / t3 - t3 / t1 - t2 / t3 - t3 / t2
        + t1 * t2 / t3 + t3 / (t1 * t2)
        - 2 * t1 * t2 / t3 ** 2 - 2 * t3 ** 2 / (t1 * t2)
    )
    return np.abs(g) < 1e-8


def per_triple_candidates(a, b, c):
    k1s = [k for k in primitive(a) if 2 * k <= a]
    k2s, k3s = primitive(b), primitive(c)
    mask = per_triple_float_zero_mask(a, b, c, k1s, k2s, k3s)
    return {(a, k1s[i], b, k2s[j], c, k3s[l]) for i, j, l in zip(*np.nonzero(mask))}


def hand_action(k, t):
    if k == 0:
        return SolutionTriple(t.eta1.inverse(), t.eta2.inverse(), t.eta3.inverse())
    if k == 1:
        return SolutionTriple(t.eta2, t.eta1, t.eta3)
    return SolutionTriple(t.eta1, t.eta2.inverse(), (t.eta1 * t.eta3.inverse()).negated())


def hand_orbit(t):
    seen, frontier = {t}, [t]
    while frontier:
        frontier = [img for s in frontier for img in (hand_action(k, s) for k in range(3)) if img not in seen]
        seen.update(frontier)
    return seen


def per_solution_is_parametric(t):
    return any(s.eta1 == s.eta2 and s.eta3 == s.eta1.negated() for s in hand_orbit(t))


def per_solution_patterns(sols, parametric):
    buckets = {}
    for t in sols:
        a, b, c = t.orders()
        buckets.setdefault((t not in parametric, min(a, b), max(a, b)), set()).add(c)
    return [
        SolutionPattern(a, b, tuple(sorted(cs)), "sporadic" if sporadic else "parametric")
        for (sporadic, a, b), cs in sorted(buckets.items())
    ]


def within(t, max12, max3, maxlevel):
    return t.eta1.order <= max12 and t.eta2.order <= max12 and t.eta3.order <= max3 and t.level() <= maxlevel


def per_seed_expected_parametric(max12, max3, maxlevel):
    out = set()
    for n in range(1, 2 * max(max12, max3) + 1):
        for k in primitive(n):
            zeta = r(k, n)
            seed = SolutionTriple(zeta, zeta, zeta.negated())
            if seed in out:
                continue
            out.update(t for t in hand_orbit(seed) if within(t, max12, max3, maxlevel))
    return out


def per_triple_solve(max12, max3, maxlevel):
    found = set()
    for a in range(1, max12 + 1):
        for b in range(a, max12 + 1):
            for c in range(1, max3 + 1):
                if math.lcm(a, b, c) > maxlevel:
                    continue
                for _, k1, _, k2, _, k3 in per_triple_candidates(a, b, c):
                    t = SolutionTriple(r(k1, a), r(k2, b), r(k3, c))
                    if is_solution(t):
                        swapped = hand_action(1, t)
                        images = (t, hand_action(0, t), swapped, hand_action(0, swapped))
                        found.update(s for s in images if within(s, max12, max3, maxlevel))
    return sorted(found)


def power_route_eval_g(t):
    parts = [(c, (t.eta1 ** e[0]) * (t.eta2 ** e[1]) * (t.eta3 ** e[2])) for e, c in g_expr().terms]
    return root_sum(parts)


def fourteen_root_eval_g(t):
    """The confirmation route the fold replaced: one RootOfUnity per term of
    g, at its exponent over m = lcm(2, orders), summed by root_sum."""
    m = math.lcm(2, *t.orders())
    ks = [e.num * (m // e.order) for e in (t.eta1, t.eta2, t.eta3)]
    return root_sum([(c, r(e[0] * ks[0] + e[1] * ks[1] + e[2] * ks[2], m)) for e, c in g_expr().terms])


def small_box_triples(max_order):
    return [
        SolutionTriple(r(k1, a), r(k2, b), r(k3, c))
        for a in range(1, max_order + 1)
        for b in range(1, max_order + 1)
        for c in range(1, max_order + 1)
        for k1 in primitive(a)
        for k2 in primitive(b)
        for k3 in primitive(c)
    ]


@pytest.mark.parametrize("top", [50, 2**40])
def test_key_rows_sort_as_python_sorts_them(top):
    """The search sorts its key rows by lexsort, with narrow columns (top 50,
    many ties) and wide ones (top 2^40) alike: Python's order, and the first
    of each run of equal rows."""
    rng = np.random.default_rng(top)
    rows = rng.integers(0, top, size=(500, 6))
    rows[250:] = rows[:250]
    order, first = solver._lex_groups(rows)
    want = sorted(map(tuple, rows.tolist()))
    assert list(map(tuple, rows[order].tolist())) == want
    assert list(map(tuple, rows[order[first]].tolist())) == sorted(set(want))


def test_generator_action_on_triples_matches_hand_formulas():
    triples = small_box_triples(7)
    assert len(triples) == 18 ** 3
    for t in triples:
        for k in range(3):
            assert apply_symmetry(k, t) == hand_action(k, t), (k, t)


def test_eval_g_matches_power_route():
    for t in small_box_triples(5):
        assert eval_g(t) == power_route_eval_g(t), t


def test_folded_eval_g_matches_fourteen_root_sum():
    for t in small_box_triples(7):
        got, want = eval_g(t), fourteen_root_eval_g(t)
        assert got == want, t
        assert got.is_zero() == want.is_zero(), t


@SPLIT_GRID
def test_batched_prefilter_candidates_match_per_triple_masks(monkeypatch, rows, block):
    """Every order triple of (12, 12, 60): the points that the batched grids
    of the eta3-order sets, laid end to end, decode into candidates are
    those of the per-triple masks, each once, also when the grid is cut into
    chunks and blocks that split one pair's rows and one eta3 order's
    columns."""
    split_grid(monkeypatch, rows, block)
    tasks = solver._order_pair_tasks(12, 12, 60)
    assert grid_is_split(tasks) == (rows is not None)
    want = set()
    for pairs, cs in tasks:
        for a, b in pairs:
            for c in cs:
                want |= per_triple_candidates(a, b, c)
    candidates = solver._candidates(tasks, 1)
    got = {(a, k1, b, k2, c, k3) for a, b, c, k1, k2, k3 in candidates.tolist()}
    assert len(got) == len(candidates)
    assert sum(len(pairs) * len(cs) for pairs, cs in tasks) == 568
    assert got == want


@SPLIT_GRID
def test_prefilter_blocks_tile_the_grid(monkeypatch, rows, block):
    """The blocks of each eta3-order set of (12, 12, 60) cover its grid once:
    assembled, they are the per-pair grids _order_pair_rows(a, b) @
    _eta3_columns(c), stacked by pair and concatenated by order, to within
    the prefilter's error bound."""
    split_grid(monkeypatch, rows, block)
    for pairs, cs in solver._order_pair_tasks(12, 12, 60):
        want = np.vstack([np.hstack([solver._order_pair_rows(a, b) @ solver._eta3_columns(c) for c in cs]) for a, b in pairs])
        got = np.full(want.shape, np.nan)
        for top, left, half_g in solver._prefilter_blocks(pairs, cs):
            h, w = half_g.shape
            assert np.isnan(got[top : top + h, left : left + w]).all()
            got[top : top + h, left : left + w] = half_g
        assert np.abs(got - want).max() < PREFILTER_ERROR_BOUND


def test_task_list_includes_levels_with_large_totient():
    """No order triple inside the bounds is skipped: 91 = lcm(7, 13) has phi
    72.  Each order pair is in one task, and each task is the one set of
    eta3 orders that its pairs admit."""
    tasks = solver._order_pair_tasks(32, 32, 120)
    levels = {math.lcm(a, b, c) for pairs, cs in tasks for a, b in pairs for c in cs}
    assert {91, 95, 115, 117, 119} <= levels
    assert euler_phi(91) == 72
    assert (7, 13) in {pair for pairs, cs in tasks if 1 in cs for pair in pairs}
    want = {
        (a, b, c)
        for a in range(1, 33)
        for b in range(a, 33)
        for c in range(1, 33)
        if math.lcm(a, b, c) <= 120
    }
    assert {(a, b, c) for pairs, cs in tasks for a, b in pairs for c in cs} == want
    pairs = [pair for pairs, _ in tasks for pair in pairs]
    assert len(pairs) == len(set(pairs))
    assert len({cs for _, cs in tasks}) == len(tasks)
    for pairs, cs in tasks:
        assert all(cs == tuple(c for c in range(1, 33) if math.lcm(a, b, c) <= 120) for a, b in pairs)


def test_prefilter_margin_at_confirmed_solutions():
    """The float |g| the prefilter reads at every confirmed solution of
    (32, 32, 120), in the block of its eta3-order set's grid that holds it,
    is inside the derived error bound, far below the tolerance."""
    assert PREFILTER_ERROR_BOUND < 1e-12 < PREFILTER_TOLERANCE
    canonical = {}
    for t in solve_bounded(32, 32, 120):
        (a, k1), (b, k2), (c, k3) = ((e.order, e.num) for e in (t.eta1, t.eta2, t.eta3))
        if a <= b and 2 * k1 <= a:  # only the canonical half reaches the prefilter
            canonical.setdefault((a, b, c), []).append((k1, k2, k3))
    worst, checked, want = 0.0, 0, 0
    for pairs, cs in solver._order_pair_tasks(32, 32, 120):
        cells, top = [], 0
        for a, b in pairs:
            k1s, k2s = [k for k in primitive(a) if 2 * k <= a], primitive(b)
            left = 0
            for c in cs:
                for k1, k2, k3 in canonical.get((a, b, c), ()):
                    row = top + k1s.index(k1) * len(k2s) + k2s.index(k2)
                    cells.append((row, left + primitive(c).index(k3)))
                left += len(primitive(c))
            top += len(k1s) * len(k2s)
        want += len(cells)
        for top, left, half_g in solver._prefilter_blocks(pairs, cs):
            h, w = half_g.shape
            for row, col in cells:
                if top <= row < top + h and left <= col < left + w:
                    worst = max(worst, 2 * abs(half_g[row - top, col - left]))
                    checked += 1
    assert checked == want == sum(map(len, canonical.values())) > 150
    assert worst < PREFILTER_ERROR_BOUND


@pytest.mark.parametrize("box", [(32, 32, 120), (46, 46, 244)])
def test_fast_paths_match_reference_routes(box):
    sols = solve_bounded(*box)
    assert sols == per_triple_solve(*box)
    parametric = {t for t in sols if per_solution_is_parametric(t)}
    reference_patterns = per_solution_patterns(sols, parametric)
    assert classify_solutions(sols) == reference_patterns
    assert {t for t in sols if is_parametric(t)} == parametric
    assert expected_parametric(*box) == per_seed_expected_parametric(*box)
    result = verify_table2(*box)
    assert result["solutions"] == sols
    assert result["patterns"] == reference_patterns
    assert result["parametric_ok"] == (parametric == per_seed_expected_parametric(*box))


FAMILY_MAPS = {
    ((1, 1), (1, 1), (-1, 1)),  # (zeta, zeta, -zeta)
    ((1, -1), (1, -1), (-1, -1)),  # (1/zeta, 1/zeta, -1/zeta)
    ((1, 1), (1, -1), (1, 0)),  # (zeta, 1/zeta, 1)
    ((1, -1), (1, 1), (1, 0)),  # (1/zeta, zeta, 1)
}


def evaluate_map(phi, zeta):
    coords = [zeta ** e for _, e in phi]
    return SolutionTriple(*(c.negated() if s < 0 else c for c, (s, _) in zip(coords, phi)))


def test_family_orbit_is_four_signed_monomial_maps():
    maps = solver._family_maps()
    assert len(maps) == 4 and set(maps) == FAMILY_MAPS
    for n in range(1, 25):
        for k in primitive(n):
            zeta = r(k, n)
            seed = SolutionTriple(zeta, zeta, zeta.negated())
            assert {evaluate_map(phi, zeta) for phi in maps} == hand_orbit(seed), seed


def test_closed_form_parametric_test_matches_orbit_walk():
    """Every triple of the box, solutions of g or not."""
    for t in small_box_triples(7):
        assert is_parametric(t) == per_solution_is_parametric(t), t
