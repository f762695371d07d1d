"""Root-of-unity solutions of the trivariate Laurent equation coupling two
Frobenius-eigenvalue quadratics.

The 14-term Laurent polynomial g(z1, z2, z3) vanishes at (eta1, eta2, eta3)
whenever two eigenvalues with defining roots of unity eta1, eta2 have ratio
eta3.  This module certifies g by an exact resultant computation, enumerates
the symmetry group G of g, reduces the candidate single-vanishing-subsum
expressions to orbit representatives, and finds all root-of-unity solutions
within given order bounds by exhaustive search: a vectorized floating filter
(sound with a wide error margin) followed by an exact decision on every
candidate.  From the filter's hits to the returned solutions the search runs
on integer arrays.  A candidate on the one-parameter family is a zero because
g vanishes identically on each family map, an identity checked once per
process; every other candidate is confirmed by a cyclotomic zero test.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cyclo import CycInt, cyclotomic_poly
from .intpoly import IntPoly
from .madanpal import build_record
from .roots import RootOfUnity

Term = tuple[int, tuple[int, int, int]]  # coefficient, exponents of z1, z2, z3


@dataclass(frozen=True)
class LaurentExpr:
    """Canonical multivariate Laurent polynomial in z1, z2, z3 over Z."""

    terms: tuple[tuple[tuple[int, int, int], int], ...]  # ((e1,e2,e3), coeff) sorted

    @staticmethod
    def make(terms) -> "LaurentExpr":
        acc: dict[tuple[int, int, int], int] = {}
        for coeff, expo in terms:
            expo = tuple(expo)
            acc[expo] = acc.get(expo, 0) + coeff
        items = tuple(sorted((e, c) for e, c in acc.items() if c))
        return LaurentExpr(items)

    @staticmethod
    def monomial(coeff: int, e1: int, e2: int, e3: int) -> "LaurentExpr":
        return LaurentExpr.make([(coeff, (e1, e2, e3))])

    def __add__(self, other):
        return LaurentExpr.make(
            [(c, e) for e, c in self.terms] + [(c, e) for e, c in other.terms]
        )

    def __neg__(self):
        return LaurentExpr.make([(-c, e) for e, c in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = []
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                out.append((c1 * c2, (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])))
        return LaurentExpr.make(out)

    def is_zero(self) -> bool:
        return not self.terms

    def key(self):
        """Total-order key: the sorted tuple of (e1, e2, e3, coeff)."""
        return tuple((*e, c) for e, c in self.terms)

    def substitute(self, images) -> "LaurentExpr":
        """Apply z_i -> images[i], each image a signed monomial (sign, exponents)."""
        out = []
        for e, c in self.terms:
            sign = 1
            expo = [0, 0, 0]
            for i in range(3):
                s_i, m_i = images[i]
                if e[i] % 2 and s_i < 0:
                    sign = -sign
                for j in range(3):
                    expo[j] += e[i] * m_i[j]
            out.append((sign * c, tuple(expo)))
        return LaurentExpr.make(out)

    def eval_at(self, t: "SolutionTriple") -> CycInt:
        """The value at t, its terms folded into one coefficient vector at the
        level n = lcm of the orders: a term with exponents e adds its
        coefficient at index e . ks mod n, with eta_j = e^(2 pi i k_j / n).
        A term is a plain monomial, with no sign -1 to place as a root the
        way a generator image has, so n needs no factor 2 and the reduction
        tables are those of the orders' own levels."""
        n = t.level()
        k1, k2, k3 = (r.num * (n // r.den) for r in (t.eta1, t.eta2, t.eta3))
        coeffs = [0] * n
        for (e1, e2, e3), c in self.terms:
            coeffs[(e1 * k1 + e2 * k2 + e3 * k3) % n] += c
        return CycInt(n, tuple(coeffs))

    def __repr__(self):
        bits = []
        for e, c in self.terms:
            bits.append(f"{c}*z^{e}")
        return f"LaurentExpr({' + '.join(bits) or '0'})"


# the three involutive generators of the invariance group of g, given by the
# images of (z1, z2, z3) as signed monomials (sign, exponent vector)
GENERATORS = (
    ((1, (-1, 0, 0)), (1, (0, -1, 0)), (1, (0, 0, -1))),  # invert all three
    ((1, (0, 1, 0)), (1, (1, 0, 0)), (1, (0, 0, 1))),     # swap z1 and z2
    ((1, (1, 0, 0)), (1, (0, -1, 0)), (-1, (1, 0, -1))),  # invert z2, z3 -> -z1/z3
)


# the 12 signed monomials whose sum, with U_TERM and U_INV_TERM twice each, is g
S_MONOMIALS: tuple[Term, ...] = (
    (1, (1, 0, 0)), (1, (-1, 0, 0)),
    (1, (0, 1, 0)), (1, (0, -1, 0)),
    (1, (0, 0, 1)), (1, (0, 0, -1)),
    (-1, (1, 0, -1)), (-1, (-1, 0, 1)),
    (-1, (0, 1, -1)), (-1, (0, -1, 1)),
    (1, (1, 1, -1)), (1, (-1, -1, 1)),
)
U_TERM: Term = (-1, (1, 1, -2))
U_INV_TERM: Term = (-1, (-1, -1, 2))


@lru_cache(maxsize=1)
def g_expr() -> LaurentExpr:
    """The 14-term equation whose root-of-unity zeros classify eigenvalue ratios."""
    return LaurentExpr.make([*S_MONOMIALS, U_TERM, U_TERM, U_INV_TERM, U_INV_TERM])


def apply_symmetry(k: int, obj):
    """Apply the k-th generator (0, 1, 2) to a LaurentExpr or a SolutionTriple."""
    images = GENERATORS[k]
    if isinstance(obj, LaurentExpr):
        return obj.substitute(images)
    if isinstance(obj, SolutionTriple):
        m, ks = _exponents(obj)
        return SolutionTriple(*(RootOfUnity.make(e, m) for e in _image(images, m, ks)))
    raise TypeError(f"cannot apply symmetry to {type(obj)!r}")


def _image(images, m, ks) -> tuple:
    """The signed-monomial map z_j -> images[j], written as GENERATORS are, on
    the point (e^(2 pi i k_j / m))_j, m even, as exponents over m: a sign -1
    is e^(2 pi i (m/2) / m).  On integer arrays m and ks = (k1, k2, k3) it
    acts on every point at once."""
    return tuple(sum((e * x for e, x in zip(expo, ks) if e), m // 2 if sign < 0 else 0) % m
                 for sign, expo in images)


def _monomials(phi) -> tuple:
    """The family map phi = ((s_j, e_j))_j as the signed-monomial map
    z_j -> s_j z1^(e_j), written as GENERATORS are."""
    return tuple((s, (e, 0, 0)) for s, e in phi)


def candidate_h_set() -> list[LaurentExpr]:
    """Candidate single-vanishing expressions h.

    Form (a): mu + 1 and mu - 1 for each mu among the 12 signed monomials, u,
    and u^-1 (28 expressions).  Form (b): u + u^-1 + sum of an inversion-stable
    subset T of the 12 with at most 6 elements (42 expressions).
    """
    out = []
    special = list(S_MONOMIALS) + [U_TERM, U_INV_TERM]
    for coeff, expo in special:
        mono = LaurentExpr.monomial(coeff, *expo)
        out.append(mono + LaurentExpr.monomial(1, 0, 0, 0))
        out.append(mono + LaurentExpr.monomial(-1, 0, 0, 0))
    # inversion pairs of the 12-element set
    def invert(term: Term) -> Term:
        c, e = term
        return (c, (-e[0], -e[1], -e[2]))

    pairs = []
    used = set()
    for t in S_MONOMIALS:
        if t in used:
            continue
        ti = invert(t)
        if ti not in S_MONOMIALS or ti == t:
            raise ArithmeticError(f"{t} has no distinct inverse in the monomial set")
        used.add(t)
        used.add(ti)
        pairs.append((t, ti))
    if len(pairs) != 6:
        raise ArithmeticError(f"{len(pairs)} inversion pairs, expected 6")
    ucore = LaurentExpr.make([U_TERM, U_INV_TERM])
    for k in range(0, 4):
        for chosen in itertools.combinations(pairs, k):
            expr = ucore
            for t, ti in chosen:
                expr = expr + LaurentExpr.make([t, ti])
            out.append(expr)
    if len(out) != 70:
        raise ArithmeticError(f"{len(out)} subsum expressions, expected 70")
    return out


def orbit_representatives() -> list[LaurentExpr]:
    """Connected-component representatives of the candidate set under the three
    generators, with an extra edge from h to g - h whenever both are candidates."""
    cands = candidate_h_set()
    by_key = {h.key(): h for h in cands}
    g = g_expr()
    parent: dict = {k: k for k in by_key}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for k, h in by_key.items():
        for i in range(3):
            img = apply_symmetry(i, h)
            ik = img.key()
            if ik not in by_key:
                raise ArithmeticError("generator image left the candidate set")
            union(k, ik)
        gk = (g - h).key()
        if gk in by_key:
            union(k, gk)
    comps: dict = {}
    for k in by_key:
        comps.setdefault(find(k), []).append(k)
    return [by_key[min(ks)] for ks in sorted(comps.values(), key=min)]


# -- solutions ---------------------------------------------------------------


@dataclass(frozen=True, order=True)
class SolutionTriple:
    eta1: RootOfUnity
    eta2: RootOfUnity
    eta3: RootOfUnity

    def orders(self) -> tuple[int, int, int]:
        return (self.eta1.order, self.eta2.order, self.eta3.order)

    def level(self) -> int:
        return math.lcm(*self.orders())


def _exponents(t: SolutionTriple) -> tuple[int, tuple[int, int, int]]:
    """(m, (k1, k2, k3)) with eta_j = e^(2 pi i k_j / m) and m = lcm(2, orders),
    so that every image of t under the generators has exponents over m too."""
    m = math.lcm(2, *t.orders())
    return m, tuple(r.num * (m // r.den) for r in (t.eta1, t.eta2, t.eta3))


def _exponent_vectors(orders: np.ndarray, nums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, ks): the points with (N, 3) orders and numerators as exponent
    vectors over m = lcm(2, orders), in the array form of _exponents."""
    m = np.lcm(np.lcm.reduce(orders, axis=1), 2)
    return m, nums * (m[:, None] // orders)


def _root_keys(m: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """(order, numerator) of each coordinate of the points (m, ks), 0 <= k_j
    < m, as (N, 6) rows (d1, n1, d2, n2, d3, n3): the fields of the reduced
    roots, so also the sort key of the triples."""
    g = np.gcd(ks, m[:, None])
    return np.stack([m[:, None] // g, ks // g], axis=2).reshape(-1, 6)


def _lex_groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, first): the permutation that sorts the rows of an (N, w)
    integer array lexicographically, and whether each sorted row differs
    from the one before it."""
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return order, first


def _sorted_distinct(rows: np.ndarray) -> np.ndarray:
    """The indices of the distinct rows of an (N, w) integer array, in
    ascending lexicographic order of the rows."""
    order, first = _lex_groups(rows)
    return order[first]


def _from_keys(keys: np.ndarray) -> list[SolutionTriple]:
    """The triples of the (N, 6) root key rows, in their order; equal roots
    are one object."""
    pairs = keys.reshape(-1, 2)
    order, first = _lex_groups(pairs)
    roots = [RootOfUnity(d, n) for d, n in pairs[order[first]].tolist()]
    index = np.empty(len(order), dtype=np.int64)
    index[order] = np.cumsum(first) - 1
    return [SolutionTriple(roots[i], roots[j], roots[k]) for i, j, k in index.reshape(-1, 3).tolist()]


@dataclass(frozen=True, order=True)
class SolutionPattern:
    order1: int
    order2: int
    orders3: tuple[int, ...]
    kind: str  # "parametric" or "sporadic"


def eval_g(t: SolutionTriple) -> CycInt:
    return g_expr().eval_at(t)


def is_solution(t: SolutionTriple) -> bool:
    return eval_g(t).is_zero()


@lru_cache(maxsize=1024)
def _primitive_residues(n: int) -> tuple[int, ...]:
    return tuple(k for k in range(n) if math.gcd(k, n) == 1) if n > 1 else (0,)


@lru_cache(maxsize=16)
def _residue_table(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat, start, phi) for the orders n <= n_max, as read-only arrays:
    flat[start[n] : start[n] + phi[n]] is _primitive_residues(n)."""
    orders = range(1, n_max + 1)
    flat = np.fromiter(itertools.chain.from_iterable(map(_primitive_residues, orders)), dtype=np.int64)
    phi = np.array([0, *(len(_primitive_residues(n)) for n in orders)])
    out = flat, np.cumsum(phi) - phi, phi
    for a in out:
        a.flags.writeable = False
    return out


@lru_cache(maxsize=1024)
def _unit_roots(n: int) -> np.ndarray:
    """exp(2 pi i k / n) for the primitive residues k of n, in their order."""
    roots = np.exp(2j * np.pi * np.asarray(_primitive_residues(n), dtype=float) / n)
    roots.flags.writeable = False
    return roots


# The float prefilter keeps a grid point when |g| < PREFILTER_TOLERANCE, and
# every point it keeps is confirmed by is_solution, so it only has to be
# one-sided: a true zero must never be dropped.  On the unit torus the 14
# terms of g pair off into complex conjugates, so with x, y, z = eta1, eta2,
# eta3 and w = 1/z = conj(z),
#     g/2 = Re[(x + y)(1 - w) + xy(w - 2 w^2) + z],
# which the prefilter evaluates as a 5-term real dot product of the rows
# (Re P, -Im P, Re Q, -Im Q, 1), P = x + y, Q = xy, with the columns
# (Re A, Im A, Re B, Im B, Re z), A = 1 - w, B = w - 2 w^2.
# Error bound, with u = 2^-53: the argument 2 pi k / n is rounded three
# times and exp adds about an ulp, so each unit root is within d = 32u of
# the true one.  Then |dP| <= 2d + 4u, |dQ| <= 2d + 3u, |dA| <= d + 4u,
# |dB| <= 5d + 12u, and with |P|, |A| <= 2, |Q| = 1, |B| <= 3 the inputs
# move g/2 by at most 18d + 37u.  The dot product's absolute terms sum to at
# most |P||A| + |Q||B| + 1 <= 8, so its 5-term rounding adds at most 40u,
# in any order of summation, so however the grid is cut into blocks.
# Hence |float g - g| <= 2 (18d + 77u) < 1.5e-13 = PREFILTER_ERROR_BOUND,
# and a true zero reads five orders of magnitude below the tolerance.
# Measured over every order triple of (46, 46, 244): |g| is at most 9.2e-15
# at a zero and at least 1.0e-6 at a non-zero, so the tolerance keeps no
# false candidate there either.
PREFILTER_TOLERANCE = 1e-8
PREFILTER_ERROR_BOUND = 2 * (18 * 32 + 77) * 2.0 ** -53
# The rows of every order pair that shares one set of eta3 orders are stacked
# into one grid, filtered in chunks of at most PREFILTER_ROWS rows, and each
# chunk in slices of eta3 columns of at most PREFILTER_BLOCK points (128 KB of
# float64, so a block and its mask stay in cache).
PREFILTER_ROWS = 1 << 10
PREFILTER_BLOCK = 1 << 14
_NO_HITS = np.empty(0, dtype=np.int64)
_NO_HITS.flags.writeable = False


@lru_cache(maxsize=1024)
def _eta3_columns(c: int) -> np.ndarray:
    """The (5, phi(c)) prefilter columns of the primitive c-th roots z."""
    z = _unit_roots(c)
    w = z.conj()
    big_a = 1 - w
    big_b = w - 2 * w * w
    cols = np.stack([big_a.real, big_a.imag, big_b.real, big_b.imag, z.real])
    cols.flags.writeable = False
    return cols


@lru_cache(maxsize=1024)
def _order_pair_rows(a: int, b: int) -> np.ndarray:
    """Prefilter rows for eta1 of order a in the lower half of its inversion
    orbit against eta2 of order b, row-major over the first
    (phi(a) + 1) // 2 primitive residues k1 of a, those with 2 k1 <= a (the
    count _grid_ends states), and the primitive residues of b."""
    # conj(x) + conj(y) and conj(x) conj(y) are conj(P) and conj(Q) exactly,
    # and a complex array viewed as floats is (Re, Im) pairs, so conj gives (Re, -Im)
    x = _unit_roots(a)
    x = x[: (len(x) + 1) // 2, None].conj()
    y = _unit_roots(b).conj()
    rows = np.empty((len(x), len(y), 5))
    rows[:, :, 0:2] = (x + y)[..., None].view(float)
    rows[:, :, 2:4] = (x * y)[..., None].view(float)
    rows[:, :, 4] = 1
    rows = rows.reshape(-1, 5)
    rows.flags.writeable = False
    return rows


def _grid_ends(pairs, cs) -> tuple[np.ndarray, np.ndarray]:
    """(row_ends, col_ends): the end offset of each order pair's rows and of
    each eta3 order's columns in the grid of the stacked _order_pair_rows of
    the pairs against the concatenated _eta3_columns of the orders cs.  The
    lower half of the primitive residues of a has (phi(a) + 1) // 2 members
    for every a >= 1 (phi(1) = phi(2) = 1), so both are cumulative sums
    over the phi column of _residue_table."""
    pairs, cs = np.asarray(pairs, dtype=np.int64), np.asarray(cs, dtype=np.int64)
    phi = _residue_table(int(max(pairs.max(), cs.max())))[2]
    a, b = pairs.T
    return np.cumsum((phi[a] + 1) // 2 * phi[b]), np.cumsum(phi[cs])


def _prefilter_blocks(pairs, cs):
    """Yield (top, left, half_g): the float g/2 on the grid of the stacked
    rows of the order pairs against the concatenated columns of the eta3
    orders cs, block by block, with the offsets of the block in the grid.
    The rows are stacked once per task, so a chunk of rows is a slice of
    them and may start or end inside one pair's rows."""
    rows = np.concatenate([_order_pair_rows(a, b) for a, b in pairs])
    cols = np.concatenate([_eta3_columns(c) for c in cs], axis=1)
    height = min(PREFILTER_ROWS, len(rows))
    width = max(1, PREFILTER_BLOCK // height)
    for top in range(0, len(rows), height):
        chunk = rows[top : top + height]
        for left in range(0, cols.shape[1], width):
            yield top, left, chunk @ cols[:, left : left + width]


def _task_hits(task) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols): the grid offsets (_prefilter_blocks) of every point of
    the task's grid that the float prefilter keeps."""
    rows, cols = [], []
    for top, left, half_g in _prefilter_blocks(*task):
        flat = (np.abs(half_g, out=half_g) < PREFILTER_TOLERANCE / 2).ravel().nonzero()[0]
        if len(flat):
            row, col = np.divmod(flat, half_g.shape[1])
            rows.append(row + top)
            cols.append(col + left)
    if not rows:
        return _NO_HITS, _NO_HITS
    return np.concatenate(rows), np.concatenate(cols)


def _candidates(tasks, workers: int) -> np.ndarray:
    """(a, b, c, k1, k2, k3) of every prefilter hit of the tasks, one int64
    row each: eta1, eta2, eta3 = e^(2 pi i k1 / a), e^(2 pi i k2 / b),
    e^(2 pi i k3 / c).  The grids of the tasks are laid end to end, rows
    after rows and columns after columns, so one _grid_ends call lays out
    the whole search, and one bisection over every order pair and one over
    every eta3 order decode all hits.  workers > 1 maps _task_hits over a
    pool of at most min(workers, len(tasks), os.cpu_count()) processes."""
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing as mp

        with mp.Pool(workers) as pool:
            hits = pool.map(_task_hits, tasks)
    else:
        hits = [_task_hits(t) for t in tasks]
    pairs = np.array([pair for ps, _ in tasks for pair in ps])
    cs = np.array([c for _, task_cs in tasks for c in task_cs])
    row_ends, col_ends = _grid_ends(pairs, cs)
    flat, start, phi = _residue_table(int(max(pairs.max(), cs.max())))
    row_starts = np.concatenate([[0], row_ends[:-1]])
    col_starts = np.concatenate([[0], col_ends[:-1]])
    # the first order pair and the first eta3 order of each task
    first_pair = np.cumsum([0] + [len(ps) for ps, _ in tasks[:-1]])
    first_c = np.cumsum([0] + [len(task_cs) for _, task_cs in tasks[:-1]])
    counts = [len(rows) for rows, _ in hits]
    row = np.concatenate([rows for rows, _ in hits]) + np.repeat(row_starts[first_pair], counts)
    col = np.concatenate([cols for _, cols in hits]) + np.repeat(col_starts[first_c], counts)
    i = np.searchsorted(row_ends, row, side="right")
    a, b = pairs[i].T
    i1, i2 = np.divmod(row - row_starts[i], phi[b])
    j = np.searchsorted(col_ends, col, side="right")
    c = cs[j]
    k1, k2, k3 = flat[start[a] + i1], flat[start[b] + i2], flat[start[c] + col - col_starts[j]]
    return np.stack([a, b, c, k1, k2, k3], axis=1)


@lru_cache(maxsize=1)
def _family_certificate() -> None:
    """Check that g vanishes identically on each of the _family_maps: with
    z_j -> s_j z1^(e_j) substituted, g is the zero Laurent polynomial.  So g
    is zero at every phi(zeta), and a point that _on_family finds on the
    family needs no test of its own.  Raises ArithmeticError otherwise."""
    g = g_expr()
    for phi in _family_maps():
        if not g.substitute(_monomials(phi)).is_zero():
            raise ArithmeticError(f"g does not vanish identically on the family map {phi}")


def _confirmed(candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, ks, family) of the candidates that are zeros of g, as exponent
    vectors over m = lcm(2, a, b, c) with their _on_family verdicts.

    Every candidate is decided exactly.  One on the family is a zero because
    g vanishes identically on each family map (_family_certificate, checked
    once per process); every other one is a zero iff is_solution says so."""
    m, ks = _exponent_vectors(candidates[:, :3], candidates[:, 3:])
    _family_certificate()
    family = _on_family(m, *ks.T)
    zero = family.copy()
    zero[~family] = [
        is_solution(SolutionTriple(RootOfUnity(a, k1), RootOfUnity(b, k2), RootOfUnity(c, k3)))
        for a, b, c, k1, k2, k3 in candidates[~family].tolist()
    ]
    return m[zero], ks[zero], family[zero]


def _order_pair_tasks(
    max_order_12: int, max_order_3: int, max_level: int
) -> list[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]]:
    """(pairs, cs) for every set cs of eta3 orders that some order pair
    a <= b <= max_order_12 admits, with pairs every such (a, b): cs is every
    c <= max_order_3 with lcm(a, b, c) <= max_level.  The cs depend on
    lcm(a, b) only, so each is computed once per lcm; a pair with
    lcm(a, b) > max_level admits no c, since lcm(a, b, c) >= lcm(a, b), and
    is dropped before any set is computed for it."""
    orders3 = np.arange(1, max_order_3 + 1)
    by_lcm: dict[int, tuple[int, ...]] = {}
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for a in range(1, max_order_12 + 1):
        for b in range(a, max_order_12 + 1):
            lab = math.lcm(a, b)
            if lab > max_level:
                continue
            cs = by_lcm.get(lab)
            if cs is None:
                cs = by_lcm[lab] = tuple(orders3[np.lcm(lab, orders3) <= max_level].tolist())
            if cs:
                groups.setdefault(cs, []).append((a, b))
    return [(tuple(pairs), cs) for cs, pairs in groups.items()]


def _solutions(max_order_12: int, max_order_3: int, max_level: int, workers: int) -> tuple[np.ndarray, np.ndarray]:
    """The root keys of every solution inside the bounds, distinct and in
    ascending order, with the parametric verdict of each.

    The confirmed zeros come with their inversion and swap images: their
    orbit under those two commuting involutions.  Inversion and swap only
    permute the orders, and both order bounds on eta1, eta2 are
    max_order_12, so every image is inside the bounds.  The family is the
    symmetry orbit of (zeta, zeta, -zeta), a union of orbits of the whole
    group, so every image gets the verdict of its zero."""
    if min(max_order_12, max_order_3, max_level) < 1:
        raise ValueError("bounds must be positive")
    tasks = _order_pair_tasks(max_order_12, max_order_3, max_level)
    m, ks, family = _confirmed(_candidates(tasks, workers))
    point = tuple(ks.T)
    swapped = _image(GENERATORS[1], m, point)
    images = (point, _image(GENERATORS[0], m, point), swapped, _image(GENERATORS[0], m, swapped))
    keys = _root_keys(np.tile(m, 4), np.concatenate([np.stack(img, axis=1) for img in images]))
    distinct = _sorted_distinct(keys)
    return keys[distinct], np.tile(family, 4)[distinct]


def solve_bounded(
    max_order_12: int,
    max_order_3: int,
    max_level: int,
    workers: int = 1,
) -> list[SolutionTriple]:
    """All solutions with order(eta1), order(eta2) <= max_order_12,
    order(eta3) <= max_order_3, and lcm of the three orders <= max_level.

    The search is complete within these bounds.  It covers every order
    triple with order(eta1) <= order(eta2), eta1 in the lower half of its
    inversion orbit, and then re-expands by the inversion and swap
    symmetries.  Each set of eta3 orders, which depends on lcm(a, b) only, is
    one task: a float prefilter over the stacked rows of every order pair
    (a, b) that admits that set against the columns of all its eta3 orders.
    From the prefilter's hits to the returned list the search runs on
    integer arrays: the hits of all tasks are one (N, 6) array of orders and
    numerators, each is decided exactly (on the family by the identity
    g o phi = 0 for the family maps phi, checked once per process, every
    other one by is_solution), and the zeros and their images are exponent
    vectors over m = lcm(2, orders) and then root keys, sorted and made
    distinct by one sort.  Each distinct key becomes a SolutionTriple once,
    in sorted order.  workers > 1 runs the float grids of the tasks in a
    process pool.
    """
    keys, _ = _solutions(max_order_12, max_order_3, max_level, workers)
    return _from_keys(keys)


# -- classification ------------------------------------------------------------


@lru_cache(maxsize=1)
def _family_maps() -> tuple[tuple[tuple[int, int], tuple[int, int], tuple[int, int]], ...]:
    """The symmetry orbit of the generic family point (zeta, zeta, -zeta), as
    signed monomial maps zeta -> (s_j zeta^(e_j))_j written ((s_j, e_j))_j.

    A generator substitutes signed monomials into the coordinates, and that
    commutes with specialising zeta, so the orbit of (zeta, zeta, -zeta) for
    any root of unity zeta is {phi(zeta)} over these maps.  They are
    (zeta, zeta, -zeta), (1/zeta, 1/zeta, -1/zeta), (zeta, 1/zeta, 1) and
    (1/zeta, zeta, 1)."""
    seen = [((1, 1), (1, 1), (-1, 1))]
    for phi in seen:  # grows while it is walked: a breadth-first orbit walk
        for gen in GENERATORS:
            # gen o phi: each coordinate of gen with phi substituted is one signed monomial in zeta
            terms = [LaurentExpr.make([image]).substitute(_monomials(phi)).terms[0] for image in gen]
            img = tuple((c, e[0]) for e, c in terms)
            if img not in seen:
                seen.append(img)
    if not all(abs(phi[0][1]) == 1 for phi in seen):
        raise ArithmeticError("a family map whose first coordinate does not determine zeta")
    return tuple(seen)


def _on_family(m, k1, k2, k3):
    """is_parametric of the point (m, (k1, k2, k3)), m even; on integer
    arrays m, k1, k2, k3, a boolean array with the verdict of every point."""
    out = False
    for phi in _family_maps():
        images = _monomials(phi)
        # the point is phi(zeta) iff it is the image of z, the exponent of
        # zeta over m.  The first coordinate zeta -> s_1 zeta^(e_1) has
        # e_1 = +-1, so it is an involution: it maps k1 back to z, and holds
        (z,) = _image(images[:1], m, (k1, 0, 0))
        k2_phi, k3_phi = _image(images[1:], m, (z, 0, 0))
        out = out | ((k2 == k2_phi) & (k3 == k3_phi))
    return out


def is_parametric(t: SolutionTriple) -> bool:
    """True iff t lies in the symmetry orbit of some (zeta, zeta, -zeta).

    That orbit is {phi(zeta)} over the four _family_maps, because the
    generators act by signed monomial substitution, which commutes with
    specialising zeta.  So t is parametric iff t = phi(zeta) for some map
    phi and root of unity zeta: the first coordinate has exponent +-1 and
    fixes zeta over m = lcm(2, orders), and the other two must then agree
    mod m."""
    m, ks = _exponents(t)
    return _on_family(m, *ks)


def _patterns(orders: np.ndarray, family: np.ndarray) -> list[SolutionPattern]:
    """The patterns of solutions with (N, 3) orders and parametric verdicts:
    one row (kind, order1, order2, order3) per solution, order1 <= order2,
    made distinct and sorted, grouped by its first three."""
    low, high = np.minimum(orders[:, 0], orders[:, 1]), np.maximum(orders[:, 0], orders[:, 1])
    rows = np.stack([~family, low, high, orders[:, 2]], axis=1)
    rows = rows[_sorted_distinct(rows)].tolist()
    return [
        SolutionPattern(a, b, tuple(row[3] for row in group), "sporadic" if sporadic else "parametric")
        for (sporadic, a, b), group in itertools.groupby(rows, key=lambda row: tuple(row[:3]))
    ]


def classify_solutions(sols) -> list[SolutionPattern]:
    """Group solutions into parametric members and sporadic order patterns.

    Each solution's kind is its is_parametric verdict.  Order signatures are
    normalized by the swap symmetry only: order1 <= order2, with the full set
    of eta3 orders per (order1, order2).
    """
    keys = np.array([(r.den, r.num) for t in sols for r in (t.eta1, t.eta2, t.eta3)], dtype=np.int64).reshape(-1, 6)
    orders = keys[:, 0::2]
    m, ks = _exponent_vectors(orders, keys[:, 1::2])
    return _patterns(orders, _on_family(m, *ks.T))


# known sporadic order patterns: (order of eta1, order of eta2,
# possible orders of eta3), normalized by the swap symmetry
SPORADIC_ORDER_PATTERNS: tuple[SolutionPattern, ...] = (
    SolutionPattern(1, 2, (8,), "sporadic"),
    SolutionPattern(1, 4, (24,), "sporadic"),
    SolutionPattern(2, 2, (4,), "sporadic"),
    SolutionPattern(2, 4, (6, 12), "sporadic"),
    SolutionPattern(3, 30, (10, 15, 30), "sporadic"),
    SolutionPattern(4, 4, (3, 12), "sporadic"),
    SolutionPattern(6, 7, (21,), "sporadic"),
    SolutionPattern(7, 7, (7, 14), "sporadic"),
    SolutionPattern(30, 30, (5, 6, 10, 15, 30), "sporadic"),
)


def _family_keys(max_order_12: int, max_order_3: int, max_level: int) -> np.ndarray:
    """The root keys of expected_parametric, distinct and in ascending order.

    The orders of phi(zeta) depend only on the order n of zeta, so each map
    phi and order n is kept or dropped on the orders of phi(e^(2 pi i / n))
    before the points phi(zeta) of that order are built, over
    m = lcm(2, n), one per primitive residue of n."""
    flat, _, phi = _residue_table(2 * max(max_order_12, max_order_3))
    n = np.arange(len(phi))
    m = np.lcm(n, 2)  # lcm(2, orders) of every phi(zeta): its first coordinate is zeta^(+-1)
    per_residue = np.repeat(n, phi)
    keys = []
    for phi_map in _family_maps():
        images = _monomials(phi_map)
        d1, _, d2, _, d3, _ = _root_keys(m[1:], np.stack(_image(images, m[1:], (m[1:] // n[1:], 0, 0)), axis=1)).T
        inside = (np.maximum(d1, d2) <= max_order_12) & (d3 <= max_order_3) & (np.lcm(np.lcm(d1, d2), d3) <= max_level)
        kept = np.repeat(inside, phi[1:])
        m_kept = m[per_residue[kept]]
        z = flat[kept] * (m_kept // per_residue[kept])
        keys.append(_root_keys(m_kept, np.stack(_image(images, m_kept, (z, 0, 0)), axis=1)))
    keys = np.concatenate(keys)
    return keys[_sorted_distinct(keys)]


def expected_parametric(max_order_12: int, max_order_3: int, max_level: int) -> set[SolutionTriple]:
    """The symmetry orbit of the one-parameter family (zeta, zeta, -zeta)
    within bounds, for zeta of every order n <= 2 max(max_order_12, max_order_3).

    That orbit is {phi(zeta)} over the four _family_maps (the generators act
    by signed monomial substitution, which commutes with specialising zeta).
    The orders of phi(zeta) depend only on the order n of zeta, so each
    (n, phi) is kept or dropped by an integer bound test on zeta = e^(2 pi i / n)
    before any of its phi(n) triples is built."""
    return set(_from_keys(_family_keys(max_order_12, max_order_3, max_level)))


def verify_table2(
    max_order_12: int = 32, max_order_3: int = 32, max_level: int = 120, workers: int = 1
) -> dict:
    """Recompute the sporadic order patterns and the parametric locus within bounds.

    The solutions are those of solve_bounded, by the same search on integer
    arrays, and so is each parametric verdict: the exact confirmation tests
    every candidate with _on_family anyway, and every inversion/swap image
    of a zero gets the verdict of the zero, because the family is a union of
    orbits of the whole group.  The patterns are read off the sorted root
    keys by one more sort, and the family found is compared with
    expected_parametric as an array of root keys, one row per point.
    """
    keys, family = _solutions(max_order_12, max_order_3, max_level, workers)
    patterns = _patterns(keys[:, 0::2], family)
    sporadic = tuple(p for p in patterns if p.kind == "sporadic")
    ok_sporadic = sporadic == SPORADIC_ORDER_PATTERNS
    ok_parametric = np.array_equal(keys[family], _family_keys(max_order_12, max_order_3, max_level))
    return {
        "solutions": _from_keys(keys),
        "patterns": patterns,
        "sporadic_ok": ok_sporadic,
        "parametric_ok": ok_parametric,
        "ok": ok_sporadic and ok_parametric,
    }


# -- resultant certifications ----------------------------------------------------


def eigenvalue_resultant_identity(n: int) -> bool:
    """The eliminant of the eigenvalue quadratic against the n-th cyclotomic
    polynomial equals the Weil polynomial of the n-th family member up to sign.

    Res_y(Phi_n(y), x^2 + (y-1)x - 2y) is linear in y, so it expands to
    (-1)^d * sum_j c_j (x - x^2)^j (x - 2)^(d-j) with Phi_n = sum_j c_j y^j.
    """
    if n < 3:
        raise ValueError("need n >= 3 so that the family polynomial has degree phi(n)")
    phi_n = cyclotomic_poly(n)
    d = phi_n.degree()
    x_minus_2 = IntPoly([-2, 1])
    x_minus_x2 = IntPoly([0, 1, -1])
    acc = IntPoly()
    for j in range(d + 1):
        c = phi_n[j]
        if c:
            acc = acc + IntPoly([c]) * x_minus_x2 ** j * x_minus_2 ** (d - j)
    if d % 2:
        acc = -acc
    weil = build_record(n).weil
    return acc == weil or acc == -weil


def _sylvester_det_quadratics(a2, a1, a0, b2, b1, b0) -> LaurentExpr:
    """Determinant of the 4x4 Sylvester matrix of two quadratics with LaurentExpr entries."""
    # rows: [a2 a1 a0 0], [0 a2 a1 a0], [b2 b1 b0 0], [0 b2 b1 b0]
    # expand via the 2x2-block formula: det = (a2*b0 - a0*b2)^2 - (a2*b1 - a1*b2)*(a1*b0 - a0*b1)
    m = a2 * b0 - a0 * b2
    return m * m - (a2 * b1 - a1 * b2) * (a1 * b0 - a0 * b1)


def ratio_resultant_factor() -> tuple[int, tuple[int, int, int]] | None:
    """Unit factor (coefficient, monomial) with Res = factor * g, or None.

    The resultant eliminates the eigenvalue from its own quadratic and from the
    ratio-shifted quadratic of the second eigenvalue (alpha2 = alpha / z3).
    """
    one = LaurentExpr.monomial(1, 0, 0, 0)
    a2 = one
    a1 = LaurentExpr.monomial(1, 1, 0, 0) - one
    a0 = LaurentExpr.monomial(-2, 1, 0, 0)
    b2 = LaurentExpr.monomial(1, 0, 0, -2)
    b1 = (LaurentExpr.monomial(1, 0, -1, 0) - one) * LaurentExpr.monomial(1, 0, 0, -1)
    b0 = LaurentExpr.monomial(-2, 0, -1, 0)
    res = _sylvester_det_quadratics(a2, a1, a0, b2, b1, b0)
    g = g_expr()
    ge, gc = g.terms[0]
    for e, c in res.terms:
        if c % gc:
            continue
        factor = LaurentExpr.monomial(c // gc, e[0] - ge[0], e[1] - ge[1], e[2] - ge[2])
        if (g * factor).key() == res.key():
            (fe, fc), = factor.terms
            return fc, fe
    return None


def ratio_resultant_identity() -> bool:
    """True iff the eliminant recovers g up to a single monomial factor."""
    return ratio_resultant_factor() is not None
