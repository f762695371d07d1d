"""Pinned expectations and independent exact arithmetic for the benchmark's checks.

Nothing here imports orderone: the expected values are copied from the
paper's tables, and the arithmetic that confirms a relation sums to zero is a
separate small implementation, so a defect in the program cannot make its own
check pass.

A root of unity is a Fraction t in [0, 1), standing for e^(2 pi i t).
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

# -- decompose: the paper's case split and geometric isogeny pairs -----------


def expected_f(n: int) -> int:
    """Geometric multiplicity of every simple factor of the n-th class."""
    if n == 4:
        return 2
    if n >= 2 and n & (n - 1) == 0:
        return 1
    return {7: 3, 30: 4}.get(n, 2)


# unordered pairs {n1, n2}, n <= 30, with nonzero geometric homomorphisms;
# a one-element set is a class whose distinct simple factors are isogenous
GEOM_PAIRS = frozenset(
    frozenset(p) for p in ((1, 2), (1, 4), (2, 4), (3, 30), (6, 7), (7,), (30,))
)



# -- relations: the ten indecomposable classes of weight <= 8 -----------------

# entries (num, den, sign): sign * e^(2 pi i num/den)
WEIGHT8_CLASSES = (
    ((0, 1, 1), (0, 1, -1)),
    ((0, 1, 1), (1, 3, 1), (2, 3, 1)),
    ((0, 1, 1), (1, 5, 1), (2, 5, 1), (3, 5, 1), (4, 5, 1)),
    ((1, 5, 1), (2, 5, 1), (3, 5, 1), (4, 5, 1), (1, 3, -1), (2, 3, -1)),
    tuple((k, 7, 1) for k in range(7)),
    ((0, 1, 1), (2, 5, 1), (3, 5, 1),
     (8, 15, -1), (13, 15, -1), (2, 15, -1), (7, 15, -1)),
    ((0, 1, 1), (1, 5, 1), (4, 5, 1),
     (11, 15, -1), (1, 15, -1), (14, 15, -1), (4, 15, -1)),
    ((2, 5, 1), (3, 5, 1), (1, 3, -1), (2, 3, -1),
     (8, 15, -1), (13, 15, -1), (2, 15, -1), (7, 15, -1)),
    ((1, 5, 1), (4, 5, 1), (1, 3, -1), (2, 3, -1),
     (11, 15, -1), (1, 15, -1), (14, 15, -1), (4, 15, -1)),
    tuple((k, 7, 1) for k in range(1, 7)) + ((1, 3, -1), (2, 3, -1)),
)

HALF = Fraction(1, 2)


def class_values(entries) -> list[Fraction]:
    """Values of a signed class as roots of unity (a sign -1 adds a half turn)."""
    return [(Fraction(num, den) + (HALF if sign < 0 else 0)) % 1 for num, den, sign in entries]


def expected_class_count(max_weight: int) -> int:
    return sum(1 for c in WEIGHT8_CLASSES if len(c) <= max_weight)


# -- exact sums of roots of unity ----------------------------------------------

_CYCLOTOMIC: dict[int, list[int]] = {}
_POWER_ROWS: dict[int, np.ndarray] = {}


def _cyclotomic(n: int) -> list[int]:
    """Ascending integer coefficients of Phi_n, by dividing x^n - 1 by Phi_d, d | n."""
    if n not in _CYCLOTOMIC:
        poly = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                poly = _exact_div(poly, _cyclotomic(d))
        _CYCLOTOMIC[n] = poly
    return _CYCLOTOMIC[n]


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    """Quotient of integer polynomials by a monic divisor; the remainder must vanish."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        quot[k - dd] = c
        if c:
            for j in range(dd + 1):
                num[k - dd + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("inexact cyclotomic division")
    return quot


def _power_rows(level: int) -> np.ndarray:
    """Row e: coordinates of x^e mod Phi_level on 1, x, .., x^(phi-1)."""
    if level not in _POWER_ROWS:
        phi_poly = _cyclotomic(level)
        phi = len(phi_poly) - 1
        rows = np.zeros((level, phi), dtype=object)
        cur = [1] + [0] * (phi - 1)
        for e in range(level):
            rows[e] = cur
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [c - top * p for c, p in zip(cur, phi_poly)]
        _POWER_ROWS[level] = rows
    return _POWER_ROWS[level]


def _level(values) -> int:
    return math.lcm(*(v.denominator for v in values)) if values else 1


def reduced_sum(values) -> list[int]:
    """Power-basis coordinates of the sum of the given roots of unity."""
    level = _level(values)
    rows = _power_rows(level)
    acc = np.zeros(rows.shape[1], dtype=object)
    for v in values:
        acc = acc + rows[int(v * level) % level]
    return [int(c) for c in acc]


def sums_to_zero(values) -> bool:
    return not any(reduced_sum(values))


def sums_to_even(values) -> bool:
    """The sum lies in 2 Z[zeta]; the power basis is an integral basis."""
    return all(c % 2 == 0 for c in reduced_sum(values))


def is_indecomposable_exact(values) -> bool:
    """Zero sum, and no proper nonempty sub-multiset sums to zero.

    Subset sums are enumerated in complex floating point; any subset whose
    float sum is within 1e-6 of zero is confirmed or rejected exactly, so
    rounding can only cost time, never the answer.
    """
    if not values or not sums_to_zero(values):
        return False
    w = len(values)
    points = np.array([cmath.exp(2j * math.pi * float(v)) for v in values])
    sums = np.zeros(1, dtype=complex)
    for z in points:
        sums = np.concatenate([sums, sums + z])
    full = (1 << w) - 1
    for mask in np.nonzero(np.abs(sums) < 1e-6)[0]:
        mask = int(mask)
        if mask in (0, full):
            continue
        if sums_to_zero([v for i, v in enumerate(values) if mask >> i & 1]):
            return False
    return True


def is_indecomposable_mod2(values) -> bool:
    """Even sum, and no proper nonempty sub-multiset has even sum.

    The parity vectors of the entries span a space of dimension w - 1 exactly
    when the only even subsets are the empty one and the whole multiset.
    """
    if not values or not sums_to_even(values):
        return False
    level = _level(values)
    rows = _power_rows(level)
    basis: list[int] = []
    for v in values:
        bits = 0
        for i, c in enumerate(rows[int(v * level) % level]):
            if c % 2:
                bits |= 1 << i
        for b in basis:
            bits = min(bits, bits ^ b)
        if bits:
            basis.append(bits)
    return len(basis) == len(values) - 1


def conjugate(values) -> list[Fraction]:
    return [(-v) % 1 for v in values]


# -- search: the equation g and the sporadic order patterns -------------------

# (order of eta1, order of eta2, orders of eta3), normalized by the swap symmetry
SPORADIC_PATTERNS = (
    (1, 2, (8,)),
    (1, 4, (24,)),
    (2, 2, (4,)),
    (2, 4, (6, 12)),
    (3, 30, (10, 15, 30)),
    (4, 4, (3, 12)),
    (6, 7, (21,)),
    (7, 7, (7, 14)),
    (30, 30, (5, 6, 10, 15, 30)),
)
TABLE2_BOX = (32, 32, 120)


def g_value(t1: complex, t2: complex, t3: complex) -> complex:
    """The 14-term Laurent polynomial g at a point."""
    return (
        t1 + 1 / t1 + t2 + 1 / t2 + t3 + 1 / t3
        - t1 / t3 - t3 / t1 - t2 / t3 - t3 / t2
        + t1 * t2 / t3 + t3 / (t1 * t2)
        - 2 * t1 * t2 / t3 ** 2 - 2 * t3 ** 2 / (t1 * t2)
    )


def g_vanishes(k1: int, n1: int, k2: int, n2: int, k3: int, n3: int) -> bool:
    """|g| at the roots of unity is below 1e-9.

    A true zero reads near 1e-14, since g has 14 unit-size terms, so a real
    solution always passes; this is a floating-point cross-check of the
    solver's exact confirmation, not an exact test of its own.
    """
    pts = [cmath.exp(2j * math.pi * k / n) for k, n in ((k1, n1), (k2, n2), (k3, n3))]
    return abs(g_value(*pts)) < 1e-9


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def order_triples(max_order_12: int, max_order_3: int, max_level: int) -> int:
    """Size of a search box: order triples a <= b <= max_order_12, c <= max_order_3,
    lcm(a, b, c) <= max_level."""
    count = 0
    for a in range(1, max_order_12 + 1):
        for b in range(a, max_order_12 + 1):
            lab = math.lcm(a, b)
            if lab > max_level:
                continue
            count += sum(1 for c in range(1, max_order_3 + 1) if math.lcm(lab, c) <= max_level)
    return count
