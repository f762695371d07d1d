"""The Madan-Pal family of order-1 isogeny classes over F_2.

P_n(x) = prod over 0 <= k <= n/2 with gcd(n, k) = 1 of
         (x^2 - (4 + 2*cos(2*pi*k/n))*x + 1),
an integer polynomial of degree max(2, phi(n)).  The abelian variety A_n has
real Weil polynomial P_n(3 - x) (monic-normalized) and Weil polynomial of
order 1.  P_n is reducible exactly for n in {2, 7, 30}; the known factors are
pinned below and verified by exact multiplication.

P_n is built from the minimal polynomial of 2*cos(2*pi/n), read off Phi_n.
The test suite checks it against an independent resultant construction.

The family lives over F_2 only (weil.F2): the shift 3 is q + 1 for q = 2, and
over any other field these polynomials do not give order 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import euler_phi, is_power_of_two
from .cyclo import cyclotomic_poly
from .intpoly import IntPoly, dehomogenize, homogenize
from .weil import (
    F2,
    NewtonPolygon,
    newton_polygon,
    real_to_weil,
)

# printed irreducible factors of the three reducible P_n
KNOWN_FACTORS = {
    2: (IntPoly([-1, 1]), IntPoly([-1, 1])),
    7: (IntPoly([-1, 6, -5, 1]), IntPoly([-1, 5, -6, 1])),
    30: (IntPoly([1, -7, 14, -8, 1]), IntPoly([1, -8, 14, -7, 1])),
}


@lru_cache(maxsize=None)
def madan_pal_poly(n: int) -> IntPoly:
    """P_n, computed exactly through the minimal polynomial of 2*cos(2*pi/n).

    Phi_n(x) = x^(phi(n)/2) * psi_n(x + 1/x) for n >= 3, that is
    homogenize(psi_n, x^2 + 1), and then P_n(x) = x^d * psi_n(x + 1/x - 4)
    = homogenize(psi_n, x^2 - 4x + 1).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return IntPoly([1, -6, 1])
    if n == 2:
        return IntPoly([1, -2, 1])
    psi = dehomogenize(cyclotomic_poly(n), IntPoly([1, 0, 1]))
    return homogenize(psi, IntPoly([1, -4, 1]))


def simple_factor_list(n: int) -> list[IntPoly]:
    """Irreducible factors of P_n (the known split lists for n in {2, 7, 30})."""
    p = madan_pal_poly(n)
    if n in KNOWN_FACTORS:
        fs = KNOWN_FACTORS[n]
        if math.prod(fs, start=IntPoly([1])) != p:
            raise ArithmeticError(f"pinned factor list for n={n} fails the product check")
        return list(fs)
    return [p]


def _real_weil_factor(factor: IntPoly) -> IntPoly:
    """Monic normalization of factor(3 - x)."""
    shifted = factor.compose(IntPoly([3, -1]))
    return shifted.monic_normalized()


@dataclass(frozen=True)
class MadanPalRecord:
    n: int
    p_n: IntPoly
    real_weil: IntPoly
    weil: IntPoly
    simple_factors: tuple[IntPoly, ...]
    newton: NewtonPolygon
    ordinary: bool


@lru_cache(maxsize=None)
def build_record(n: int) -> MadanPalRecord:
    p = madan_pal_poly(n)
    real_weil = _real_weil_factor(p)
    weil = real_to_weil(real_weil, F2)
    factors = tuple(real_weil if f == p else _real_weil_factor(f) for f in simple_factor_list(n))
    if math.prod(factors, start=IntPoly([1])) != real_weil:
        raise ArithmeticError(f"n={n}: factor transform does not multiply back")
    if p.degree() != max(2, euler_phi(n)):
        raise ArithmeticError(f"n={n}: P_n has degree {p.degree()}")
    if weil.eval(1) != 1:
        raise ArithmeticError(f"n={n}: order is not 1")
    newton = newton_polygon(weil, F2)
    return MadanPalRecord(
        n=n,
        p_n=p,
        real_weil=real_weil,
        weil=weil,
        simple_factors=factors,
        newton=newton,
        ordinary=newton.is_ordinary(),
    )


def pn_at_one_check(m: int) -> bool:
    """For n = 2^m with m >= 2: P_n(1) = (-1)^(n/4) * 2."""
    if m < 2:
        raise ValueError("need m >= 2")
    n = 2 ** m
    return madan_pal_poly(n).eval(1) == (-1) ** (n // 4) * 2


def is_eisenstein_at(f: IntPoly, p: int) -> bool:
    return (
        f.is_monic()
        and all(f[i] % p == 0 for i in range(f.degree()))
        and f[0] % (p * p) != 0
    )


def newton_lemma_check(n: int) -> bool:
    """Newton polygon of A_n: ordinary unless n is a power of 2, in which case
    all slopes are 1/2^m or 1 - 1/2^m with m = max(1, log2(n) - 1); for
    n = 2^m with m >= 2 the shifted polynomial is also Eisenstein at 2."""
    rec = build_record(n)
    if not is_power_of_two(n):
        return rec.ordinary
    m = max(1, n.bit_length() - 2)
    from fractions import Fraction

    lo, hi = Fraction(1, 2 ** m), 1 - Fraction(1, 2 ** m)
    ok = all(s in (lo, hi) for s in rec.newton.slopes())
    if n >= 4:
        ok = ok and is_eisenstein_at(rec.real_weil, 2)
    return ok
