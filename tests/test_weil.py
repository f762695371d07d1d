import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from orderone import weil
from orderone.intpoly import IntPoly, dehomogenize, power_sums
from orderone.weil import (
    F2,
    WeilContext,
    base_extension,
    is_ordinary,
    is_real_weil,
    newton_polygon,
    np_forces_geom_simple,
    real_to_weil,
)
from polyroutes import interpolate, resultant, stride_base_extension


def weil_to_real(qpoly: IntPoly, ctx: WeilContext) -> IntPoly:
    """Inverse of real_to_weil; requires the plus-sign functional equation."""
    return dehomogenize(qpoly, IntPoly([ctx.q, 0, 1]))


def functional_equation_sign(qpoly: IntPoly, ctx: WeilContext):
    """+1, -1, or None according to Q(x) = sign * q^-g * x^2g * Q(q/x)."""
    if qpoly.degree() % 2 or not qpoly.is_monic():
        raise ValueError("need a monic polynomial of even degree")
    g = qpoly.degree() // 2
    q = ctx.q
    for sign in (1, -1):
        if all(qpoly[i] == sign * q ** (g - i) * qpoly[2 * g - i] for i in range(g + 1)):
            return sign
    return None


def test_real_to_weil_examples():
    assert real_to_weil(IntPoly([-2, 1]), F2) == IntPoly([2, -2, 1])
    assert real_to_weil(IntPoly([-8, 0, 1]), F2) == IntPoly([4, 0, -4, 0, 1])
    assert real_to_weil(IntPoly([1, -3, 1]), F2) == IntPoly([4, -6, 5, -3, 1])


@given(st.lists(st.integers(-6, 6), min_size=1, max_size=5))
@settings(max_examples=60)
def test_real_transform_roundtrip_and_sign(lower):
    r = IntPoly(lower + [1])
    q = real_to_weil(r, F2)
    assert weil_to_real(q, F2) == r
    assert functional_equation_sign(q, F2) == 1


def test_functional_equation_signs():
    assert functional_equation_sign(IntPoly([2, -2, 1]), F2) == 1
    # x^2 - 2 satisfies the minus sign: q^-1 x^2 Q(q/x) = -(x^2 - 2)
    assert functional_equation_sign(IntPoly([-2, 0, 1]), F2) == -1
    assert functional_equation_sign(IntPoly([2, 0, 1]), F2) == 1
    assert functional_equation_sign(IntPoly([1, -1, 1]), F2) is None


def test_newton_polygon_examples():
    # supersingular elliptic shape: both roots have valuation 1/2
    assert newton_polygon(IntPoly([2, -2, 1]), F2).segments == ((Fraction(1, 2), 2),)
    assert newton_polygon(IntPoly([4, 0, -4, 0, 1]), F2).segments == ((Fraction(1, 2), 4),)
    assert newton_polygon(IntPoly([4, -6, 5, -3, 1]), F2).segments == (
        (Fraction(0), 2),
        (Fraction(1), 2),
    )


def test_newton_polygon_rejects_zero_constant():
    with pytest.raises(ValueError):
        newton_polygon(IntPoly([0, 1]), F2)


def test_is_ordinary():
    assert is_ordinary(IntPoly([4, -6, 5, -3, 1]), F2)
    assert not is_ordinary(IntPoly([4, 0, -4, 0, 1]), F2)
    assert not is_ordinary(IntPoly([2, -2, 1]), F2)


def test_is_real_weil_examples():
    assert is_real_weil(IntPoly([-8, 0, 1]), F2)  # roots exactly at the endpoints
    assert not is_real_weil(IntPoly([-9, 0, 1]), F2)
    assert not is_real_weil(IntPoly([-1, 6, -5, 1]), F2)
    assert is_real_weil(IntPoly([-2, 1]), F2)
    assert is_real_weil(IntPoly([1, -3, 1]), F2)
    # complex roots
    assert not is_real_weil(IntPoly([1, 0, 1]), F2)
    # square field: rational endpoints
    assert is_real_weil(IntPoly([-4, 0, 1]), WeilContext(2, 2))
    assert not is_real_weil(IntPoly([-5, 1]), WeilContext(2, 2))


FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4), 25: (5, 2)}


@st.composite
def near_endpoint_polys(draw):
    """(q, monic r): integer roots within one of +-2*sqrt(q), a power of
    x^2 - 4q, and at most one random monic quadratic."""
    q = draw(st.sampled_from(sorted(FIELDS)))
    t = math.isqrt(4 * q)
    r = IntPoly([-4 * q, 0, 1]) ** draw(st.integers(min_value=0, max_value=2))
    for root in draw(st.lists(st.integers(min_value=-t - 1, max_value=t + 1), max_size=3)):
        r = r * IntPoly([-root, 1])
    if draw(st.booleans()):
        b = draw(st.integers(min_value=-t - 1, max_value=t + 1))
        c = draw(st.integers(min_value=-4 * q, max_value=4 * q))
        r = r * IntPoly([c, b, 1])
    return q, r


@given(near_endpoint_polys())
@settings(max_examples=150, deadline=None)
def test_is_real_weil_against_sympy_real_roots(case):
    """Square and non-square q, roots at and next to +-2*sqrt(q): the Sturm
    count of the closed interval agrees with sympy's exact real roots."""
    q, r = case
    x = sp.symbols("x")
    poly = sp.Poly(sum(c * x ** i for i, c in enumerate(r.coeffs)), x)
    roots = sp.real_roots(poly) if r.degree() > 0 else []
    want = len(roots) == r.degree() and all(bool(root ** 2 <= 4 * q) for root in roots)
    assert is_real_weil(r, WeilContext(*FIELDS[q])) == want


def test_base_extension_examples():
    q = IntPoly([2, -2, 1])
    assert base_extension(q, 1) == q
    # roots (1 +- i)^2 = +-2i, so the square extension is x^2 + 4
    assert base_extension(q, 2) == IntPoly([4, 0, 1])
    assert base_extension(IntPoly([-2, 0, 1]), 2) == IntPoly([-2, 1]) * IntPoly([-2, 1])


def numeric_base_extension(q, n):
    """Independent float oracle: numpy roots, n-th powers, expanded product."""
    roots = np.roots(list(q.coeffs)[::-1]) ** n
    coeffs = np.poly(roots)
    return IntPoly([int(round(c.real)) for c in coeffs[::-1]])


def resultant_base_extension(q, n):
    """Independent exact route: Res_y(Q(y), y^n - c) = prod (alpha^n - c) = (-1)^d * Q_n(c),
    interpolated over d + 1 integers c."""
    d = q.degree()
    pts = []
    for c in range(-((d + 1) // 2), d + 1 - (d + 1) // 2):
        pts.append((c, (-1) ** d * resultant(q, IntPoly([-c] + [0] * (n - 1) + [1]))))
    return interpolate(pts)


# Weil polynomials, x^d w(Q/x) = a_0 w(x) with a_0 = Q^e or -Q^e: the half route
HALF_ROUTE = [
    IntPoly([2, -2, 1]),
    IntPoly([-2, 0, 1]),
    IntPoly([4, -6, 5, -3, 1]),
    IntPoly([1, 0, 1]),
    IntPoly([-2, 0, 1]) * IntPoly([2, -2, 1]),
]
# odd degree, a_0 = 0, a quartic with a_1 Q != a_0 a_3, |a_0| = 8 not a square
FULL_ROUTE = [
    IntPoly([5, -2, 0, 1]),
    IntPoly([0, 1, 0, -3, 1]),
    IntPoly([4, -6, 5, -2, 1]),
    IntPoly([8, 0, 0, 0, 1]),
]


@pytest.mark.parametrize("n", list(range(1, 9)))
@pytest.mark.parametrize("q", HALF_ROUTE + FULL_ROUTE)
def test_base_extension_three_routes(q, n):
    got = base_extension(q, n)
    assert got == resultant_base_extension(q, n)
    assert got == stride_base_extension(q, n)
    if q.degree() * n <= 12:
        assert got == numeric_base_extension(q, n)


@pytest.mark.parametrize("m", [4, 12, 62, 840, 2520])
@pytest.mark.parametrize(
    "q", [IntPoly([2, -2, 1]), IntPoly([-2, 0, 1]), IntPoly([4, -6, 5, -3, 1])]
)
def test_prime_steps_match_one_shot_extension(q, m):
    assert base_extension(q, m) == stride_base_extension(q, m)


def test_prime_steps_match_one_shot_extension_of_an_oracle_factor():
    """Every distinct factor's Weil polynomial for n <= 32, on the half route,
    at m = n and m = 2n."""
    from orderone.madanpal import build_record

    first_n = {}
    for n in range(1, 33):
        for factor in build_record(n).simple_factors:
            first_n.setdefault(real_to_weil(factor, F2), n)
    for w, n in first_n.items():
        assert weil._weil_weight(w) == F2.q
        for m in (n, 2 * n):
            assert base_extension(w, m) == stride_base_extension(w, m), (n, m)


@pytest.mark.parametrize("q", HALF_ROUTE + FULL_ROUTE)
def test_base_extension_reads_half_the_power_sums_of_a_weil_polynomial(monkeypatch, q):
    counts = []

    def recording(f, count):
        counts.append(count)
        return power_sums(f, count)

    monkeypatch.setattr(weil, "power_sums", recording)
    base_extension(q, 12)
    share = q.degree() // 2 if q in HALF_ROUTE else q.degree()
    assert counts == [share * 3, share * 2, share * 2]


def test_base_extension_composes():
    q = IntPoly([4, -6, 5, -3, 1])
    assert base_extension(base_extension(q, 2), 3) == base_extension(q, 6)
    assert base_extension(base_extension(q, 3), 4) == base_extension(q, 12)


def test_radical_degree_monotone_under_coarsening():
    from orderone.weil import radical

    q = IntPoly([4, -6, 5, -3, 1])
    for m in (1, 2, 3, 6):
        for k in (2, 3):
            d1 = radical(base_extension(q, m)).degree()
            d2 = radical(base_extension(q, m * k)).degree()
            assert d2 <= d1


def test_np_forces_geom_simple():
    w8 = IntPoly([16, -32, 24, -8, 2, -4, 6, -4, 1])
    assert np_forces_geom_simple(newton_polygon(w8, F2))
    assert not np_forces_geom_simple(newton_polygon(IntPoly([4, 0, -4, 0, 1]), F2))  # g = 2
    assert not np_forces_geom_simple(newton_polygon(IntPoly([4, -6, 5, -3, 1]), F2))  # ordinary


def test_real_and_weil_polygon_slopes_agree_below_half():
    from orderone.madanpal import build_record

    for n in (1, 2, 3, 4, 5, 6, 7, 8, 12):
        rec = build_record(n)
        weil_np = newton_polygon(rec.weil, F2)
        real_np = newton_polygon(rec.real_weil, F2)
        low_weil = sorted(s for s in weil_np.slopes() if 0 <= s < Fraction(1, 2))
        low_real = sorted(s for s in real_np.slopes() if 0 <= s < Fraction(1, 2))
        assert low_weil == low_real, n


def _valuation_by_division(c: int, p: int) -> int:
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=1, max_value=10 ** 40),
    st.booleans(),
)
@settings(max_examples=300)
def test_valuation_routes_agree(p, v, unit, negative):
    """The lowest-set-bit route for p = 2 and the division loop agree with
    each other and with the valuation built in, for either sign."""
    unit = unit * p + 1 if unit % p == 0 else unit
    c = (-1 if negative else 1) * unit * p ** v
    assert weil._valuation(c, p) == _valuation_by_division(c, p) == v
    if p == 2:
        assert (c & -c).bit_length() - 1 == v


def test_valuation_of_random_ints():
    rng = random.Random(25)
    for _ in range(2000):
        c = rng.choice([-1, 1]) * rng.randrange(1, 2 ** rng.randrange(1, 400))
        for p in (2, 3, 5):
            assert weil._valuation(c, p) == _valuation_by_division(c, p), (c, p)
