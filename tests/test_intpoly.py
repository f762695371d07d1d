import random

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from orderone import intpoly
from orderone.intpoly import (
    IntPoly,
    dehomogenize,
    from_power_sums,
    homogenize,
    power_sums,
    prem,
    radical,
)
from polyroutes import (
    compose_by_products,
    homogenize_by_products,
    interpolate,
    poly_sqrt,
    resultant,
)

x = sp.symbols("x")


def to_sympy(p):
    return sum(c * x ** i for i, c in enumerate(p.coeffs))


def sylvester_resultant(p, q):
    """Independent oracle: determinant of the textbook Sylvester matrix."""
    dp, dq = p.degree(), q.degree()
    n = dp + dq
    if n == 0:
        return 1
    pc = list(p.coeffs)[::-1]
    qc = list(q.coeffs)[::-1]
    rows = [[0] * i + pc + [0] * (n - dp - 1 - i) for i in range(dq)]
    rows += [[0] * i + qc + [0] * (n - dq - 1 - i) for i in range(dp)]
    return int(sp.Matrix(rows).det())


coeff = st.integers(min_value=-9, max_value=9)


def nonzero_poly(max_deg=6):
    return st.lists(coeff, min_size=1, max_size=max_deg + 1).filter(lambda cs: any(cs)).map(IntPoly)


def any_poly(max_deg):
    """Any polynomial of degree at most max_deg, the zero polynomial included."""
    return st.lists(coeff, max_size=max_deg + 1).map(IntPoly)


# the quadratics the library transforms with, then monic and non-monic ones
PINNED_QUADS = [IntPoly([2, 0, 1]), IntPoly([1, -4, 1]), IntPoly([1, 0, 1])]
quadratic = st.one_of(
    st.sampled_from(PINNED_QUADS),
    st.builds(lambda c, b: IntPoly([c, b, 1]), coeff, coeff),
    st.builds(lambda c, b, a: IntPoly([c, b, a]), coeff, coeff, coeff.filter(bool)),
)


def test_basic_arithmetic():
    a = IntPoly([1, 2]) * IntPoly([-1, 1])
    assert a == IntPoly([-1, -1, 2])
    assert IntPoly([1, 1]) ** 3 == IntPoly([1, 3, 3, 1])
    q, r = divmod(IntPoly([-1, 0, 1]), IntPoly([1, 1]))
    assert q == IntPoly([-1, 1]) and r.is_zero()
    assert IntPoly([4, -8, 0, 4]).derivative() == IntPoly([-8, 0, 12])


POW_BASES = [IntPoly(), IntPoly([1]), IntPoly([-3]), IntPoly([1, 1]), IntPoly([2, -2, 1]), IntPoly([0, 5, 0, -1])]


@pytest.mark.parametrize("p", POW_BASES)
def test_pow_matches_repeated_products(p):
    acc = IntPoly([1])
    for n in range(10):
        assert p ** n == acc
        acc = acc * p


@pytest.mark.parametrize("p", POW_BASES)
def test_pow_forms_no_product_longer_than_the_result(monkeypatch, p):
    """Square-and-multiply stops squaring after the top bit of n."""
    lengths = []
    mul = intpoly._mul_coeffs

    def recording(long, short):
        out = mul(long, short)
        lengths.append(len(out))
        return out

    monkeypatch.setattr(intpoly, "_mul_coeffs", recording)
    for n in range(10):
        lengths.clear()
        result = p ** n
        assert all(k <= len(result.coeffs) for k in lengths), n


def test_divmod_rejects_inexact():
    with pytest.raises(ValueError):
        divmod(IntPoly([1, 0, 1]), IntPoly([0, 2]))


@pytest.mark.parametrize(
    "a, b, want",
    [
        (IntPoly([1, 0, 1]), IntPoly([-2, 1]), 5),
        (IntPoly([-1, 0, 1]), IntPoly([1, -2, 1]), 0),
        (IntPoly([-1, 1]), IntPoly([-8, 0, 0, 1]), -7),
        (IntPoly([-8, 0, 0, 1]), IntPoly([-1, 1]), 7),
    ],
)
def test_resultant_pinned(a, b, want):
    assert resultant(a, b) == want


def test_resultant_against_sylvester_oracle():
    rng = random.Random(11)
    for _ in range(250):
        da, db = rng.randint(0, 6), rng.randint(0, 6)
        p = IntPoly([rng.randint(-9, 9) for _ in range(da)] + [rng.choice([1, -1, 2, -3])])
        q = IntPoly([rng.randint(-9, 9) for _ in range(db)] + [rng.choice([1, -1, 2, -3])])
        if p.degree() + q.degree() > 0:
            assert resultant(p, q) == sylvester_resultant(p, q)


@pytest.mark.parametrize(
    "f, want",
    [
        (IntPoly([4, 0, -4, 0, 1]), IntPoly([-2, 0, 1])),  # (x^2-2)^2
        (IntPoly([2, -2, 1]), IntPoly([2, -2, 1])),
        (IntPoly([-1, 1]) ** 3 * IntPoly([1, 1]), IntPoly([-1, 0, 1])),
        (IntPoly([2, 4, 2]), IntPoly([1, 1])),  # content 2 shared by f and f'
        (IntPoly([3, 6, 3]), IntPoly([1, 1])),
    ],
)
def test_radical(f, want):
    assert radical(f) == want


@given(nonzero_poly(3), nonzero_poly(2), st.integers(min_value=1, max_value=3), coeff.filter(bool))
@settings(max_examples=80)
def test_radical_against_sympy_sqf_part(a, b, k, c):
    """Non-monic inputs with repeated factors and a content: the radical is
    sympy's squarefree part, primitive with a positive leading coefficient."""
    f = a ** k * b * IntPoly([c])
    r = radical(f)
    want = sp.Poly(to_sympy(f), x).sqf_part()
    assert list(r.coeffs) == [int(v) for v in reversed(want.all_coeffs())]
    assert r.content() == 1 and r.lc() > 0


@given(nonzero_poly(4), nonzero_poly(3))
@settings(max_examples=60)
def test_prem_is_scaled_remainder(a, b):
    r = prem(a, b)
    k = max(a.degree() - b.degree() + 1, 0)
    assert sp.rem(to_sympy(a) * to_sympy(b).coeff(x, b.degree()) ** k - to_sympy(r), to_sympy(b), x) == 0


@given(st.lists(coeff, min_size=1, max_size=6))
@settings(max_examples=80)
def test_power_sum_roundtrip(lower):
    f = IntPoly(lower + [1])
    d = f.degree()
    assert from_power_sums(power_sums(f, d), d) == f


@given(st.lists(coeff, min_size=0, max_size=5))
@settings(max_examples=60)
def test_interpolation_recovers(cs):
    f = IntPoly(cs + [1])
    pts = [(i, f.eval(i)) for i in range(-3, f.degree() + 4)]
    assert interpolate(pts) == f


@given(st.lists(coeff, min_size=1, max_size=5))
@settings(max_examples=60)
def test_sqrt_of_square(cs):
    f = IntPoly(cs + [1])
    assert poly_sqrt(f * f) == f


@given(nonzero_poly(5), coeff, coeff)
@settings(max_examples=80)
def test_dehomogenize_inverts_homogenize(r, b, c):
    quad = IntPoly([c, b, 1])
    f = homogenize(r, quad)
    assert dehomogenize(f, quad) == r
    if r.degree() >= 1:
        with pytest.raises(ValueError):  # odd degree
            dehomogenize(f * IntPoly([0, 1]), quad)
        with pytest.raises(ValueError):  # f(0) = r_d * quad(0)^d fails, same degree
            dehomogenize(f + 1, quad)


@given(any_poly(7), any_poly(7))
@settings(max_examples=80)
def test_product_matches_sympy(a, b):
    assert to_sympy(a * b) == sp.expand(to_sympy(a) * to_sympy(b))
    assert a * b == b * a


@given(any_poly(12), quadratic)
@settings(max_examples=150)
def test_homogenize_matches_product_route(r, quad):
    assert homogenize(r, quad) == homogenize_by_products(r, quad)


@given(any_poly(12), any_poly(3))
@settings(max_examples=150)
def test_compose_matches_product_route(f, inner):
    """Inner polynomials from zero through constant, linear, quadratic and cubic."""
    assert f.compose(inner) == compose_by_products(f, inner)


@pytest.mark.parametrize("quad", [IntPoly(), IntPoly([3]), IntPoly([1, 1]), IntPoly([0, 0, 0, 1])])
def test_homogenize_needs_a_quadratic(quad):
    with pytest.raises(ValueError):
        homogenize(IntPoly([1, 2, 1]), quad)


def test_sqrt_rejects_non_square():
    with pytest.raises(ValueError):
        poly_sqrt(IntPoly([1, 1, 1]))


def test_content_primitive():
    f = IntPoly([6, -9, 12])
    assert f.content() == 3
    assert f.primitive() == IntPoly([2, -3, 4])
    assert (-f).content() == -3
