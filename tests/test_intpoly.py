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


# -- the packed Horner kernel ------------------------------------------------------


def _tightest_width(p: IntPoly) -> int:
    """The fewest bytes per digit that hold every coefficient of p strictly
    inside (-2^(b-1), 2^(b-1)), b = 8 * bytes."""
    return max((abs(c).bit_length() for c in p.coeffs), default=0) // 8 + 1


@given(any_poly(10), any_poly(3))
@settings(max_examples=150)
def test_packed_compose_at_the_tightest_width(f, inner):
    """At the narrowest width that holds the result, the kernel reads back
    f(inner) exactly, zero and constant inner included."""
    want = compose_by_products(f, inner)
    if f.is_zero():
        assert f.compose(inner).is_zero()
        return
    length = f.degree() * max(0, inner.degree()) + 1
    got = intpoly._horner_packed(f.coeffs, inner.coeffs, 0, _tightest_width(want), length)
    assert IntPoly(got) == want
    assert f.compose(inner) == want


@given(nonzero_poly(10), quadratic)
@settings(max_examples=150)
def test_packed_homogenize_at_the_tightest_width(r, quad):
    want = homogenize_by_products(r, quad)
    got = intpoly._horner_packed(r.coeffs, quad.coeffs, 1, _tightest_width(want), 2 * r.degree() + 1)
    assert IntPoly(got) == want


def _edge_digit(width: int):
    """Digits of b = 8 * width bits, biased to the ends of the signed range."""
    top = 2 ** (8 * width - 1) - 1
    return st.one_of(st.sampled_from([top, -top, top - 1, -top + 1, 1, -1, 0]),
                     st.integers(min_value=-top, max_value=top))


@st.composite
def edge_digits(draw):
    width = draw(st.integers(min_value=1, max_value=3))
    digits = draw(st.lists(_edge_digit(width), min_size=1, max_size=12))
    lead = draw(_edge_digit(width).filter(bool))
    return width, digits + [lead]


@given(edge_digits())
@settings(max_examples=200)
def test_packed_horner_reads_digits_at_the_range_ends(case):
    """Results whose coefficients reach +-(2^(b-1) - 1), with a negative
    leading digit among them, unpack exactly: inner x gives the digits back,
    and x^2 with shift 1 lands them d places up."""
    width, digits = case
    d = len(digits) - 1
    assert intpoly._horner_packed(digits, [0, 1], 0, width, d + 1) == digits
    assert intpoly._horner_packed(digits, [0, 0, 1], 1, width, 2 * d + 1) == [0] * d + digits


@pytest.mark.parametrize("inner", [IntPoly(), IntPoly([5]), IntPoly([-3]), IntPoly([0, 1])])
@pytest.mark.parametrize("f", [IntPoly([7]), IntPoly([-2]), IntPoly([1, -2, 3]), IntPoly([0, 0, -1])])
def test_compose_with_zero_and_constant_inner(f, inner):
    assert f.compose(inner) == compose_by_products(f, inner)
    if inner.degree() <= 0:
        assert f.compose(inner) == IntPoly([f.eval(inner[0])])


@pytest.mark.parametrize("quad", PINNED_QUADS + [IntPoly([0, 0, -3])])
def test_homogenize_of_degree_zero(quad):
    assert homogenize(IntPoly([-11]), quad) == IntPoly([-11])
    assert homogenize(IntPoly(), quad) == IntPoly()


big_coeff = st.builds(lambda k, s: k * 10 ** 4400 + s, st.integers(-3, 3), st.integers(-9, 9))


@given(st.lists(big_coeff, min_size=1, max_size=6).map(IntPoly), any_poly(2), quadratic)
@settings(max_examples=25, deadline=None)
def test_packed_horner_past_4300_digits(f, inner, quad):
    """Coefficients beyond Python's int-to-str limit: the kernel never goes
    through decimal strings."""
    assert f.compose(inner) == compose_by_products(f, inner)
    assert homogenize(f, quad) == homogenize_by_products(f, quad)


@pytest.mark.parametrize(
    "digits, length",
    [
        ([128], 1),        # 2^(b-1) at the top: the value overflows the digits
        ([-128], 1),       # -2^(b-1): an all-zero digit slice
        ([-129], 1),       # below the range: the offset value is negative
        ([128, 1], 2),     # 2^(b-1) in a lower digit carries into the next
        ([1, 0, 300], 3),  # past the top digit
    ],
)
def test_packed_horner_too_narrow_raises(digits, length):
    with pytest.raises(ArithmeticError, match="8-bit|8 bits"):
        intpoly._horner_packed(digits, [0, 1], 0, 1, length)
    # one byte more holds them
    assert intpoly._horner_packed(digits, [0, 1], 0, 2, length) == digits


def test_narrow_width_raises_through_compose(monkeypatch):
    """compose sizes its width by _digit_bytes; forced one byte, a result
    coefficient of 2^7 raises rather than reading back wrong."""
    monkeypatch.setattr(intpoly, "_digit_bytes", lambda bound: 1)
    with pytest.raises(ArithmeticError):
        IntPoly([0, 0, 0, 0, 0, 0, 0, 1]).compose(IntPoly([2]))  # 2^7 = 128


@pytest.mark.parametrize("width", [1, 2, 5])
def test_digit_bytes_is_the_tightest_width(width):
    top = 2 ** (8 * width - 1)
    assert intpoly._digit_bytes(top - 1) == width
    assert intpoly._digit_bytes(top) == width + 1
    assert intpoly._digit_bytes(0) == 1
