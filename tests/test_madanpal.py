from fractions import Fraction

import pytest

from orderone.arith import euler_phi
from orderone.cyclo import cyclotomic_poly
from orderone.intpoly import IntPoly, dehomogenize
from orderone.madanpal import (
    _real_weil_factor,
    build_record,
    is_eisenstein_at,
    madan_pal_poly,
    newton_lemma_check,
    pn_at_one_check,
    simple_factor_list,
)
from orderone.weil import F2, real_to_weil
from polyroutes import (
    compose_by_products,
    homogenize_by_products,
    interpolate,
    poly_sqrt,
    resultant,
)


def test_pinned_small_polynomials():
    assert madan_pal_poly(1) == IntPoly([1, -6, 1])
    assert madan_pal_poly(2) == IntPoly([1, -2, 1])
    assert madan_pal_poly(3) == IntPoly([1, -3, 1])
    assert madan_pal_poly(8) == IntPoly([1, -8, 16, -8, 1])


def test_known_factorizations_multiply_back():
    assert madan_pal_poly(2) == IntPoly([-1, 1]) * IntPoly([-1, 1])
    assert madan_pal_poly(7) == IntPoly([-1, 6, -5, 1]) * IntPoly([-1, 5, -6, 1])
    assert madan_pal_poly(30) == IntPoly([1, -7, 14, -8, 1]) * IntPoly([1, -8, 14, -7, 1])


def test_simple_factor_list():
    assert simple_factor_list(2) == [IntPoly([-1, 1]), IntPoly([-1, 1])]
    assert simple_factor_list(30) == [
        IntPoly([1, -7, 14, -8, 1]),
        IntPoly([1, -8, 14, -7, 1]),
    ]
    assert simple_factor_list(5) == [madan_pal_poly(5)]


def madan_pal_poly_resultant_route(n: int) -> IntPoly:
    """Independent construction of P_n for n >= 3.

    Res_y(Phi_n(y), y*x^2 - (y^2+4y+1)*x + y) equals P_n(x)^2 because the
    factors for k and n-k coincide; it is interpolated from its values at
    deg + 1 integers, and the square root is extracted coefficient by
    coefficient and verified by squaring.
    """
    phi_n = cyclotomic_poly(n)
    deg = 2 * phi_n.degree()
    pts = []
    for c in range(-(deg // 2), deg // 2 + 1):
        # B(y, c) = -c*y^2 + (c^2 - 4c + 1)*y - c
        b = IntPoly([-c, c * c - 4 * c + 1, -c])
        pts.append((c, resultant(phi_n, b)))
    square = interpolate(pts)
    if square.lc() < 0:
        square = -square
    p = poly_sqrt(square)
    return -p if p.lc() < 0 else p


@pytest.mark.parametrize("n", list(range(3, 70)))
def test_two_constructions_agree(n):
    assert madan_pal_poly(n) == madan_pal_poly_resultant_route(n)


@pytest.mark.parametrize("n", range(1, 129))
def test_transforms_match_product_routes(n):
    """P_n, its real Weil transform P_n(3 - x) and the Weil polynomial agree
    with Horner by whole `IntPoly` products."""
    p = madan_pal_poly(n)
    if n >= 3:
        psi = dehomogenize(cyclotomic_poly(n), IntPoly([1, 0, 1]))
        assert homogenize_by_products(psi, IntPoly([1, 0, 1])) == cyclotomic_poly(n)
        assert p == homogenize_by_products(psi, IntPoly([1, -4, 1]))
    real_weil = _real_weil_factor(p)
    assert real_weil == compose_by_products(p, IntPoly([3, -1])).monic_normalized()
    assert real_to_weil(real_weil, F2) == homogenize_by_products(real_weil, IntPoly([2, 0, 1]))


@pytest.mark.parametrize("n", list(range(1, 101)) + [120, 128, 144, 169, 199, 200])
def test_degree_law(n):
    assert madan_pal_poly(n).degree() == max(2, euler_phi(n))


def test_build_record_examples():
    r1 = build_record(1)
    assert r1.real_weil == IntPoly([-8, 0, 1])
    assert r1.weil == IntPoly([4, 0, -4, 0, 1])
    assert r1.weil.eval(1) == 1

    r3 = build_record(3)
    assert r3.real_weil == IntPoly([1, -3, 1])
    assert r3.weil == IntPoly([4, -6, 5, -3, 1])
    assert r3.ordinary

    r4 = build_record(4)
    assert r4.weil.eval(1) == 1
    assert set(r4.newton.slopes()) == {Fraction(1, 2)}


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_order_one_and_real_rooted(n):
    from orderone.weil import F2, is_real_weil

    rec = build_record(n)
    assert rec.weil.eval(1) == 1
    assert is_real_weil(rec.real_weil, F2)
    prod = IntPoly([1])
    for f in rec.simple_factors:
        prod = prod * f
    assert prod == rec.real_weil


def test_value_at_one_for_two_powers():
    assert madan_pal_poly(4).eval(1) == -2
    assert madan_pal_poly(8).eval(1) == 2
    assert madan_pal_poly(16).eval(1) == 2
    for m in range(2, 7):
        assert pn_at_one_check(m)


@pytest.mark.parametrize("n", list(range(1, 65)))
def test_newton_lemma(n):
    assert newton_lemma_check(n)


def test_eisenstein_example():
    # P_8(3-x) = x^4 - 4x^3 - 2x^2 + 20x - 14
    assert build_record(8).real_weil == IntPoly([-14, 20, -2, -4, 1])
    assert is_eisenstein_at(IntPoly([-14, 20, -2, -4, 1]), 2)
    assert not is_eisenstein_at(IntPoly([4, -4, 1]), 2)


@pytest.mark.parametrize("n", [1, 4, 7, 8, 30, 32])
def test_build_record_reads_ordinary_off_its_polygon(monkeypatch, n):
    """One Newton polygon per record, and ordinary agrees with is_ordinary."""
    from orderone import madanpal
    from orderone.weil import is_ordinary, newton_polygon

    calls = []

    def counting(f, ctx):
        calls.append(f)
        return newton_polygon(f, ctx)

    monkeypatch.setattr(madanpal, "newton_polygon", counting)
    rec = build_record.__wrapped__(n)
    assert calls == [rec.weil]
    assert rec.ordinary == is_ordinary(rec.weil, F2)
    assert rec == build_record(n)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 30, 31])
def test_build_record_transforms_each_polynomial_once(monkeypatch, n):
    """P_n(3 - x) is built once; only the pinned split lists of n = 2, 7, 30
    transform their factors on top, and their product still checks."""
    from orderone import madanpal

    calls = []
    real = madanpal._real_weil_factor
    monkeypatch.setattr(madanpal, "_real_weil_factor", lambda f: calls.append(f) or real(f))
    rec = build_record.__wrapped__(n)
    extra = list(madanpal.KNOWN_FACTORS.get(n, ()))
    assert calls == [rec.p_n] + extra
    assert rec == build_record(n)
    if not extra:
        assert rec.simple_factors == (rec.real_weil,)
