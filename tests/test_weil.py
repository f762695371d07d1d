from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orderone.intpoly import IntPoly, interpolate, resultant
from orderone.weil import (
    F2,
    WeilContext,
    base_extension,
    functional_equation_sign,
    is_ordinary,
    is_real_weil,
    newton_polygon,
    np_forces_geom_simple,
    ratio_root_of_unity_free,
    real_to_weil,
    weil_to_real,
)


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


@pytest.mark.parametrize("n", list(range(1, 9)))
@pytest.mark.parametrize(
    "q", [IntPoly([2, -2, 1]), IntPoly([-2, 0, 1]), IntPoly([4, -6, 5, -3, 1])]
)
def test_base_extension_three_routes(q, n):
    got = base_extension(q, n)
    assert got == resultant_base_extension(q, n)
    if q.degree() * n <= 12:
        assert got == numeric_base_extension(q, n)


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


def test_ratio_root_of_unity_free():
    assert ratio_root_of_unity_free(IntPoly([-2, 0, 1]), {2}) is False
    # the elliptic class has ratio (1+i)/(1-i) = i of order 4
    assert ratio_root_of_unity_free(IntPoly([2, -2, 1]), {2, 3}) is True
    assert ratio_root_of_unity_free(IntPoly([2, -2, 1]), {2, 3, 4}) is False


def test_np_forces_geom_simple():
    w8 = IntPoly([16, -32, 24, -8, 2, -4, 6, -4, 1])
    assert np_forces_geom_simple(w8, F2)
    assert not np_forces_geom_simple(IntPoly([4, 0, -4, 0, 1]), F2)  # g = 2
    assert not np_forces_geom_simple(IntPoly([4, -6, 5, -3, 1]), F2)  # ordinary


def test_real_and_weil_polygon_slopes_agree_below_half():
    from orderone.madanpal import build_record

    for n in (1, 2, 3, 4, 5, 6, 7, 8, 12):
        rec = build_record(n)
        weil_np = newton_polygon(rec.weil, F2)
        real_np = newton_polygon(rec.real_weil, F2)
        low_weil = sorted(s for s in weil_np.slopes() if 0 <= s < Fraction(1, 2))
        low_real = sorted(s for s in real_np.slopes() if 0 <= s < Fraction(1, 2))
        assert low_weil == low_real, n
