import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from orderone.cyclo import CycInt, cyclotomic_poly, root_sum
from orderone.intpoly import IntPoly
from orderone.roots import ROOT_ONE, RootOfUnity, root

roots_st = st.builds(
    RootOfUnity.make, st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=24)
)


def test_root_mul_examples():
    assert root(0, 1) * root(1, 3) == root(1, 3)
    assert root(1, 2) * root(1, 2) == root(0, 1)
    assert root(1, 3) * root(1, 5) == root(8, 15)


@given(roots_st, roots_st, roots_st)
@settings(max_examples=100)
def test_root_group_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * a.inverse() == ROOT_ONE
    assert a ** a.order == ROOT_ONE


def test_root_serialization():
    assert str(root(8, 15)) == "8/15"
    assert RootOfUnity.parse("8/15") == root(8, 15)
    with pytest.raises(ValueError):
        RootOfUnity.parse("2/4")


@pytest.mark.parametrize("n", list(range(1, 80)))
def test_cyclotomic_against_sympy(n):
    x = sp.symbols("x")
    ref = tuple(sp.Poly(sp.cyclotomic_poly(n, x), x).all_coeffs()[::-1])
    assert tuple(cyclotomic_poly(n).coeffs) == ref


def test_cyclotomic_pinned():
    assert cyclotomic_poly(1) == IntPoly([-1, 1])
    assert cyclotomic_poly(8) == IntPoly([1, 0, 0, 0, 1])
    # (x^6-1)(x-1) / ((x^3-1)(x^2-1))
    num = IntPoly([-1, 0, 0, 0, 0, 0, 1]) * IntPoly([-1, 1])
    den = IntPoly([-1, 0, 0, 1]) * IntPoly([-1, 0, 1])
    assert cyclotomic_poly(6) == num.exact_div(den)


def test_is_zero_examples():
    assert root_sum([(1, root(0, 1)), (1, root(1, 3)), (1, root(2, 3))]).is_zero()
    assert (CycInt.integer(1) - CycInt.integer(1)).is_zero()
    assert not root_sum([(1, root(0, 1)), (1, root(1, 5))]).is_zero()


def test_is_even_examples():
    assert root_sum([(1, ROOT_ONE), (1, ROOT_ONE)]).is_even()
    assert root_sum([(1, root(0, 1)), (1, root(1, 3)), (1, root(2, 3))]).is_even()
    assert not root_sum([(1, root(0, 1)), (1, root(1, 3))]).is_even()


def test_conjugate_examples():
    assert CycInt.from_root(root(1, 3)).conjugate() == CycInt.from_root(root(2, 3))
    v = CycInt.integer(2, 8) + CycInt.from_root(root(1, 8), 8)
    assert v.conjugate() == CycInt.integer(2, 8) + CycInt.from_root(root(7, 8), 8)
    real = root_sum([(1, root(0, 1)), (1, root(1, 5)), (1, root(4, 5))])
    assert real.conjugate() == real


@pytest.mark.parametrize("n", list(range(2, 40)))
def test_geometric_sums_vanish(n):
    assert root_sum([(1, root(k, n)) for k in range(n)]).is_zero()


@given(roots_st)
@settings(max_examples=60)
def test_zero_even_invariant_under_embedding_and_rotation(r):
    v = root_sum([(1, r), (1, root(1, 3)), (-1, root(1, 4))])
    lv = v.level
    assert v.embed(lv * 3).is_zero() == v.is_zero()
    assert v.embed(lv * 2).is_even() == v.is_even()
    w = v * CycInt.from_root(root(1, 5))
    assert w.is_zero() == v.is_zero()
    assert w.is_even() == v.is_even()


small_cyc = st.builds(
    lambda cs: CycInt(6, tuple(cs)), st.lists(st.integers(-4, 4), min_size=6, max_size=6)
)


@given(small_cyc, small_cyc)
@settings(max_examples=80)
def test_conjugation_is_ring_involution(a, b):
    assert a.conjugate().conjugate() == a
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_difference_of_roots_even_iff_negatives():
    small = {RootOfUnity.make(k, n) for n in range(1, 9) for k in range(n)}
    for r in small:
        for s in small:
            if r == s:
                continue
            diff = root_sum([(1, r), (-1, s)])
            # a difference of distinct roots is divisible by 2 exactly when s = -r,
            # and the quotient is then a unit, never again divisible
            assert diff.is_even() == (s == r.negated())
            if s == r.negated():
                assert not CycInt.from_root(r).is_even()


def test_equality_across_levels():
    a = CycInt.from_root(root(1, 3))
    assert a.embed(12) == a
    assert CycInt.integer(1, 5) == CycInt.integer(1, 7)
