"""Weil polynomials over finite fields: the real transform, Newton polygons,
exact real-rootedness tests, and base extension.

Real-rootedness is one exact Sturm count over the closed interval
[-2*sqrt(q), 2*sqrt(q)] for every q, square or not: the chain comes from
intpoly, and its signs at the endpoints are read in Z[sqrt(q)], where they are
exactly 0 at a root there.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import factorize, is_prime
from .intpoly import IntPoly, from_power_sums, homogenize, power_sums, radical, sturm_sequence


@dataclass(frozen=True)
class WeilContext:
    p: int
    a: int = 1

    def __post_init__(self):
        if not is_prime(self.p) or self.a < 1:
            raise ValueError("need a prime p and exponent a >= 1")

    @property
    def q(self) -> int:
        return self.p ** self.a


F2 = WeilContext(2, 1)


@dataclass(frozen=True)
class NewtonPolygon:
    """Slopes (as exact fractions, strictly increasing) with multiplicities."""

    segments: tuple[tuple[Fraction, int], ...]

    def slopes(self) -> list[Fraction]:
        out = []
        for s, m in self.segments:
            out.extend([s] * m)
        return out

    def total(self) -> int:
        return sum(m for _, m in self.segments)

    def is_ordinary(self) -> bool:
        """Every slope is 0 or 1."""
        return all(s in (0, 1) for s, _ in self.segments)


def _valuation(c: int, p: int) -> int:
    """The p-adic valuation of a nonzero int.  For p = 2 it is the index of
    the lowest set bit, c & -c isolating that bit (also for negative c);
    other p divide once per factor."""
    if p == 2:
        return (c & -c).bit_length() - 1
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def newton_polygon(f: IntPoly, ctx: WeilContext) -> NewtonPolygon:
    """Slope data of f for the valuation normalized so that v(q) = 1.

    Slopes are the valuations of the roots: negated slopes of the lower convex
    hull of (i, v_p(coeff_i)), divided by a.
    """
    if f.is_zero():
        raise ValueError("Newton polygon of the zero polynomial")
    if f[0] == 0:
        raise ValueError("Newton polygon requires a nonzero constant term")
    pts = [(i, _valuation(c, ctx.p)) for i, c in enumerate(f.coeffs) if c]
    # lower convex hull, left to right
    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    segs = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(-(y2 - y1), (x2 - x1) * ctx.a)
        segs.append((slope, x2 - x1))
    segs.sort()
    return NewtonPolygon(tuple(segs))


def is_ordinary(f: IntPoly, ctx: WeilContext) -> bool:
    return newton_polygon(f, ctx).is_ordinary()


def real_to_weil(r: IntPoly, ctx: WeilContext) -> IntPoly:
    """Q(x) = x^deg(R) * R(x + q/x), the Weil polynomial of a real Weil polynomial."""
    if not r.is_monic():
        raise ValueError("real Weil polynomial must be monic")
    return homogenize(r, IntPoly([ctx.q, 0, 1]))


# -- exact real-root count ----------------------------------------------------


def _eval_quad(f: IntPoly, u: int, v: int, q: int) -> tuple[int, int]:
    """Evaluate f at u + v*sqrt(q) exactly; returns (U, V) meaning U + V*sqrt(q)."""
    U, V = 0, 0
    for c in reversed(f.coeffs):
        U, V = U * u + V * v * q + c, U * v + V * u
    return U, V


def _sign_quad(U: int, V: int, q: int) -> int:
    """Sign of U + V*sqrt(q).  U^2 = q*V^2 with V != 0 only happens for a
    square q, where U + V*sqrt(q) is exactly 0."""
    if V == 0:
        return (U > 0) - (U < 0)
    if U == 0 or (U > 0) == (V > 0):
        return 1 if V > 0 else -1
    diff = U * U - q * V * V
    if diff == 0:
        return 0
    return (1 if U > 0 else -1) if diff > 0 else (1 if V > 0 else -1)


def _variations(signs: list[int]) -> int:
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def is_real_weil(r: IntPoly, ctx: WeilContext) -> bool:
    """True iff all complex roots of monic r are real and lie in [-2*sqrt(q), 2*sqrt(q)].

    On the Sturm chain of the squarefree f = radical(r), V(a) - V(b) counts
    the distinct roots in (a, b], so V(-2*sqrt(q)) - V(2*sqrt(q)) plus one
    for a root at -2*sqrt(q) counts the closed interval, which must hold all
    deg f roots.
    """
    if r.is_zero() or not r.is_monic():
        raise ValueError("need a monic nonzero polynomial")
    f, q = radical(r), ctx.q
    seq = sturm_sequence(f)
    lo = [_sign_quad(*_eval_quad(g, 0, -2, q), q) for g in seq]
    hi = [_sign_quad(*_eval_quad(g, 0, 2, q), q) for g in seq]
    return _variations(lo) - _variations(hi) + (lo[0] == 0) == f.degree()


# -- base extension -----------------------------------------------------------


def _weil_weight(qpoly: IntPoly) -> int | None:
    """The Q >= 1 with x^d w(Q/x) = a_0 w(x), d = 2e, for monic w = qpoly,
    or None when there is none: odd degree, a_0 = 0, |a_0| not an e-th power,
    or a coefficient pair with a_i Q^i != a_0 a_(d-i)."""
    d, a = qpoly.degree(), qpoly.coeffs
    if d < 2 or d % 2 or a[0] == 0:
        return None
    e = d // 2
    big = abs(a[0])
    # integer e-th root by Newton's method from an upper bound
    root = 1 << -(-big.bit_length() // e)
    while True:
        nxt = ((e - 1) * root + big // root ** (e - 1)) // e
        if nxt >= root:
            break
        root = nxt
    if root ** e != big:
        return None
    power = 1
    for i in range(d + 1):
        if a[i] * power != a[0] * a[d - i]:
            return None
        power *= root
    return root


def base_extension(qpoly: IntPoly, n: int) -> IntPoly:
    """Monic polynomial whose roots are the n-th powers of the roots of qpoly.

    By Newton's identities: the k-th power sum of the p-th extension is the
    (k*p)-th power sum of the input.  The n-th extension is that step chained
    over the prime factors p of n, largest first, so it needs d * (sum of the
    prime factors) power sums and not d * n.

    When qpoly satisfies the Weil functional equation x^d w(Q/x) = a_0 w(x),
    d = 2e, a_0 = +-Q^e (checked on every coefficient once, with Q the integer
    e-th root of |a_0|), so does its p-th extension, with weight Q^p and
    constant a_0^p.  Its top e + 1 coefficients, from e power sums, then fix
    the rest, a_i = a_0^p a_(d-i) / Q^(p i) exactly, so each step reads e * p
    power sums, not d * p.  Any other monic input takes the d * p route.
    """
    if not qpoly.is_monic():
        raise ValueError("base extension needs a monic polynomial")
    if n < 1:
        raise ValueError("extension degree must be positive")
    weight = _weil_weight(qpoly)
    # the number of top coefficients each step reads off power sums
    top = qpoly.degree() if weight is None else qpoly.degree() // 2
    for p, e in sorted(factorize(n).items(), reverse=True):
        for _ in range(e):
            ps = power_sums(qpoly, top * p)
            upper = from_power_sums(ps[p - 1 :: p], top)
            if weight is not None:
                weight, const = weight ** p, qpoly[0] ** p
                lower, scale = [], 1
                for i in range(top):
                    c, r = divmod(const * upper[top - i], scale)
                    if r:
                        raise ArithmeticError("Weil functional equation broke under base extension")
                    lower.append(c)
                    scale *= weight
                upper = IntPoly(lower + list(upper.coeffs))
            qpoly = upper
    return qpoly


def np_forces_geom_simple(polygon: NewtonPolygon) -> bool:
    """Newton polygon criterion: slopes exactly {1/g: g, 1-1/g: g} with g > 2."""
    g = polygon.total() // 2
    return g > 2 and polygon.segments == ((Fraction(1, g), g), (Fraction(g - 1, g), g))
