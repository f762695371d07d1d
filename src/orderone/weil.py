"""Weil polynomials over finite fields: functional equation, real transform,
Newton polygons, exact real-rootedness tests, and base extension.

Sturm counting is fully exact; the interval endpoints +-2*sqrt(q) are handled
in Z[sqrt(q)] because real Weil polynomials may have roots exactly there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .intpoly import IntPoly, from_power_sums, power_sums, prem, radical


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n == p:
            return True
        if n % p == 0:
            return False
    i = 37
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


@dataclass(frozen=True)
class WeilContext:
    p: int
    a: int = 1

    def __post_init__(self):
        if not _is_prime(self.p) or self.a < 1:
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


def newton_polygon(f: IntPoly, ctx: WeilContext) -> NewtonPolygon:
    """Slope data of f for the valuation normalized so that v(q) = 1.

    Slopes are the valuations of the roots: negated slopes of the lower convex
    hull of (i, v_p(coeff_i)), divided by a.
    """
    if f.is_zero():
        raise ValueError("Newton polygon of the zero polynomial")
    if f[0] == 0:
        raise ValueError("Newton polygon requires a nonzero constant term")
    pts = []
    for i, c in enumerate(f.coeffs):
        if c:
            v = 0
            while c % ctx.p == 0:
                c //= ctx.p
                v += 1
            pts.append((i, v))
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
    return all(s in (0, 1) for s in newton_polygon(f, ctx).slopes())


def real_to_weil(r: IntPoly, ctx: WeilContext) -> IntPoly:
    """Q(x) = x^deg(R) * R(x + q/x), the Weil polynomial of a real Weil polynomial."""
    if not r.is_monic():
        raise ValueError("real Weil polynomial must be monic")
    d = r.degree()
    acc = IntPoly()
    xq = IntPoly([ctx.q, 0, 1])  # x^2 + q
    for k in range(d + 1):
        if r[k]:
            acc = acc + IntPoly([r[k]]) * xq ** k * IntPoly([0, 1]) ** (d - k)
    return acc


def weil_to_real(qpoly: IntPoly, ctx: WeilContext) -> IntPoly:
    """Inverse of real_to_weil; requires the plus-sign functional equation."""
    if qpoly.degree() % 2:
        raise ValueError("Weil polynomial must have even degree")
    d = qpoly.degree() // 2
    residual = qpoly
    coeffs = [0] * (d + 1)
    xq = IntPoly([ctx.q, 0, 1])
    for k in range(d, -1, -1):
        c = residual[d + k]
        coeffs[k] = c
        residual = residual - IntPoly([c]) * xq ** k * IntPoly([0, 1]) ** (d - k)
    if not residual.is_zero():
        raise ValueError("not in the image of the real transform")
    return IntPoly(coeffs)


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


# -- exact Sturm machinery ----------------------------------------------------


def _strip_content(f: IntPoly) -> IntPoly:
    """Divide by the positive gcd of the coefficients, keeping the sign."""
    if f.is_zero():
        return f
    c = abs(f.content())
    return IntPoly(a // c for a in f.coeffs)


def sturm_sequence(f: IntPoly) -> list[IntPoly]:
    """Sturm chain; content is stripped each step without touching signs."""
    seq = [_strip_content(f), _strip_content(f.derivative())]
    while seq[-1].degree() > 0:
        a, b = seq[-2], seq[-1]
        r = prem(a, b)
        sigma = 1 if (b.lc() > 0 or (a.degree() - b.degree() + 1) % 2 == 0) else -1
        nxt = _strip_content(-r if sigma > 0 else r)
        if nxt.is_zero():
            break
        seq.append(nxt)
    return seq


def _eval_quad(f: IntPoly, u: int, v: int, q: int) -> tuple[int, int]:
    """Evaluate f at u + v*sqrt(q) exactly; returns (U, V) meaning U + V*sqrt(q)."""
    U, V = 0, 0
    for c in reversed(f.coeffs):
        U, V = U * u + V * v * q + c, U * v + V * u
    return U, V


def _sign_quad(U: int, V: int, q: int) -> int:
    """Sign of U + V*sqrt(q) for a non-square q."""
    if U == 0 and V == 0:
        return 0
    if V == 0:
        return 1 if U > 0 else -1
    if U == 0:
        return 1 if V > 0 else -1
    if (U > 0) == (V > 0):
        return 1 if U > 0 else -1
    lhs, rhs = U * U, q * V * V
    if lhs == rhs:
        raise ArithmeticError("sqrt(q) cannot be rational here")
    return (1 if U > 0 else -1) if lhs > rhs else (1 if V > 0 else -1)


def _variations(signs: list[int]) -> int:
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def count_real_roots_quad_interval(f: IntPoly, q: int) -> int:
    """Distinct real roots of squarefree f in the open interval (-2*sqrt(q), 2*sqrt(q)), q non-square."""
    seq = sturm_sequence(f)
    lo = [_sign_quad(*_eval_quad(g, 0, -2, q), q) for g in seq]
    hi = [_sign_quad(*_eval_quad(g, 0, 2, q), q) for g in seq]
    return _variations(lo) - _variations(hi)


def count_real_roots_int_interval(f: IntPoly, lo_pt: int, hi_pt: int) -> int:
    """Distinct real roots of squarefree f in the open interval (lo_pt, hi_pt)."""
    seq = sturm_sequence(f)
    lo = [_int_sign(g.eval(lo_pt)) for g in seq]
    hi = [_int_sign(g.eval(hi_pt)) for g in seq]
    return _variations(lo) - _variations(hi)


def _int_sign(v: int) -> int:
    return 0 if v == 0 else (1 if v > 0 else -1)


def is_real_weil(r: IntPoly, ctx: WeilContext) -> bool:
    """True iff all complex roots of monic r are real and lie in [-2*sqrt(q), 2*sqrt(q)]."""
    if r.is_zero() or not r.is_monic():
        raise ValueError("need a monic nonzero polynomial")
    if r.degree() == 0:
        return True
    f = radical(r)
    q = ctx.q
    root_q = math.isqrt(q)
    if root_q * root_q == q:
        # rational endpoints +-2*sqrt(q)
        t = 2 * root_q
        endpoint_roots = 0
        for end in (t, -t):
            lin = IntPoly([-end, 1])
            if (f % lin).is_zero():
                f = f.exact_div(lin)
                endpoint_roots += 1
        if f.degree() == 0:
            return True
        return count_real_roots_int_interval(f, -t, t) == f.degree()
    quad = IntPoly([-4 * q, 0, 1])  # x^2 - 4q, the minimal polynomial of +-2*sqrt(q)
    if (f % quad).is_zero():
        f = f.exact_div(quad)
    if f.degree() == 0:
        return True
    return count_real_roots_quad_interval(f, q) == f.degree()


# -- base extension -----------------------------------------------------------


def base_extension(qpoly: IntPoly, n: int) -> IntPoly:
    """Monic polynomial whose roots are the n-th powers of the roots of qpoly.

    By Newton's identities: the k-th power sum of the extension is the
    (k*n)-th power sum of the input.
    """
    if not qpoly.is_monic():
        raise ValueError("base extension needs a monic polynomial")
    if n < 1:
        raise ValueError("extension degree must be positive")
    if n == 1:
        return qpoly
    d = qpoly.degree()
    ps = power_sums(qpoly, d * n)
    return from_power_sums([ps[k * n - 1] for k in range(1, d + 1)], d)


def ratio_root_of_unity_free(qpoly: IntPoly, orders: set[int]) -> bool:
    """True iff no two roots of squarefree qpoly have ratio a root of unity of order dividing any m in orders."""
    d = radical(qpoly).degree()
    if d != qpoly.degree():
        raise ValueError("input must be squarefree")
    for m in sorted(orders):
        if radical(base_extension(qpoly, m)).degree() != qpoly.degree():
            return False
    return True


def np_forces_geom_simple(f: IntPoly, ctx: WeilContext) -> bool:
    """Newton polygon criterion: slopes exactly {1/g: g, 1-1/g: g} with g > 2."""
    if f.degree() % 2:
        return False
    g = f.degree() // 2
    if g <= 2:
        return False
    np_ = newton_polygon(f, ctx)
    want = ((Fraction(1, g), g), (Fraction(g - 1, g), g))
    return np_.segments == want
