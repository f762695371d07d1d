"""Exact polynomial routines that only the tests use, as independent routes
for cross-checks: the subresultant resultant, the pseudo-remainder scaled at
every step, Newton interpolation over Z, the square root of a monic square,
the one-shot base extension, homogenize and compose by whole `IntPoly`
products, and Newton inversion of power sums mod p."""
import operator
from fractions import Fraction

from orderone.intpoly import IntPoly, from_power_sums, power_sums, prem


def resultant(a: IntPoly, b: IntPoly) -> int:
    """Resultant over Z by the subresultant PRS (Collins/Cohen bookkeeping)."""
    if a.is_zero() or b.is_zero():
        return 0
    da, db = a.degree(), b.degree()
    if da == 0 and db == 0:
        return 1
    if da < db:
        sign = -1 if (da * db) % 2 else 1
        return sign * resultant(b, a)
    if db == 0:
        return b.lc() ** da
    ca, cb = abs(a.content()), abs(b.content())
    A, B = IntPoly(c // ca for c in a.coeffs), IntPoly(c // cb for c in b.coeffs)
    t = ca ** db * cb ** da
    g, h, s = 1, 1, 1
    while True:
        dA, dB = A.degree(), B.degree()
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
        R = prem(A, B)
        A = B
        divisor = g * h ** delta
        if any(c % divisor for c in R.coeffs):
            raise ArithmeticError("subresultant division failed")
        B = IntPoly(c // divisor for c in R.coeffs)
        g = A.lc()
        if delta > 0:
            num = g ** delta
            den = h ** (delta - 1)
            if num % den:
                raise ArithmeticError("subresultant h-update failed")
            h = num // den
        if B.is_zero():
            return 0
        if B.degree() <= 0:
            dA = A.degree()
            num = B.lc() ** dA
            den = h ** (dA - 1)
            if num % den:
                raise ArithmeticError("subresultant final step failed")
            return s * t * (num // den)


def prem_by_steps(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder by the textbook loop: at each of the deg a - deg b + 1
    steps scale the running remainder by lc(b), then cancel its top term."""
    if b.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    da, db = a.degree(), b.degree()
    if da < db:
        return a
    lead = b.lc()
    r = list(a.coeffs)
    for k in range(da, db - 1, -1):
        c = r[k]
        r = [lead * v for v in r]
        if c:
            for j, bc in enumerate(b.coeffs):
                r[k - db + j] -= c * bc
        # r[k] is now zero by construction
    return IntPoly(r)


def poly_sqrt(s: IntPoly) -> IntPoly:
    """Exact square root of a monic even-degree polynomial; raises if s is not a square."""
    if s.is_zero():
        return s
    if not s.is_monic() or s.degree() % 2:
        raise ValueError("not a monic square")
    d = s.degree() // 2
    p = [0] * (d + 1)
    p[d] = 1
    for i in range(d - 1, -1, -1):
        acc = s[d + i]
        for j in range(i + 1, d):
            k = d + i - j
            if i < k < d:
                acc -= p[j] * p[k]
        if acc % 2:
            raise ValueError("not a perfect square")
        p[i] = acc // 2
    root = IntPoly(p)
    if root * root != s:
        raise ValueError("not a perfect square")
    return root


def interpolate(points: list[tuple[int, int]]) -> IntPoly:
    """Newton-form interpolation through integer points; the result must be integer."""
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    # divided differences
    dd = [Fraction(y) for _, y in points]
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    # expand Newton form dd[0] + dd[1](x-x0) + dd[2](x-x0)(x-x1) + ...
    coeffs = [Fraction(0)] * len(points)
    basis = [Fraction(1)]  # running product (x-x0)...(x-x_{k-1})
    for k, c in enumerate(dd):
        for i, b in enumerate(basis):
            coeffs[i] += c * b
        nxt = [Fraction(0)] * (len(basis) + 1)
        for i, b in enumerate(basis):
            nxt[i] -= xs[k] * b
            nxt[i + 1] += b
        basis = nxt
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise ValueError("interpolation produced non-integer coefficients")
        out.append(int(c))
    return IntPoly(out)


def stride_base_extension(q: IntPoly, n: int) -> IntPoly:
    """The n-th base extension of monic q in one step: the power sums
    p_n, p_2n, ..., p_dn of q, read with stride n out of all d * n of them."""
    d = q.degree()
    ps = power_sums(q, d * n)
    return from_power_sums(ps[n - 1 :: n], d)


def homogenize_by_products(r: IntPoly, quad: IntPoly) -> IntPoly:
    """x^d * r(quad(x) / x), d = deg r: Horner in quad with x^(d - k) as the
    k-th digit, one `IntPoly` product and sum per step."""
    d = r.degree()
    acc = IntPoly()
    for k in range(d, -1, -1):
        acc = acc * quad + IntPoly([0] * (d - k) + [r[k]])
    return acc


def compose_by_products(f: IntPoly, inner: IntPoly) -> IntPoly:
    """f(inner(x)), Horner with one `IntPoly` product and sum per step."""
    acc = IntPoly()
    for c in reversed(f.coeffs):
        acc = acc * inner + IntPoly([c])
    return acc


def from_power_sums_mod_p(ps: list[int], p: int) -> tuple[int, ...]:
    """Monic polynomial mod p, lowest coefficient first, whose roots have power
    sums ps[0..d-1] (d = len(ps)): Newton inversion, which needs p > d."""
    d = len(ps)
    inv = [0, 1]  # inv[k] = 1/k mod p, each from the inverse of p mod k
    for k in range(2, d + 1):
        inv.append(-(p // k) * inv[p % k] % p)
    coeffs = [1] + [0] * d
    for k in range(1, d + 1):
        acc = ps[k - 1] + sum(map(operator.mul, coeffs[1:k], ps[k - 2::-1]))
        coeffs[k] = (-acc * inv[k]) % p
    return tuple(coeffs[::-1])
