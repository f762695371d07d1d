"""Dense univariate polynomials over Z with exact arbitrary-precision arithmetic.

Coefficients are stored lowest degree first, trailing zeros trimmed; the zero
polynomial has an empty coefficient tuple and degree -1.  Everything here is
pure and exact: no floats, no modular shortcuts unless explicitly asked for.

There is one long division, `IntPoly.__divmod__`, and `prem` runs on it: the
Euclidean remainder of a, scaled up front so every quotient coefficient is an integer.
The one pseudo-remainder sequence is the signed, content-stripped Sturm chain:
`radical` reads gcd(f, f') off its last term, and `weil.is_real_weil` counts
real roots by its sign variations.
"""
from __future__ import annotations

import decimal
import itertools
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class IntPoly:
    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(int(c) for c in cs))

    # -- basic queries ----------------------------------------------------

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return IntPoly(a + b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return IntPoly(a - b for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return IntPoly(-c for c in self.coeffs)

    def __mul__(self, other):
        a, b = self.coeffs, _coerce(other).coeffs
        return IntPoly(_mul_coeffs(a, b) if len(a) >= len(b) else _mul_coeffs(b, a))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        # square only while a higher bit is left, so no product outgrows the result
        result, base = IntPoly([1]), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other):
        """Exact Euclidean division; every quotient coefficient must be an integer."""
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        d, lead = other.degree(), other.lc()
        # the divisor's nonzero terms below its lead; r[k + d] is read, never cleared
        terms = [(j, b) for j, b in enumerate(other.coeffs[:-1]) if b]
        q = [0] * (len(r) - d)
        for k in range(len(r) - 1 - d, -1, -1):
            c, rem = divmod(r[k + d], lead)
            if rem:
                raise ValueError(f"inexact division: {r[k + d]} not divisible by {lead}")
            q[k] = c
            if c:
                for j, b in terms:
                    r[k + j] -= c * b
        return IntPoly(q), IntPoly(r[:d])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "IntPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    # -- calculus and normal forms ----------------------------------------

    def derivative(self) -> "IntPoly":
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def content(self) -> int:
        """gcd of coefficients (0 for the zero polynomial), sign chosen so
        content * primitive has the original lc sign."""
        g = math.gcd(*self.coeffs)
        return g if self.lc() > 0 else -g

    def primitive(self) -> "IntPoly":
        if self.is_zero():
            return self
        c = self.content()
        return IntPoly(a // c for a in self.coeffs)

    def monic_normalized(self) -> "IntPoly":
        """Scale by -1 if the leading coefficient is -1; error if |lc| != 1."""
        if self.lc() == 1:
            return self
        if self.lc() == -1:
            return -self
        raise ValueError("polynomial cannot be made monic over Z")

    # -- evaluation and composition ---------------------------------------

    def eval(self, x):
        """Horner evaluation; works for int, Fraction, or any ring element."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "IntPoly") -> "IntPoly":
        """self(inner(x)), by packed Horner in inner (see _horner_packed).

        |coefficient| <= ||self||_1 * max(1, ||inner||_1)^deg self, as each
        coefficient of inner^k is at most ||inner||_1^k in size."""
        inner = _coerce(inner)
        if self.is_zero():
            return self
        bound = _norm1(self.coeffs) * max(1, _norm1(inner.coeffs)) ** self.degree()
        length = self.degree() * max(0, inner.degree()) + 1
        return IntPoly(_horner_packed(self.coeffs, inner.coeffs, 0, _digit_bytes(bound), length))

    def __repr__(self):
        if self.is_zero():
            return "IntPoly('0')"
        parts = []
        for i in range(self.degree(), -1, -1):
            c = self[i]
            if not c:
                continue
            sign = " + " if (c > 0 and parts) else (" - " if parts else ("-" if c < 0 else ""))
            mag = abs(c)
            term = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            co = int_to_decimal(mag) if (mag != 1 or i == 0) else ""
            parts.append(sign + co + term)
        return f"IntPoly('{''.join(parts)}')"


def int_to_decimal(n: int) -> str:
    """The decimal digits of n.  `str(n)` refuses ints past Python's int-to-str
    digit limit (4300 digits by default); `Decimal(n)` converts exactly at any size."""
    return str(decimal.Decimal(n))


def decimal_to_int(s: str) -> int:
    """The int with the decimal digits s, exact at any size (see int_to_decimal)."""
    return int(decimal.Decimal(s))


def _coerce(v) -> IntPoly:
    if isinstance(v, IntPoly):
        return v
    if isinstance(v, int):
        return IntPoly([v])
    raise TypeError(f"cannot coerce {type(v)!r} to IntPoly")


def _mul_coeffs(long, short) -> list[int]:
    """Coefficients of the product of two coefficient sequences (lowest degree
    first): one scaled add of `long` per nonzero coefficient of `short`, so
    pass the shorter sequence second.  Trailing zeros are not trimmed."""
    if not long or not short:
        return []
    n = len(long)
    out = [0] * (n + len(short) - 1)
    for j, c in enumerate(short):
        window = zip(out[j:j + n], long)
        if c == 1:
            out[j:j + n] = [o + a for o, a in window]
        elif c == -1:
            out[j:j + n] = [o - a for o, a in window]
        elif c:
            out[j:j + n] = [o + c * a for o, a in window]
    return out


def _norm1(coeffs) -> int:
    return sum(map(abs, coeffs))


def _digit_bytes(bound: int) -> int:
    """Bytes per digit that hold every integer of size at most bound as a
    signed digit, strictly inside (-2^(b-1), 2^(b-1)) for b = 8 * bytes."""
    return bound.bit_length() // 8 + 1


def _horner_packed(digits, inner, shift: int, width: int, length: int) -> list[int]:
    """The `length` coefficients, lowest first, of the Horner scheme
    acc <- acc * inner + c x^(shift j), run over the digits from the top
    (c = digits[d - j] at step j = 0, ..., d), by Kronecker substitution.

    Each polynomial is held as its value at x = 2^b, b = 8 * width bits per
    digit, in one Python int, so a step is acc = sum_i inner_i (acc << b i)
    + (c << b shift j) over the nonzero inner_i: a few shifts and adds in C.
    Evaluation at 2^b is a ring map Z[x] -> Z, so the final value is the
    result's value at 2^b, whatever the intermediate values are.  It is read
    back as signed base-2^b digits: adding 2^(b-1) to every digit makes each
    one a byte slice of `to_bytes`.  That reading is the result exactly when
    each result coefficient lies strictly inside (-2^(b-1), 2^(b-1)), which
    the caller's width, from an a priori bound, guarantees.  A value that
    does not fit `length` digits, or a digit at -2^(b-1) (an all-zero slice),
    raises ArithmeticError; a width below the bound can still go undetected.
    """
    step = 8 * width
    terms = [(a, step * i) for i, a in enumerate(inner) if a]
    acc = 0
    for j, c in enumerate(reversed(digits)):
        nxt = c << (step * shift * j)
        for a, s in terms:
            nxt += (a * acc) << s
        acc = nxt
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * length, "little")
    try:
        raw = (acc + offset).to_bytes(width * length, "little")
    except OverflowError:
        raise ArithmeticError(f"packed Horner value does not fit {length} digits of {step} bits") from None
    out = [int.from_bytes(raw[i:i + width], "little") for i in range(0, width * length, width)]
    if 0 in out:
        raise ArithmeticError(f"a coefficient falls outside the {step}-bit signed digit range")
    half = 1 << (step - 1)
    return [v - half for v in out]


def homogenize(r: IntPoly, quad: IntPoly) -> IntPoly:
    """x^d * r(quad(x) / x) = sum_k r_k * quad^k * x^(d - k), d = deg r, for a
    quadratic quad; packed Horner in quad (see _horner_packed), where after j
    steps the digit r_(d - j) lands on x^j.

    |coefficient| <= ||r||_1 * ||quad||_1^d, as each coefficient of quad^k is
    at most ||quad||_1^k <= ||quad||_1^d in size."""
    if quad.degree() != 2:
        raise ValueError("homogenize needs a quadratic")
    if r.is_zero():
        return r
    bound = _norm1(r.coeffs) * _norm1(quad.coeffs) ** r.degree()
    return IntPoly(_horner_packed(r.coeffs, quad.coeffs, 1, _digit_bytes(bound), 2 * r.degree() + 1))


def dehomogenize(f: IntPoly, quad: IntPoly) -> IntPoly:
    """The r with homogenize(r, quad) == f; ValueError if there is none.

    quad^k * x^(d - k) is monic of degree d + k, so the coefficient of
    x^(d + k) left after peeling the higher terms is r_k.
    """
    if f.degree() % 2:
        raise ValueError("a homogenized polynomial has even degree")
    d = f.degree() // 2
    powers = [[1]]
    for _ in range(d):
        powers.append(_mul_coeffs(powers[-1], quad.coeffs))
    residual = list(f.coeffs)
    r = [0] * (d + 1)
    for k in range(d, -1, -1):
        c = r[k] = residual[d + k]
        if c:
            for i, a in enumerate(powers[k], d - k):
                residual[i] -= c * a
    if any(residual):
        raise ValueError("not in the image of the transform")
    return IntPoly(r)


def prem(a: IntPoly, b: IntPoly) -> IntPoly:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a = q*b + prem(a, b), and
    a itself when deg a < deg b.  That power of lc(b) makes every quotient
    coefficient an integer, so prem is the Euclidean remainder of the scaled a."""
    if b.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    if a.degree() < b.degree():
        return a
    return (a * b.lc() ** (a.degree() - b.degree() + 1)) % b


def sturm_sequence(f: IntPoly) -> list[IntPoly]:
    """Sturm chain f, f', -rem(f, f'), ... down to a constant or gcd(f, f').

    f and f' are made primitive with a positive leading coefficient; when
    lc(f) < 0 that negates both, and so every later term, which changes
    neither the sign variations nor the gcd.
    Each later term is the negated pseudo-remainder of the two before it,
    divided by its content with the sign that makes it a positive multiple of
    the true negated remainder, so sign variations count distinct real roots
    exactly.  The last term is gcd(f, f') up to a constant factor.
    """
    seq = [f.primitive(), f.derivative().primitive()]
    while seq[-1].degree() > 0:
        a, b = seq[-2], seq[-1]
        r = prem(a, b)
        if r.is_zero():
            break
        # prem scales rem(a, b) by lc(b)^(deg a - deg b + 1); fold that sign
        # and the negation into the content division
        c = math.gcd(*r.coeffs)
        if b.lc() > 0 or (a.degree() - b.degree()) % 2:
            c = -c
        seq.append(IntPoly(v // c for v in r.coeffs))
    return seq


def radical(f: IntPoly) -> IntPoly:
    """Squarefree part f / gcd(f, f'), primitive with positive leading
    coefficient (so monic when f is monic); the gcd is the last term of f's
    Sturm chain."""
    if f.is_zero():
        raise ValueError("radical of the zero polynomial")
    if f.degree() == 0:
        return IntPoly([1])
    g = sturm_sequence(f)[-1]
    r = f.primitive()
    return r.exact_div(g).primitive() if g.degree() > 0 else r


def power_sums(f: IntPoly, count: int) -> list[int]:
    """Power sums p_1..p_count of the roots of a monic integer polynomial, by Newton's identities."""
    if not f.is_monic():
        raise ValueError("power sums need a monic polynomial")
    d = f.degree()
    # e[i] = (-1)^i * elementary symmetric = coefficient of x^(d-i)
    c = [f[d - i] for i in range(d + 1)]
    ps: list[int] = []
    for k in range(1, count + 1):
        acc = -k * c[k] if k <= d else 0
        for i in range(1, min(k, d + 1)):
            acc -= c[i] * ps[k - i - 1]
        ps.append(acc)
    return ps


def from_power_sums(ps: list[int], degree: int) -> IntPoly:
    """Monic polynomial of the given degree whose roots have power sums ps[0..degree-1]."""
    if len(ps) < degree:
        raise ValueError("not enough power sums")
    c = [1] + [0] * degree
    for k in range(1, degree + 1):
        acc = ps[k - 1]
        for i in range(1, k):
            acc += c[i] * ps[k - i - 1]
        if acc % k:
            raise ValueError("power sums do not come from an integer polynomial")
        c[k] = -(acc // k)
    return IntPoly([c[degree - i] for i in range(degree + 1)])
