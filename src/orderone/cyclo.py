"""Exact arithmetic in rings of cyclotomic integers Z[zeta_N].

A CycInt at level N keeps a full length-N coordinate vector on the powers
zeta_N^0 .. zeta_N^(N-1) and reduces modulo the N-th cyclotomic polynomial
only when a zero test, parity test, or power-basis form is requested.
Arithmetic between different levels embeds both operands into lcm of levels.
All values are immutable; every operation is pure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .intpoly import IntPoly
from .roots import RootOfUnity


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, by exact division of x^n - 1 by lower ones."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    poly = IntPoly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            poly = poly.exact_div(cyclotomic_poly(d))
    return poly


@lru_cache(maxsize=None)
def _reduction_table(level: int) -> tuple[tuple[int, ...], ...]:
    """Row k: coordinates of zeta^k on the power basis zeta^0..zeta^(phi-1), for k < level."""
    phi_poly = cyclotomic_poly(level)
    phi = phi_poly.degree()
    rows = []
    for k in range(phi):
        rows.append(tuple(1 if i == k else 0 for i in range(phi)))
    # iterate x^k = x * x^(k-1) mod Phi_level
    prev = list(rows[phi - 1]) if phi > 0 else []
    for _ in range(phi, level):
        nxt = [0] + prev[:-1] if phi > 1 else [0] * phi
        if phi == 1:
            nxt = [0]
        carry = prev[-1] if phi >= 1 else 0
        if carry:
            for i in range(phi):
                nxt[i] -= carry * phi_poly[i]
        rows.append(tuple(nxt))
        prev = list(nxt)
    return tuple(rows)


@dataclass(frozen=True)
class CycInt:
    """An element of Z[zeta_N]: sum of coeffs[i] * zeta_N^i."""

    level: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.level < 1 or len(self.coeffs) != self.level:
            raise ValueError("coefficient vector length must equal the level")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(level: int = 1) -> "CycInt":
        return CycInt(level, (0,) * level)

    @staticmethod
    def integer(n: int, level: int = 1) -> "CycInt":
        return CycInt(level, (n,) + (0,) * (level - 1))

    @staticmethod
    def from_root(r: RootOfUnity, level: int | None = None) -> "CycInt":
        lv = r.den if level is None else level
        if lv % r.den:
            raise ValueError("level must be a multiple of the root order")
        c = [0] * lv
        c[(r.num * (lv // r.den)) % lv] = 1
        return CycInt(lv, tuple(c))

    # -- level handling ------------------------------------------------------

    def embed(self, level: int) -> "CycInt":
        """Embed into Z[zeta_level] for level a multiple of self.level (index map i -> k*i)."""
        if level == self.level:
            return self
        if level % self.level:
            raise ValueError("can only embed into a multiple level")
        k = level // self.level
        c = [0] * level
        for i, a in enumerate(self.coeffs):
            if a:
                c[i * k] += a
        return CycInt(level, tuple(c))

    @staticmethod
    def common(a: "CycInt", b: "CycInt") -> tuple["CycInt", "CycInt"]:
        lv = math.lcm(a.level, b.level)
        return a.embed(lv), b.embed(lv)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        a, b = CycInt.common(self, other)
        return CycInt(a.level, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.level, tuple(-x for x in self.coeffs))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.level, tuple(other * x for x in self.coeffs))
        if isinstance(other, RootOfUnity):
            return self * CycInt.from_root(other)
        a, b = CycInt.common(self, _coerce(other))
        n = a.level
        out = [0] * n
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        out[(i + j) % n] += x * y
        return CycInt(n, tuple(out))

    __rmul__ = __mul__

    def conjugate(self) -> "CycInt":
        """Complex conjugation: the coefficient of zeta^i moves to index -i mod N."""
        n = self.level
        out = [0] * n
        for i, x in enumerate(self.coeffs):
            out[(-i) % n] += x
        return CycInt(n, tuple(out))

    # -- reduced form and predicates -----------------------------------------

    def reduced(self) -> tuple[int, ...]:
        """Coordinates on the power basis zeta^0..zeta^(phi(N)-1), reduced mod Phi_N."""
        table = _reduction_table(self.level)
        phi = len(table[0]) if self.level > 1 else 1
        out = [0] * phi
        for k, a in enumerate(self.coeffs):
            if a:
                row = table[k]
                for i, t in enumerate(row):
                    if t:
                        out[i] += a * t
        return tuple(out)

    def is_zero(self) -> bool:
        return not any(self.reduced())

    def is_even(self) -> bool:
        """True iff the value lies in 2*Z[zeta_N].

        Z[zeta_N] is the full ring of integers of Q(zeta_N), so parity of the
        power-basis coordinates decides divisibility by 2.
        """
        return all(c % 2 == 0 for c in self.reduced())

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CycInt.integer(other)
        if not isinstance(other, CycInt):
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None  # equality crosses levels; hash by identity would lie

    def __repr__(self):
        terms = [f"{a}*z{self.level}^{i}" for i, a in enumerate(self.coeffs) if a]
        return f"CycInt({' + '.join(terms) or '0'})"


def _coerce(v) -> CycInt:
    if isinstance(v, CycInt):
        return v
    if isinstance(v, int):
        return CycInt.integer(v)
    if isinstance(v, RootOfUnity):
        return CycInt.from_root(v)
    raise TypeError(f"cannot coerce {type(v)!r} to CycInt")


def root_sum(parts: list[tuple[int, RootOfUnity]], level: int | None = None) -> CycInt:
    """Exact sum of sign*root contributions at the lcm level (or a given multiple)."""
    lv = level or math.lcm(*(r.den for _, r in parts))
    c = [0] * lv
    for sign, r in parts:
        if lv % r.den:
            raise ValueError("level does not contain all roots")
        c[(r.num * (lv // r.den)) % lv] += sign
    return CycInt(lv, tuple(c))


def reduced_root_vector(r: RootOfUnity, level: int) -> tuple[int, ...]:
    """Power-basis coordinates of a root embedded at the given level."""
    table = _reduction_table(level)
    return table[(r.num * (level // r.den)) % level]
