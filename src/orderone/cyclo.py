"""Cyclotomic integers Z[zeta_N]: exact sums of roots of unity and their
zero and parity tests.

A CycInt at level N keeps a full length-N coordinate vector on the powers
zeta_N^0 .. zeta_N^(N-1) and reduces modulo the N-th cyclotomic polynomial
only when a zero test, parity test, or power-basis form is requested.
All values are immutable; every operation is pure.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import factorize
from .intpoly import IntPoly
from .roots import RootOfUnity


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, prod over squarefree s | n of
    (x^(n/s) - 1)^mu(s): the factors with mu(s) = 1 are multiplied out, then
    each with mu(s) = -1 is divided out exactly."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    primes = list(factorize(n))
    up, down = [], []
    for size in range(len(primes) + 1):
        for s in itertools.combinations(primes, size):
            (down if size % 2 else up).append(n // math.prod(s))
    c = [1]
    for k in up:  # c * (x^k - 1)
        c = [(c[i - k] if i >= k else 0) - (c[i] if i < len(c) else 0) for i in range(len(c) + k)]
    for k in down:  # c = q * (x^k - 1), so q_i = q_(i-k) - c_i
        q = [0] * (len(c) - k)
        for i in range(len(q)):
            q[i] = (q[i - k] if i >= k else 0) - c[i]
        c = q
    return IntPoly(c)


@lru_cache(maxsize=None)
def _reduction_table(level: int) -> tuple[tuple[int, ...], ...]:
    """Row k: coordinates of zeta^k on the power basis zeta^0..zeta^(phi-1), for k < level."""
    phi_poly = cyclotomic_poly(level)
    phi = phi_poly.degree()
    rows = [tuple(1 if i == k else 0 for i in range(phi)) for k in range(phi)]
    # iterate x^k = x * x^(k-1) mod Phi_level; with no carry it is a plain shift
    prev = rows[-1]
    for _ in range(phi, level):
        nxt = [0, *prev[:-1]]
        carry = prev[-1]
        if carry:
            for i in range(phi):
                nxt[i] -= carry * phi_poly[i]
        prev = tuple(nxt)
        rows.append(prev)
    return tuple(rows)


@dataclass(frozen=True)
class CycInt:
    """An element of Z[zeta_N]: sum of coeffs[i] * zeta_N^i.

    Equality is the dataclass's: the same level and the same coefficient
    vector.  That implies equal values, so `==` never calls two different
    values equal; equal values at different levels, or with vectors that
    differ by a multiple of Phi_N, compare unequal."""

    level: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.level < 1 or len(self.coeffs) != self.level:
            raise ValueError("coefficient vector length must equal the level")

    def reduced(self) -> tuple[int, ...]:
        """Coordinates on the power basis zeta^0..zeta^(phi(N)-1), reduced mod Phi_N."""
        table = _reduction_table(self.level)
        out = [0] * len(table[0])
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

    def __repr__(self):
        terms = [f"{a}*z{self.level}^{i}" for i, a in enumerate(self.coeffs) if a]
        return f"CycInt({' + '.join(terms) or '0'})"


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
