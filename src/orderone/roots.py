"""Exact roots of unity e^(2*pi*i*k/n) in canonical reduced form."""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class RootOfUnity:
    """The root of unity e^(2*pi*i*num/den) with 0 <= num < den and gcd(num, den) = 1."""

    den: int
    num: int

    @staticmethod
    def make(num: int, den: int) -> "RootOfUnity":
        if den <= 0:
            raise ValueError("denominator must be positive")
        num %= den
        g = math.gcd(num, den)
        num, den = num // g, den // g
        if num == 0:
            den = 1
        return RootOfUnity(den, num)

    @property
    def order(self) -> int:
        return self.den

    def is_one(self) -> bool:
        return self.den == 1

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity.make(self.num * other.den + other.num * self.den, self.den * other.den)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity.make(-self.num, self.den)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity.make(self.num * k, self.den)

    def conjugate(self) -> "RootOfUnity":
        return self.inverse()

    def negated(self) -> "RootOfUnity":
        """The root -e^(2*pi*i*num/den), i.e. multiplication by the order-2 root."""
        return self * RootOfUnity(2, 1)

    def is_real(self) -> bool:
        return self.den in (1, 2)

    def angle(self) -> float:
        return 2.0 * math.pi * self.num / self.den

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    @staticmethod
    def parse(text: str) -> "RootOfUnity":
        num, den = text.split("/")
        r = RootOfUnity.make(int(num), int(den))
        if (r.num, r.den) != (int(num), int(den)):
            raise ValueError(f"root of unity {text!r} is not in reduced canonical form")
        return r


ROOT_ONE = RootOfUnity(1, 0)
ROOT_MINUS_ONE = RootOfUnity(2, 1)


def root(num: int, den: int) -> RootOfUnity:
    return RootOfUnity.make(num, den)
