"""Elementary number theory on positive integers.

Everything but is_power_of_two is derived from one trial-division
factorization; the integers factored here (class indices, extension degrees,
levels, the prime p of a field size q) are small.
"""
from __future__ import annotations

import math


def factorize(n: int) -> dict[int, int]:
    """{p: e} with n = prod p^e, primes ascending; factorize(1) is {}."""
    if n < 1:
        raise ValueError(f"can only factorize a positive integer, not {n}")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


def divisors(n: int) -> list[int]:
    """Positive divisors of n, ascending."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def euler_phi(n: int) -> int:
    return math.prod(p ** (e - 1) * (p - 1) for p, e in factorize(n).items())


def is_power_of_two(n: int) -> bool:
    """True for 1, 2, 4, 8, ...; False for every n < 1."""
    return n >= 1 and n & (n - 1) == 0


def is_prime(n: int) -> bool:
    """False for every n < 2."""
    return n > 1 and factorize(n) == {n: 1}
