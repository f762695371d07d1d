"""Elementary number theory on positive integers.

There is one trial division, least_prime_factor: factorize peels least prime
factors off with it, and everything but is_power_of_two is derived from that.
The integers factored here (class indices, extension degrees, levels, the
prime p of a field size q) are small.
"""
from __future__ import annotations

import math


def least_prime_factor(n: int, bound: int | None = None) -> int:
    """The least prime factor of n >= 2, by trial division up to isqrt(n), or
    only up to bound when one is given; n itself when no divisor is found."""
    limit = math.isqrt(n) if bound is None else min(math.isqrt(n), bound)
    for k in range(2, limit + 1):
        if n % k == 0:
            return k
    return n


def factorize(n: int) -> dict[int, int]:
    """{p: e} with n = prod p^e, primes ascending; factorize(1) is {}."""
    if n < 1:
        raise ValueError(f"can only factorize a positive integer, not {n}")
    out: dict[int, int] = {}
    while n > 1:
        p = least_prime_factor(n)
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
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
    return n > 1 and least_prime_factor(n) == n
