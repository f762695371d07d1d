import pytest
import sympy as sp

from orderone.arith import divisors, euler_phi, factorize, is_power_of_two, is_prime


def test_against_sympy():
    for n in range(1, 3000):
        assert factorize(n) == sp.factorint(n), n
        assert divisors(n) == sp.divisors(n), n
        assert euler_phi(n) == sp.totient(n), n


def test_is_prime_against_sympy():
    for n in range(-5, 3000):
        assert is_prime(n) == sp.isprime(n), n


def test_is_power_of_two_by_brute_force():
    powers = {2 ** k for k in range(12)}
    for n in range(-5, 3001):
        assert is_power_of_two(n) == (n in powers), n


@pytest.mark.parametrize("n", [0, -1, -12])
def test_factorize_rejects_non_positive(n):
    with pytest.raises(ValueError):
        factorize(n)
