import pytest
import sympy as sp

from orderone.arith import divisors, euler_phi, factorize, is_prime


def test_against_sympy():
    for n in range(1, 3000):
        assert factorize(n) == sp.factorint(n), n
        assert divisors(n) == sp.divisors(n), n
        assert euler_phi(n) == sp.totient(n), n


def test_is_prime_against_sympy():
    for n in range(-5, 3000):
        assert is_prime(n) == sp.isprime(n), n


@pytest.mark.parametrize("n", [0, -1, -12])
def test_factorize_rejects_non_positive(n):
    with pytest.raises(ValueError):
        factorize(n)
