from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classgraph.primes import (
    factorize,
    is_prime,
    prime_factors,
    sieve,
    valuation,
)
from oracles import sieve_primes


def test_is_prime_matches_sieve_up_to_20000():
    expected = set(sieve_primes(20000))
    for n in range(20000 + 1):
        assert is_prime(n) == (n in expected), n


def test_sieve_matches_independent_sieve():
    assert sieve(10_000) == sieve_primes(10_000)


@pytest.mark.parametrize(
    "n,expected",
    [
        (561, False),  # Carmichael
        (1105, False),  # Carmichael
        (3215031751, False),  # strong pseudoprime to bases 2,3,5,7
        (2**61 - 1, True),
        (1_000_000_007, True),
        (1_000_000_007 * 998_244_353, False),
    ],
)
def test_is_prime_known_values(n, expected):
    assert is_prime(n) is expected


def test_factorize_small():
    assert dict(factorize(1)) == {}
    assert dict(factorize(12)) == {2: 2, 3: 1}
    assert dict(factorize(97)) == {97: 1}
    assert dict(factorize(2 * 3 * 5 * 7 * 11 * 13)) == {2: 1, 3: 1, 5: 1, 7: 1, 11: 1, 13: 1}


def test_factorize_large_semiprime():
    p, q = 1_000_003, 1_000_033
    assert dict(factorize(p * q)) == {p: 1, q: 1}


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**9))
def test_factorize_reconstructs(n):
    fac = factorize(n)
    assert math.prod(p**e for p, e in fac.items()) == n
    for p in fac:
        assert is_prime(p)


def test_prime_factors_sorted_distinct():
    assert prime_factors(360) == (2, 3, 5)
    assert prime_factors(1) == ()


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(48, 5) == 0
    assert valuation(1, 7) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)
