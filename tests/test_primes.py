from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classgraph.primes import (
    _EXACT_TIERS,
    EXACT_BELOW,
    factorize,
    is_prime,
    prime_factors,
    sieve,
    valuation,
)
from oracles import sieve_primes

# Jaeschke (1993) and Sorenson-Webster (2017): the least strong pseudoprime
# to the first k prime bases, for k = 1..12, each below EXACT_BELOW.
PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
)


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


def test_is_prime_rejects_the_least_strong_pseudoprime_of_every_tier():
    # Each psi_k fools the first k bases, so each tier must use more than
    # k of them at psi_k.  psi_12 = 399,165,290,221 * 798,330,580,441
    # fooled all twelve bases through 37 that were once used everywhere.
    assert all(psi < EXACT_BELOW for psi in PSI)
    assert [is_prime(psi) for psi in PSI] == [False] * 12
    # Trial division catches psi_1 = 23 * 89 first; 8,321 = 53 * 157 is the
    # least strong pseudoprime to base 2 that it lets through.
    assert not is_prime(8_321)
    assert {bound for bound, _ in _EXACT_TIERS} == set(PSI) | {EXACT_BELOW}


def test_is_prime_agrees_with_sympy_in_every_tier():
    # Bit lengths drawn uniformly, so every tier's band of n is hit, then
    # the next prime after each of the first half, and psi_k +- 2 on either
    # side of each tier's bound.
    from sympy import isprime, nextprime

    rng = random.Random(20260)
    bounds = [bound for bound, _ in _EXACT_TIERS]
    draws = [psi + d for psi in PSI for d in (-2, 2)]
    while len(draws) < 2000:
        bits = rng.randrange(2, EXACT_BELOW.bit_length() + 1)
        n = rng.getrandbits(bits) | 1 << (bits - 1)
        if n < EXACT_BELOW:
            draws.append(n)
    draws += [p for p in map(nextprime, draws[: len(draws) // 2]) if p < EXACT_BELOW]
    for n in draws:
        assert is_prime(n) == isprime(n), n
    hit = {next(i for i, bound in enumerate(bounds) if n < bound) for n in draws if isprime(n)}
    assert hit == set(range(len(bounds)))


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
