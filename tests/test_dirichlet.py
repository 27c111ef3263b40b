from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classgraph import BoundExhausted, PrimeRequest, dirichlet, find_primes_in_ap
from classgraph.primes import EXACT_BELOW
from oracles import sieve_primes


def test_example_mod3():
    req = PrimeRequest(count=2, modulus=3, residue=1)
    assert find_primes_in_ap(req) == [7, 13]


def test_example_exclusion():
    req = PrimeRequest(count=1, modulus=5, residue=1, exclude=frozenset({11}))
    assert find_primes_in_ap(req) == [31]


def test_invariant_rejects_non_coprime():
    with pytest.raises(ValueError):
        PrimeRequest(count=1, modulus=4, residue=2)


def test_invariant_rejects_bad_count_and_modulus():
    with pytest.raises(ValueError):
        PrimeRequest(count=0, modulus=3, residue=1)
    with pytest.raises(ValueError):
        PrimeRequest(count=1, modulus=0, residue=1)


def test_bound_exhausted_message(monkeypatch):
    # Two primes may take four terms: 1, 102, 203 and 304 hold no prime.
    monkeypatch.setattr(dirichlet, "TERMS_PER_PRIME", 2)
    with pytest.raises(
        BoundExhausted,
        match=r"found 0 of 2 primes congruent to 1 \(mod 101\) in the 4 terms allowed by "
        r"the prime search budget of 2 terms per prime",
    ):
        find_primes_in_ap(PrimeRequest(count=2, modulus=101, residue=1))


def test_term_budget_is_per_prime(monkeypatch):
    # 1 (mod 10): terms 1, 11, 21, ..., holding the primes 11, 31, 41, 61, 71.
    tested: list[int] = []
    real_is_prime = dirichlet.is_prime
    monkeypatch.setattr(dirichlet, "is_prime", lambda n: tested.append(n) or real_is_prime(n))
    monkeypatch.setattr(dirichlet, "TERMS_PER_PRIME", 2)
    assert find_primes_in_ap(PrimeRequest(count=4, modulus=10, residue=1)) == [11, 31, 41, 61]
    assert tested == [11, 21, 31, 41, 51, 61]
    tested.clear()
    # Six primes may take six terms, 1 to 51, which hold three.
    monkeypatch.setattr(dirichlet, "TERMS_PER_PRIME", 1)
    with pytest.raises(BoundExhausted, match=r"found 3 of 6 .* in the 6 terms allowed"):
        find_primes_in_ap(PrimeRequest(count=6, modulus=10, residue=1))
    assert tested == [11, 21, 31, 41, 51]


def test_search_stops_below_the_exact_primality_limit(monkeypatch):
    tested: list[int] = []
    monkeypatch.setattr(dirichlet, "is_prime", lambda n: tested.append(n) or False)
    # Finding no prime, the search runs to the last term below the limit,
    # well inside the budget of 1,000 terms.
    modulus = 10**23
    with pytest.raises(
        BoundExhausted, match=f"in the 34 terms allowed by the exact-primality limit {EXACT_BELOW}"
    ):
        find_primes_in_ap(PrimeRequest(count=1, modulus=modulus, residue=7))
    assert len(tested) == 34 and tested[0] == 7
    assert tested[-1] < EXACT_BELOW <= tested[-1] + modulus
    tested.clear()
    # The term after 1 is the limit itself, so nothing is tested.
    with pytest.raises(BoundExhausted, match="exact-primality limit"):
        find_primes_in_ap(PrimeRequest(count=1, modulus=EXACT_BELOW - 1, residue=1))
    assert tested == []


def test_small_residue_prime_included():
    assert find_primes_in_ap(PrimeRequest(count=1, modulus=3, residue=2)) == [2]


def test_modulus_one():
    assert find_primes_in_ap(PrimeRequest(count=4, modulus=1, residue=0)) == [2, 3, 5, 7]


def test_against_sieve_oracle():
    primes = sieve_primes(10**6)
    for modulus, residue in [(3, 1), (4, 3), (15, 2), (7, 5), (12, 1)]:
        expected = [p for p in primes if p % modulus == residue][:8]
        got = find_primes_in_ap(
            PrimeRequest(count=8, modulus=modulus, residue=residue)
        )
        assert got == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.integers(1, 59), st.integers(1, 4))
def test_properties(modulus, residue, count):
    import math

    if math.gcd(residue, modulus) != 1:
        return
    req = PrimeRequest(count=count, modulus=modulus, residue=residue)
    out = find_primes_in_ap(req)
    assert out == sorted(set(out))
    assert len(out) == count
    for p in out:
        assert p % modulus == residue % modulus
    assert out == find_primes_in_ap(req)  # deterministic
