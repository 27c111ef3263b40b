"""Exact integer arithmetic: primality and factoring.

Everything here is deterministic.  Primality is Miller-Rabin on the first k
primes, k the least count proven exact below n (``_EXACT_TIERS``; Jaeschke,
Math. Comp. 1993; Sorenson and Webster, Math. Comp. 2017): the 13 through 41
are exact below :data:`EXACT_BELOW`, about 3.3 * 10**24, the 12 through 37
only below about 3.2 * 10**23.  Nothing in this package tests larger numbers.
Factoring tests primality first, then trial-divides by the primes below
1000, and splits what remains with Pollard's rho.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter

# (psi_k, k): the first k primes as bases decide every n < psi_k, itself composite;
# psi_8 = psi_7, psi_10 = psi_11 = psi_9, and psi_13 is EXACT_BELOW.
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
EXACT_BELOW = 3_317_044_064_679_887_385_961_981
_EXACT_TIERS = (
    (2_047, 1), (1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4), (2_152_302_898_747, 5),
    (3_474_749_660_383, 6), (341_550_071_728_321, 7), (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12), (EXACT_BELOW, 13),
)
_TIER_BOUNDS = tuple(bound for bound, _ in _EXACT_TIERS)
# The bases for n < _TIER_BOUNDS[i] at index i; past EXACT_BELOW all 13, unproven.
_TIER_BASES = tuple(MILLER_RABIN_BASES[:k] for _, k in _EXACT_TIERS) + (MILLER_RABIN_BASES,)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def sieve(limit: int) -> list[int]:
    """All primes <= limit, ascending (Eratosthenes)."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


_TRIAL_PRIMES = tuple(sieve(1000))


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n, exact below EXACT_BELOW, with bases sized to n."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _TIER_BASES[bisect_right(_TIER_BOUNDS, n)]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (deterministic parameter sweep)."""
    for c in range(1, 1000):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


def factorize(n: int) -> Counter[int]:
    """Prime factorization of n >= 1 as a Counter {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    if is_prime(n):
        return Counter({n: 1})
    out: Counter[int] = Counter()
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] += 1
            n //= p
    # Past the trial primes: split recursively with rho.
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] += 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n >= 1, ascending."""
    return tuple(sorted(factorize(n)))


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n (n >= 1)."""
    if n < 1 or p < 2:
        raise ValueError(f"valuation undefined for n={n}, p={p}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e
