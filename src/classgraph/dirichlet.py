"""Deterministic search for primes in arithmetic progressions.

Dirichlet guarantees infinitely many primes ``residue (mod modulus)`` when
the two are coprime, but says nothing about how early they appear.  The
cost of a search is the number of progression terms it tests, so the
prime search budget is :data:`TERMS_PER_PRIME` terms per prime asked for.
No term at or past :data:`~classgraph.primes.EXACT_BELOW` is tested,
because primality is proven exact only below it.  A search that reaches
either limit raises BoundExhausted rather than looping on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import BoundExhausted
from .primes import EXACT_BELOW, is_prime

# Over every block tuple with m1 + m2 + m3 + m4 <= 16 the builder's kernel
# primes lie at most 103 terms per prime into their progressions (155 in
# the longest single search), so 1,000 leaves about tenfold headroom.  A
# budget per prime, not a flat total, keeps large blocks buildable:
# (1500, 1, 1, 1) tests 9,255 terms for its 1,500 kernel primes.
TERMS_PER_PRIME = 1000


@dataclass(frozen=True)
class PrimeRequest:
    """How many primes to find, in which progression, skipping which ones."""

    count: int
    modulus: int
    residue: int
    exclude: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "exclude", frozenset(self.exclude))
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if math.gcd(self.residue, self.modulus) != 1:
            raise ValueError(
                f"residue {self.residue} and modulus {self.modulus} are not coprime"
            )


def find_primes_in_ap(request: PrimeRequest) -> list[int]:
    """The first `count` primes in the progression, ascending.

    Deterministic: same request, same list.  Raises BoundExhausted when the
    terms run out first, at the budget or at ``EXACT_BELOW``.
    """
    out: list[int] = []
    # residue % modulus is 0 only for modulus 1, by the coprimality invariant.
    start = request.residue % request.modulus or request.modulus
    budget_end = start + request.count * TERMS_PER_PRIME * request.modulus
    terms = range(start, min(budget_end, EXACT_BELOW), request.modulus)
    for n in terms:
        if n >= 2 and n not in request.exclude and is_prime(n):
            out.append(n)
            if len(out) == request.count:
                return out
    if budget_end <= EXACT_BELOW:
        limit = f"the prime search budget of {TERMS_PER_PRIME} terms per prime"
    else:
        limit = f"the exact-primality limit {EXACT_BELOW}"
    raise BoundExhausted(
        f"found {len(out)} of {request.count} primes congruent to {start % request.modulus} "
        f"(mod {request.modulus}) in the {len(terms)} terms allowed by {limit}"
    )
