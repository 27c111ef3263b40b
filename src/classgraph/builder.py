"""Realize an admissible block square of prescribed block sizes as a group.

Given block sizes (m1, m2, m3, m4), build G = A x B where A and B are
Frobenius groups with squarefree cyclic kernel and cyclic complement:
pi4 = complement primes of A, pi1 = kernel primes of A, pi3 = complement
primes of B, pi2 = kernel primes of B.  The class-size prime graph of G is
then the admissible block square on those four blocks.

A cyclic complement of order n acts fixed-point-freely on a kernel prime p
exactly when the unit group mod p has an element of order n, i.e. when
p = 1 (mod n).  The complement primes are therefore chosen FIRST and the
kernel primes are found afterwards in the progression 1 (mod n) by a
deterministic Dirichlet search, within the prime search budget of
:mod:`~classgraph.dirichlet`; a search that runs out raises BoundExhausted.

Prime selection policy: complement primes are the smallest available odd
primes (2 is never used in a complement order, so the smallest realization
of the plain square lands on {3, 5, 7, 11}); kernel primes are the
smallest qualifying primes in their progression.  ``avoid`` excludes
primes from every choice.  The whole procedure is deterministic.

The built group is verified, not trusted: its prime graph is computed from
the class-size spectrum and must pass
:func:`~classgraph.blocks.is_admissible_block_square` on the chosen blocks.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .blocks import BlockPartition, is_admissible_block_square
from .construction import Direct, Frobenius, evaluate
from .dirichlet import PrimeRequest, find_primes_in_ap
from .errors import PredictionMismatch
from .graph import PrimeGraph, delta_of
from .primes import is_prime

CONGRUENCE_NOTE = (
    "kernel primes are chosen congruent to 1 modulo the complement order, "
    "which is the sufficient condition for a fixed-point-free multiplier "
    "action of the cyclic complement; the construction is re-verified "
    "against the computed class-size spectrum"
)


@dataclass(frozen=True)
class ConstructionResult:
    """A built group expression together with its verified prime graph."""

    expr: Direct
    graph: PrimeGraph
    partition: BlockPartition
    order: int

    @property
    def factor_a(self) -> Frobenius:
        return self.expr.factors[0]  # type: ignore[return-value]

    @property
    def factor_b(self) -> Frobenius:
        return self.expr.factors[1]  # type: ignore[return-value]


def _next_odd_primes(count: int, used: set[int]) -> tuple[int, ...]:
    out: list[int] = []
    candidate = 3
    while len(out) < count:
        if candidate not in used and is_prime(candidate):
            out.append(candidate)
        candidate += 2
    return tuple(out)


def construct_block_square_group(
    m1: int,
    m2: int,
    m3: int,
    m4: int,
    *,
    avoid: Iterable[int] = (),
) -> ConstructionResult:
    """Build, and self-verify, a group whose prime graph is the (m1,m2,m3,m4)
    block square.

    Raises BoundExhausted when a kernel-prime search runs out of its prime
    search budget; raises PredictionMismatch if the computed prime graph is
    ever not the admissible square on the chosen blocks (an internal bug,
    never expected).
    """
    for m in (m1, m2, m3, m4):
        if m < 1:
            raise ValueError(f"block sizes must be >= 1, got {(m1, m2, m3, m4)}")
    used = {int(p) for p in avoid}
    chosen: list[tuple[int, ...]] = []
    # pi4, pi1, then pi3, pi2: each complement before its kernel.
    for kernel_count, complement_count in ((m1, m4), (m2, m3)):
        complement = _next_odd_primes(complement_count, used)
        used.update(complement)
        request = PrimeRequest(kernel_count, math.prod(complement), residue=1, exclude=used)
        kernel = tuple(find_primes_in_ap(request))
        used.update(kernel)
        chosen += [complement, kernel]
    pi4, pi1, pi3, pi2 = chosen
    factor_a = Frobenius(kernel=pi1, complement=math.prod(pi4))
    factor_b = Frobenius(kernel=pi2, complement=math.prod(pi3))
    expr = Direct((factor_a, factor_b))
    partition = BlockPartition(pi1, pi2, pi3, pi4)

    group = evaluate(expr)
    if not group.factors or not all(f.frobenius for f in group.factors):
        raise PredictionMismatch("constructed factors lost their Frobenius structure")
    graph = delta_of(group.class_size_spectrum(), primes=group.primes)
    covered = graph.vertices == tuple(sorted(pi1 + pi2 + pi3 + pi4))
    if not (covered and is_admissible_block_square(graph, partition)):
        raise PredictionMismatch(
            f"computed graph {graph.to_json_obj()} is not the admissible block square "
            f"on {partition.to_json_obj()}"
        )
    return ConstructionResult(
        expr=expr,
        graph=graph,
        partition=partition,
        order=group.order,
    )
