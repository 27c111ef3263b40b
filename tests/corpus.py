"""The test corpus: a spread of small groups with known structure.

Covers abelian groups, symmetric groups, Frobenius groups with one and two
kernel primes, products with central factors, a non-Frobenius semidirect
product with central complement part, and constructor outputs; and a
strategy for random permutation groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from hypothesis import strategies as st

from classgraph import (
    Cyclic,
    Direct,
    Frobenius,
    GroupExpr,
    Perm,
    PermGroup,
    Permutation,
    Semidirect,
    construct_block_square_group,
)

S3_PERM = Perm(degree=3, generators=((1, 2, 0), (1, 0, 2)))
S4_PERM = Perm(degree=4, generators=((1, 2, 3, 0), (1, 0, 2, 3)))
A4_PERM = Perm(degree=4, generators=((1, 2, 0, 3), (1, 0, 3, 2)))
# Left-regular action of the quaternion units ordered [1, i, -1, -i, j, k, -j, -k].
Q8_PERM = Perm(
    degree=8,
    generators=((1, 2, 3, 0, 5, 6, 7, 4), (4, 7, 6, 5, 2, 1, 0, 3)),
)


def perm_spec(group: PermGroup) -> Perm:
    """The ``perm`` node of a permutation group's generators."""
    return Perm(group.degree, tuple(g.images for g in group.generators))


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    expr: GroupExpr
    order: int


@lru_cache(maxsize=1)
def corpus_entries() -> tuple[CorpusEntry, ...]:
    built_a = construct_block_square_group(1, 1, 1, 1)
    built_b = construct_block_square_group(2, 1, 1, 1)
    return (
        CorpusEntry("a4", A4_PERM, 12),
        CorpusEntry("built_1_1_1_1", built_a.expr, built_a.order),
        CorpusEntry("built_2_1_1_1", built_b.expr, built_b.order),
        CorpusEntry("d10", Frobenius((5,), 2), 10),
        CorpusEntry("f21", Frobenius((7,), 3), 21),
        CorpusEntry("f21_x_f55", Direct((Frobenius((7,), 3), Frobenius((11,), 5))), 1155),
        CorpusEntry("f21_x_z5", Direct((Frobenius((7,), 3), Cyclic(5))), 105),
        CorpusEntry("f273", Frobenius((7, 13), 3), 273),
        CorpusEntry("f55", Frobenius((11,), 5), 55),
        CorpusEntry("q8", Q8_PERM, 8),
        CorpusEntry("s3", S3_PERM, 6),
        CorpusEntry("s3_x_z2", Direct((S3_PERM, Cyclic(2))), 12),
        CorpusEntry("s4", S4_PERM, 24),
        CorpusEntry("z6", Cyclic(6), 6),
        CorpusEntry("z7_rtimes_z9", Semidirect((7,), (9,), ((2,),)), 63),
    )


def random_perm_groups(min_degree: int = 1, max_degree: int = 7):
    """Groups made by one to three random permutations of `min_degree` to `max_degree` points."""
    return st.integers(min_degree, max_degree).flatmap(
        lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3)
    ).map(lambda gens: PermGroup([Permutation(tuple(g)) for g in gens]))
