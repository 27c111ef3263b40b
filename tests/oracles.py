"""Independent brute-force oracles the tests check the library against.

Nothing here shares code with the implementations under test: class sizes
come from conjugating by every group element or by the generators, or for
a semidirect product of cyclic groups from its own pair arithmetic,
fixed-point-free actions from products of every kernel and top element
of the realization, commuting and central Sylow subgroups from public
``Permutation`` products of every pair, primality from a sieve,
neighbourhoods from public edge queries, and block squares from
enumerating every 4-block set partition and every ordering of its blocks.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Collection
from functools import lru_cache
from itertools import combinations, permutations, product

from classgraph import (
    BlockPartition,
    MetabelianGroup,
    PermGroup,
    Permutation,
    PrimeGraph,
    is_block_square_partition,
)


def sieve_primes(limit: int) -> list[int]:
    flags = [True] * (limit + 1)
    flags[0:2] = [False, False]
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            for q in range(p * p, limit + 1, p):
                flags[q] = False
    return [i for i, f in enumerate(flags) if f]


def full_scan_class_sizes(group: PermGroup) -> Counter[int]:
    """Class sizes by conjugating every element by every element."""
    elems = group.elements()
    remaining = set(elems)
    sizes: Counter[int] = Counter()
    while remaining:
        x = min(remaining)
        orbit = {g * x * g.inverse() for g in elems}
        assert orbit <= remaining
        remaining -= orbit
        sizes[len(orbit)] += 1
    return sizes


def semidirect_class_sizes(
    kernel_orders: tuple[int, ...],
    top_orders: tuple[int, ...],
    multipliers: tuple[tuple[int, ...], ...],
) -> Counter[int]:
    """Class sizes of the semidirect product of two sums of cyclic groups.

    Elements are pairs ``(k, l)`` of residue tuples.  Top factor i multiplies
    kernel factor j by ``multipliers[i][j]``, so the product is
    ``(k1, l1)(k2, l2) = (k1 + l1 . k2, l1 + l2)``.  Each class is grown
    breadth-first as the orbit of conjugation by the standard generators,
    which visits every element once.
    """

    def act(l, k):
        return tuple(
            x * math.prod(pow(row[j], e, m) for row, e in zip(multipliers, l)) % m
            for j, (x, m) in enumerate(zip(k, kernel_orders))
        )

    def add(a, b, orders):
        return tuple((x + y) % n for x, y, n in zip(a, b, orders))

    def mul(x, y):
        return add(x[0], act(x[1], y[0]), kernel_orders), add(x[1], y[1], top_orders)

    def inv(x):
        l = tuple(-e % n for e, n in zip(x[1], top_orders))
        return act(l, tuple(-e % m for e, m in zip(x[0], kernel_orders))), l

    nk, nt = len(kernel_orders), len(top_orders)

    def unit(i, n):
        return tuple(int(i == j) for j in range(n))

    gens = [(unit(j, nk), (0,) * nt) for j in range(nk)]
    gens += [((0,) * nk, unit(i, nt)) for i in range(nt)]
    pairs = [(g, inv(g)) for g in gens]
    seen: set = set()
    sizes: Counter[int] = Counter()
    for x in product(product(*map(range, kernel_orders)), product(*map(range, top_orders))):
        if x in seen:
            continue
        orbit, frontier = {x}, [x]
        while frontier:
            grown = []
            for z in frontier:
                for g, g_inv in pairs:
                    y = mul(mul(g, z), g_inv)
                    if y not in orbit:
                        orbit.add(y)
                        grown.append(y)
            frontier = grown
        seen |= orbit
        sizes[len(orbit)] += 1
    return sizes


def pairwise_is_abelian(elements: Collection[Permutation]) -> bool:
    """Every pair of elements commutes, by public products."""
    return all(a * b == b * a for a, b in combinations(elements, 2))


def pairwise_center(group: PermGroup) -> frozenset[Permutation]:
    """Elements commuting with every element, by public products."""
    elems = group.elements()
    return frozenset(x for x in elems if all(x * g == g * x for g in elems))


def pairwise_centralizers_central(
    a_part: Collection[Permutation],
    b_part: Collection[Permutation],
    center: Collection[Permutation],
) -> bool:
    """C_B(a) <= Z for every nontrivial a in A, by public products."""
    return all(
        b in center
        for a in a_part
        if not a.is_identity()
        for b in b_part
        if a * b == b * a
    )


def pairwise_sylow_is_central(group: PermGroup, p: int) -> bool:
    """The p-part of |Z(G)| is the p-part of |G|, with Z(G) by public products."""
    center, order = len(pairwise_center(group)), group.order
    while order % p == 0:
        if center % p:
            return False
        center, order = center // p, order // p
    return True


def fixed_point_free_by_scan(g: MetabelianGroup) -> bool:
    """No nontrivial top element centralises a nontrivial kernel element."""
    perm = g.to_permutation(verify_order=False)  # only its generators are used
    nk = len(g.kernel)
    kernel = PermGroup(perm.generators[:nk]).elements()
    top = PermGroup(perm.generators[nk:]).elements()
    return all(
        t * k != k * t
        for t in top
        if not t.is_identity()
        for k in kernel
        if not k.is_identity()
    )


def class_sizes_by_conjugation(group: PermGroup) -> dict[Permutation, int]:
    """Each element's class size: its conjugates under the generators, by public products."""
    pairs = [(g, g.inverse()) for g in group.generators]
    out: dict[Permutation, int] = {}
    for x in group.elements():
        if x in out:
            continue
        orbit, frontier = {x}, [x]
        while frontier:
            grown = []
            for z in frontier:
                for g, g_inv in pairs:
                    y = g * z * g_inv
                    if y not in orbit:
                        orbit.add(y)
                        grown.append(y)
            frontier = grown
        out.update(dict.fromkeys(orbit, len(orbit)))
    return out


def non_neighbors(graph: PrimeGraph, v: int) -> frozenset[int]:
    """Vertices other than v not adjacent to it, by public edge queries."""
    return frozenset(u for u in graph.vertices if u != v and not graph.has_edge(u, v))


def complete_vertices(graph: PrimeGraph) -> frozenset[int]:
    """Vertices adjacent to every other vertex."""
    return frozenset(v for v in graph.vertices if not non_neighbors(graph, v))


def set_partitions_into_4(items: tuple[int, ...]):
    """All partitions of items into exactly 4 nonempty unordered blocks."""

    def rec(index: int, blocks: list[list[int]]):
        if index == len(items):
            if len(blocks) == 4:
                yield [tuple(b) for b in blocks]
            return
        remaining = len(items) - index
        if len(blocks) + remaining < 4:
            return
        for b in blocks:
            b.append(items[index])
            yield from rec(index + 1, blocks)
            b.pop()
        if len(blocks) < 4:
            blocks.append([items[index]])
            yield from rec(index + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def naive_block_square_exists(graph: PrimeGraph) -> bool:
    """Try all ordered 4-block partitions through the public predicate."""
    vertices = graph.vertices
    if len(vertices) < 4:
        return False
    for blocks in set_partitions_into_4(vertices):
        for ordering in permutations(range(4)):
            part = BlockPartition(*(blocks[i] for i in ordering))
            if is_block_square_partition(graph, part):
                return True
    return False


# The three ways to split four block labels into two pairs.
_MATCHINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def canonical_block_partitions(graph: PrimeGraph) -> list[BlockPartition]:
    """The least valid ordering of every block-square orbit, sorted.

    An orbit is a 4-block set partition with one of the 3 matchings of its
    blocks into the two non-adjacent pairs; its orderings put either pair
    at the ends, in either order, and the other pair between them, in
    either order.  Validity is the public predicate on each ordering.
    """
    out = []
    for blocks in set_partitions_into_4(graph.vertices):
        for pair, other in _MATCHINGS:
            # Every ordering of the orbit has the same non-adjacent pairs.
            if any(
                graph.has_edge(p, q)
                for i, j in (pair, other)
                for p in blocks[i]
                for q in blocks[j]
            ):
                continue
            orderings = (
                BlockPartition(blocks[a], blocks[c], blocks[d], blocks[b])
                for ends, mids in ((pair, other), (other, pair))
                for a, b in (ends, ends[::-1])
                for c, d in (mids, mids[::-1])
            )
            valid = [p for p in orderings if is_block_square_partition(graph, p)]
            if valid:
                out.append(min(valid, key=BlockPartition.blocks))
    return sorted(out, key=BlockPartition.blocks)


@lru_cache(maxsize=None)
def _four_block_partitions(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every partition of {0..n-1} into 4 unordered nonempty blocks.

    Cached per n as (labels, masks) pairs; enumerated as restricted-growth
    strings over exactly 4 block labels.
    """
    out = []

    def rec(index: int, used: int, labels: list[int]) -> None:
        if index == n:
            if used == 4:
                masks = [0, 0, 0, 0]
                for v, b in enumerate(labels):
                    masks[b] |= 1 << v
                out.append((tuple(labels), tuple(masks)))
            return
        if used + (n - index) < 4:
            return
        for b in range(used):
            labels.append(b)
            rec(index + 1, used, labels)
            labels.pop()
        if used < 4:
            labels.append(used)
            rec(index + 1, used + 1, labels)
            labels.pop()

    rec(0, 0, [])
    return tuple(out)


def fast_block_square_exists(adj: list[int], n: int) -> bool:
    """Bitmask brute force over every 4-block set partition.

    Independent reformulation used for the large exhaustive sweeps: the
    no-edge conditions pick one of the three perfect matchings of the four
    blocks, and the witness conditions only depend on which matched pair
    plays the ends.  Vertices are 0..n-1 with adjacency bitmasks.
    """
    if n < 4:
        return False

    def witness(ends_label: int, labels: tuple[int, ...], mid1: int, mid2: int) -> bool:
        return any(
            adj[v] & mid1 and adj[v] & mid2 for v in range(n) if labels[v] == ends_label
        )

    for labels, masks in _four_block_partitions(n):
        neighborhoods = [0, 0, 0, 0]
        for v in range(n):
            neighborhoods[labels[v]] |= adj[v]
        for (i, j), (k, l) in _MATCHINGS:
            if neighborhoods[i] & masks[j] or neighborhoods[k] & masks[l]:
                continue
            # (i,j) and (k,l) are the non-adjacent pairs; either may be the ends.
            if witness(i, labels, masks[k], masks[l]) and witness(
                j, labels, masks[k], masks[l]
            ):
                return True
            if witness(k, labels, masks[i], masks[j]) and witness(
                l, labels, masks[i], masks[j]
            ):
                return True
    return False
