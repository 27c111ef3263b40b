"""Independent brute-force oracles the tests check the library against.

Nothing here shares code with the implementations under test: class sizes
come from conjugating by every group element or by the generators, or for
a semidirect product of cyclic groups from its own pair arithmetic,
element orders from repeated products, fixed-point-free actions from
products of every kernel and top element of the realization, commuting
and central Sylow subgroups from public ``Permutation`` products of every
pair, primality from a sieve, multiplicative orders from repeated
multiplication, neighbourhoods and cliques from public edge queries,
admissible squares edge by edge, and block squares from enumerating every
4-block set partition and every ordering of its blocks.  The one shared
piece is ``cayley_table``, the enumeration loop: ``whole_group_answers``
walks a whole group with it, to check answers read off a group's direct
factors against the group enumerated at once.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Collection
from functools import lru_cache
from itertools import combinations, permutations, product

from classgraph import (
    BlockPartition,
    DGroupWitness,
    MetabelianGroup,
    PermGroup,
    Permutation,
    PrimeGraph,
    is_block_square_partition,
    to_permutation,
)
from classgraph.perm import cayley_table


def multiplicative_order_by_scan(a: int, m: int) -> int:
    """Least k >= 1 with a**k = 1 mod m >= 2, for a unit a, by repeated multiplication."""
    x, k = a % m, 1
    while x != 1:
        x = x * a % m
        k += 1
    return k


def auto_multiplier_by_scan(p: int, n: int) -> int:
    """u**((p - 1) / n) mod the prime p for the least u >= 2 where that has order exactly n.

    Powers by repeated multiplication, orders by ``multiplicative_order_by_scan``.
    """
    for u in range(2, p):
        h = 1
        for _ in range((p - 1) // n):
            h = h * u % p
        if multiplicative_order_by_scan(h, p) == n:
            return h
    raise ValueError(f"no unit of order {n} mod {p}")


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
    perm = to_permutation(g)  # only its generators are used
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


def conjugation_orbits(group: PermGroup) -> list[frozenset[Permutation]]:
    """The conjugacy classes, in order of their least elements; public products only.

    Each class is the closure of its least element under conjugation by the
    generators.
    """
    return orbits_under_conjugation(group.elements(), group.generators)


def orbits_under_conjugation(
    elements: Collection[Permutation], generators: Collection[Permutation]
) -> list[frozenset[Permutation]]:
    """The orbits of conjugation by the generators, in order of their least elements."""
    pairs = [(g, g.inverse()) for g in generators]
    orbits: list[frozenset[Permutation]] = []
    seen: set[Permutation] = set()
    for x in sorted(elements):
        if x in seen:
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
        orbits.append(frozenset(orbit))
        seen |= orbit
    return orbits


def class_sizes_by_conjugation(group: PermGroup) -> dict[Permutation, int]:
    """Each element's class size: the size of its orbit in ``conjugation_orbits``."""
    return {x: len(orbit) for orbit in conjugation_orbits(group) for x in orbit}


def order_by_powers(x: Permutation) -> int:
    """Least k >= 1 with x**k the identity, by repeated public products."""
    power, k = x, 1
    while not power.is_identity():
        power = power * x
        k += 1
    return k


def generated_by_products(gens: Collection[Permutation], identity: Permutation) -> frozenset:
    """The group the elements generate: the identity closed under right products."""
    out, frontier = {identity}, [identity]
    while frontier:
        grown = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in out:
                    out.add(y)
                    grown.append(y)
        frontier = grown
    return frozenset(out)


def derived_subgroup_by_products(group: PermGroup) -> tuple[frozenset, list[Permutation]]:
    """G' and generators of it, by public products.

    G' is the normal closure of the generators' commutators: the generated
    group grows by each conjugate of its generators by a generator of G
    that it misses, until it holds them all.
    """
    pairs = [(g, g.inverse()) for g in group.generators]
    gens = sorted({a_inv * b_inv * a * b for a, a_inv in pairs for b, b_inv in pairs})
    while True:
        sub = generated_by_products(gens, group.identity())
        missing = {g_inv * x * g for x in gens for g, g_inv in pairs} - sub
        if not missing:
            return sub, gens
        gens += sorted(missing)


def centralizer_by_scan(group: PermGroup, x: Permutation) -> frozenset[Permutation]:
    """C_G(x): every element of the group commuting with x, by public products."""
    return frozenset(y for y in group.elements() if y * x == x * y)


def dgroup_witness_by_centralizer(
    group: PermGroup,
) -> tuple[DGroupWitness | None, frozenset[Permutation] | None]:
    """The D-group witness by its definition, with B = C_G(x) scanned; public products only.

    A = G' must be nontrivial and abelian, and x is the least element whose
    class has size |A|.  B is every element commuting with x; it must be
    abelian and meet A in the identity alone, and the class sizes must be
    {1, |A|, |B:Z|}.  Returns the witness or None, and B when x exists.
    """
    a, a_gens = derived_subgroup_by_products(group)
    if len(a) == 1 or not pairwise_is_abelian(a_gens):
        return None, None
    size_of = class_sizes_by_conjugation(group)
    x = min((y for y, size in size_of.items() if size == len(a)), default=None)
    if x is None:
        return None, None
    b = centralizer_by_scan(group, x)
    center_order = sum(1 for size in size_of.values() if size == 1)
    sizes = frozenset(size_of.values())
    if (
        not pairwise_is_abelian(b)
        or a & b != {group.identity()}
        or sizes != {1, len(a), len(b) // center_order}
    ):
        return None, b
    return DGroupWitness(len(a), len(b), center_order, sizes), b


def _generators_within(
    elements: frozenset[Permutation], identity: Permutation
) -> list[Permutation] | None:
    """Generators of the subgroup `elements`, or None when they form none.

    Each least element the generated group misses joins the generators,
    and the group they generate must stay inside `elements`.
    """
    gens: list[Permutation] = []
    sub = frozenset({identity})
    for x in sorted(elements):
        if x not in sub:
            gens.append(x)
            sub = generated_by_products(gens, identity)
            if not sub <= elements:
                return None
    return gens


def _prime_graph(sizes: Collection[int]) -> tuple[tuple[int, ...], frozenset[tuple[int, int]]]:
    """Vertices and edges of the prime graph on class sizes, by trial division."""
    prime_sets = [[p for p in sieve_primes(size) if size % p == 0] for size in sizes]
    vertices = tuple(sorted({p for ps in prime_sets for p in ps}))
    return vertices, frozenset(e for ps in prime_sets for e in combinations(ps, 2))


def _is_disconnected(vertices: tuple[int, ...], edges: frozenset[tuple[int, int]]) -> bool:
    """More than one component, by growing the first vertex's component edge by edge."""
    if not vertices:
        return False
    reached = {vertices[0]}
    while True:
        grown = {q for e in edges for p, q in (e, e[::-1]) if p in reached} - reached
        if not grown:
            return len(reached) < len(vertices)
        reached |= grown


def whole_group_answers(group: PermGroup) -> dict:
    """What a group's queries must answer, from one enumeration of the whole group.

    One ``cayley_table`` walk over all the generators at once gives the
    elements, whatever the generators' supports.  The rest is public
    products on them: classes are the orbits of conjugation by the
    generators, Δ joins the primes of each class size, element orders come
    by powers, the π-elements form a subgroup when the group they generate
    stays among them (``pi_parts`` keeps those elements and generators, or
    None), and a prime is central when its Sylow order divides
    the number of central elements.  The D-group witness is
    ``dgroup_witness_by_centralizer``.  The verdict is VERIFIED when some
    canonical block partition has D-groups (disconnected Δ) A and B on its
    block pairs, of coprime orders multiplying to the core's; with no
    partition it is "not a block square".
    """
    index, _ = cayley_table([g.images for g in group.generators], 10**6)
    elems = [Permutation(x) for x in index]
    identity = group.identity()
    orbits = orbits_under_conjugation(elems, group.generators)
    spectrum = Counter(len(orbit) for orbit in orbits)
    vertices, edges = _prime_graph(spectrum)
    order = len(elems)
    primes = tuple(p for p in sieve_primes(order) if order % p == 0)
    order_of = {x: order_by_powers(x) for x in elems}
    pi_parts: dict[frozenset[int], tuple[frozenset, list[Permutation]] | None] = {}
    for r in range(len(primes) + 1):
        for pi in combinations(primes, r):
            part = frozenset(x for x in elems if all(order_of[x] % p for p in primes if p not in pi))
            gens = _generators_within(part, identity)
            pi_parts[frozenset(pi)] = None if gens is None else (part, gens)
    sylow = {p: math.gcd(order, p**order) for p in primes}
    central = tuple(p for p in primes if spectrum[1] % sylow[p] == 0)
    core_order = order // math.prod(sylow[p] for p in central)

    def is_dgroup(part: tuple[frozenset, list[Permutation]]) -> bool:
        sizes = {len(orbit) for orbit in orbits_under_conjugation(*part)}
        return _is_disconnected(*_prime_graph(sizes))

    partitions = canonical_block_partitions(PrimeGraph(vertices, edges))
    status = "not a block square" if not partitions else "COUNTEREXAMPLE_CANDIDATE"
    for partition in partitions:
        a = pi_parts[frozenset(partition.pi1 + partition.pi4)]
        b = pi_parts[frozenset(partition.pi2 + partition.pi3)]
        if a is None or b is None:
            continue
        if len(a[0]) * len(b[0]) == core_order and math.gcd(len(a[0]), len(b[0])) == 1:
            if is_dgroup(a) and is_dgroup(b):
                status = "VERIFIED"
                break
    return {
        "order": order,
        "spectrum": spectrum,
        "delta": (vertices, edges),
        "witness": dgroup_witness_by_centralizer(group)[0],
        "pi_orders": {pi: None if v is None else len(v[0]) for pi, v in pi_parts.items()},
        "pi_parts": pi_parts,
        "central_primes": central,
        "core_order": core_order,
        "status": status,
    }


def non_neighbors(graph: PrimeGraph, v: int) -> frozenset[int]:
    """Vertices other than v not adjacent to it, by public edge queries."""
    return frozenset(u for u in graph.vertices if u != v and not graph.has_edge(u, v))


def complete_vertices(graph: PrimeGraph) -> frozenset[int]:
    """Vertices adjacent to every other vertex."""
    return frozenset(v for v in graph.vertices if not non_neighbors(graph, v))


def is_clique(graph: PrimeGraph, subset: Collection[int]) -> bool:
    """Every two distinct vertices of subset are adjacent, by public edge queries."""
    return all(graph.has_edge(p, q) for p, q in combinations(sorted(set(subset)), 2))


def admissible_square(
    pi1: tuple[int, ...], pi2: tuple[int, ...], pi3: tuple[int, ...], pi4: tuple[int, ...]
) -> PrimeGraph:
    """The admissible block square on four blocks, edge by edge.

    Each block is a clique, and each vertex of pi1 U pi4 is joined to each
    vertex of pi2 U pi3.
    """
    edges = {e for block in (pi1, pi2, pi3, pi4) for e in combinations(sorted(block), 2)}
    edges.update((min(p, q), max(p, q)) for p in pi1 + pi4 for q in pi2 + pi3)
    return PrimeGraph(pi1 + pi2 + pi3 + pi4, frozenset(edges))


def admissible_by_three_passes(graph: PrimeGraph, part: BlockPartition) -> bool:
    """Admissibility as three passes: the public block-square predicate,
    clique blocks, and every cross pair, by public edge queries."""
    if not is_block_square_partition(graph, part):
        return False
    blocks = part.blocks()
    if not all(is_clique(graph, b) for b in blocks):
        return False
    pi1, pi2, pi3, pi4 = blocks
    return all(graph.has_edge(p, q) for p in pi1 + pi4 for q in pi2 + pi3)


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
    either order.  Swapping the two blocks of a pair keeps every clause of
    the public predicate, so it runs once per choice of end pair, and a
    valid choice makes all 4 of its orderings valid.
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
            valid = [
                BlockPartition(blocks[a], blocks[c], blocks[d], blocks[b])
                for (i, j), (k, m) in ((pair, other), (other, pair))
                if is_block_square_partition(
                    graph, BlockPartition(blocks[i], blocks[k], blocks[m], blocks[j])
                )
                for a, b in ((i, j), (j, i))
                for c, d in ((k, m), (m, k))
            ]
            if valid:
                out.append(min(valid, key=BlockPartition.blocks))
    return sorted(out, key=BlockPartition.blocks)


# The square's 8 symmetries of block positions, sorted; position i of an
# image takes block sym[i].  They are generated by
# pi1<->pi4 (3, 1, 2, 0), pi2<->pi3 (0, 2, 1, 3), and swapping the pair
# (pi1,pi4) with (pi2,pi3) (1, 0, 3, 2).
SQUARE_SYMMETRIES: tuple[tuple[int, int, int, int], ...] = (
    (0, 1, 2, 3),
    (0, 2, 1, 3),
    (1, 0, 3, 2),
    (1, 3, 0, 2),
    (2, 0, 3, 1),
    (2, 3, 0, 1),
    (3, 1, 2, 0),
    (3, 2, 1, 0),
)


def square_orbit(part: BlockPartition) -> list[BlockPartition]:
    """The 8 orderings of part's blocks that keep (pi1, pi4) and (pi2, pi3) as pairs.

    Either pair goes to the ends, in either order, and the other pair
    between them, in either order.
    """
    pi1, pi2, pi3, pi4 = part.blocks()
    return [
        BlockPartition(a, c, d, b)
        for ends, mids in (((pi1, pi4), (pi2, pi3)), ((pi2, pi3), (pi1, pi4)))
        for a, b in (ends, ends[::-1])
        for c, d in (mids, mids[::-1])
    ]


def apply_symmetry(part: BlockPartition, sym: tuple[int, int, int, int]) -> BlockPartition:
    """The image of part whose position i takes block sym[i]."""
    blocks = part.blocks()
    return BlockPartition(*(blocks[i] for i in sym))


def canonical_partition(graph: PrimeGraph, part: BlockPartition) -> BlockPartition:
    """Least valid member of part's orbit under the 8 square symmetries.

    The witness clause is not kept by every symmetry on arbitrary graphs,
    so the least is taken among the valid orderings; a valid part is one.
    """
    valid = [p for p in square_orbit(part) if is_block_square_partition(graph, p)]
    return min(valid, key=BlockPartition.blocks)


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
