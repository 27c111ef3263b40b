"""Block-square detection on prime graphs.

A block square is a partition of the vertex set into four nonempty blocks
pi1..pi4 with no edges between pi1 and pi4, none between pi2 and pi3, and
witness vertices in pi1 and in pi4 adjacent into both pi2 and pi3.  A
witness is a single vertex of the end block with a neighbour in each
middle block.

The square has 8 symmetries of block positions; partitions in one orbit
count as one.  :func:`find_block_partitions` returns each orbit's least
valid member, which it reads off any member in constant time: each pair
lower block first, then the pairs swapped when that is valid and lowers
pi1.  When the complement is bipartite it reads the orbits off the
complement's 2-coloring, in time polynomial in the size of the output.
Any other graph of up to :data:`SEARCH_BOUND` vertices is searched on its
core, the vertices with a neighbour, highest degree first; each of the
4^k placements of its k isolated vertices then extends every block square
of the core.  The search reaches one leaf per orbit of the core: the
symmetries inside each pair (pi1, pi4) and (pi2, pi3) are broken while
branching, and the swap of the two pairs by pruning a node that puts the
first placed vertex in pi2 when the pairing with it in pi1 is valid too.
It also stops at any node where pi1 and pi4 can no longer get two
distinct witnesses from the vertices placed or still free to join them,
so an edgeless graph, a perfect matching or a star fails at the root.
Either route raises CapExceeded, before building any partition, once
there are more than :data:`OUTPUT_BOUND` orbits.  Both take the least
images in one loop, name each distinct block mask by walking its set
bits, and sort the partitions as tuples of those names.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadPartition, CapExceeded, TooManyVertices
from .graph import PrimeGraph, mask_components

SEARCH_BOUND = 20
# Block-square orbits one call may return.  A call peaks at about 500 bytes
# per orbit on CPython 3.11, so about 50 MB at the bound.  C4 plus 8
# isolated vertices has 4^8 = 65,536 orbits; C4 plus 9 has 4^9 = 262,144.
OUTPUT_BOUND = 100_000

_Blocks = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]
_Masks = tuple[int, int, int, int]  # blocks as vertex bitmasks (PrimeGraph.adjacency)


@dataclass(frozen=True)
class BlockPartition:
    """Ordered 4-tuple of disjoint nonempty prime sets covering the vertices."""

    pi1: tuple[int, ...]
    pi2: tuple[int, ...]
    pi3: tuple[int, ...]
    pi4: tuple[int, ...]

    def __post_init__(self) -> None:
        for field in ("pi1", "pi2", "pi3", "pi4"):
            object.__setattr__(self, field, tuple(sorted(getattr(self, field))))

    @classmethod
    def _trusted(
        cls, pi1: tuple[int, ...], pi2: tuple[int, ...], pi3: tuple[int, ...], pi4: tuple[int, ...]
    ) -> "BlockPartition":
        """Build from blocks that are already sorted tuples, without sorting them again."""
        part = object.__new__(cls)
        vars(part).update(pi1=pi1, pi2=pi2, pi3=pi3, pi4=pi4)
        return part

    def blocks(self) -> _Blocks:
        return (self.pi1, self.pi2, self.pi3, self.pi4)

    def to_json_obj(self) -> dict:
        return {
            "pi1": list(self.pi1),
            "pi2": list(self.pi2),
            "pi3": list(self.pi3),
            "pi4": list(self.pi4),
        }


def _validate(graph: PrimeGraph, part: BlockPartition) -> None:
    blocks = part.blocks()
    if any(not b for b in blocks):
        raise BadPartition("every block must be nonempty")
    union = set().union(*blocks)
    if sum(map(len, blocks)) != len(union):
        raise BadPartition("blocks are not disjoint")
    if union != set(graph.vertices):
        raise BadPartition("blocks do not cover the vertex set exactly")


def _no_edges_between(graph: PrimeGraph, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return not any(graph.has_edge(p, q) for p in a for q in b)


def _witness_ok(
    graph: PrimeGraph,
    source: tuple[int, ...],
    t1: tuple[int, ...],
    t2: tuple[int, ...],
) -> bool:
    return any(
        any(graph.has_edge(p, q) for q in t1) and any(graph.has_edge(p, q) for q in t2)
        for p in source
    )


def is_block_square_partition(graph: PrimeGraph, part: BlockPartition) -> bool:
    """Check the four block-square conditions for an explicit partition."""
    _validate(graph, part)
    pi1, pi2, pi3, pi4 = part.blocks()
    if not _no_edges_between(graph, pi1, pi4):
        return False
    if not _no_edges_between(graph, pi2, pi3):
        return False
    if not _witness_ok(graph, pi1, pi2, pi3):
        return False
    return _witness_ok(graph, pi4, pi2, pi3)


def is_admissible_block_square(graph: PrimeGraph, part: BlockPartition) -> bool:
    """Block square whose blocks are cliques with complete cross adjacency.

    These are exactly the block squares realizable as a class-size prime
    graph: each vertex is adjacent to the rest of its own block and to every
    vertex of the other pair (pi1 U pi4 or pi2 U pi3), and to nothing else.
    With nonempty blocks that neighbourhood already gives the witnesses and
    rules out pi1-pi4 and pi2-pi3 edges.
    """
    _validate(graph, part)
    index_of = {v: i for i, v in enumerate(graph.vertices)}
    blocks = part.blocks()
    masks = [sum(1 << index_of[v] for v in b) for b in blocks]
    ends, mids = masks[0] | masks[3], masks[1] | masks[2]
    return all(
        graph.adjacency[index_of[v]] == (mask | other) & ~(1 << index_of[v])
        for b, mask, other in zip(blocks, masks, (mids, ends, ends, mids))
        for v in b
    )


def _witness(adj: tuple[int, ...], cand: int, mid2: int, mid3: int) -> int:
    """The least vertex of cand that can still be a witness, as a bit; 0 if none.

    mid2 and mid3 hold the vertices in, or still able to join, pi2 and pi3.
    A witness needs a neighbour in each, and two distinct ones when both are
    still free: only a free vertex can lie in both masks.
    """
    while cand:
        low = cand & -cand
        a = adj[low.bit_length() - 1]
        s2, s3 = a & mid2, a & mid3
        if s2 and s3 and (s2 != s3 or s2 & (s2 - 1)):
            return low
        cand ^= low
    return 0


def _least_images(leaves: list[_Masks], swaps: list[int], spread: list[_Masks]) -> list[_Masks]:
    """The least image under the square symmetries of each leaf joined with each placement.

    Disjoint blocks compare by their least vertices: b4 & (b1 - 1) holds
    the vertices of b4 below the least of b1.  Each pair goes lower block
    first: pi1 and pi2 are the lower of (b1, b4) and of (b2, b3).  When the
    leaf's swap says the pairing with b2 and b3 as the ends is valid too,
    the pairs trade places if that puts a lower vertex in pi1.
    """
    found: list[_Masks] = []
    append = found.append
    for (c1, c2, c3, c4), swap in zip(leaves, swaps):
        for x1, x2, x3, x4 in spread:
            b1, b2, b3, b4 = c1 | x1, c2 | x2, c3 | x3, c4 | x4
            if b4 & (b1 - 1):
                b1, b4 = b4, b1
            if b3 & (b2 - 1):
                b2, b3 = b3, b2
            append((b2, b1, b4, b3) if swap and b2 & (b1 - 1) else (b1, b2, b3, b4))
    return found


def _two_clique_partitions(adj: tuple[int, ...], left: int, right: int) -> list[_Masks]:
    """Least images of the block squares, given a 2-coloring (L, R) of the complement.

    The complement holds the complete bipartite graphs on pi1 U pi4 and on
    pi2 U pi3, so each block lies in L or in R, opposite its partner, and
    up to symmetry pi1 U pi2 = L and pi3 U pi4 = R.  Each component of the
    L-R edges then goes whole to pi1 U pi3 or to pi2 U pi4, and a vertex
    with no L-R edge either way.  L and R being cliques, the witnesses need
    an edge-carrying component to go each way.  Of the symmetries only the
    pair swap keeps pi1 U pi2 = L, so holding linked[0] in pi1 U pi3 reaches
    each orbit once.
    """
    cross = [a & (right if left >> i & 1 else left) for i, a in enumerate(adj)]
    parts = mask_components(cross, left | right)
    linked = [c for c in parts if c & (c - 1)]
    free = [c for c in parts if not c & (c - 1)]
    choices = range(1, (1 << len(linked)) - 1, 2)
    if not choices:
        return []
    if len(choices) << len(free) > OUTPUT_BOUND:
        raise CapExceeded(f"block-square partitions exceed output bound {OUTPUT_BOUND}")
    # A leaf per choice of linked components for pi1 U pi3, a placement per free subset.
    subsets = [0]
    for c in free:
        subsets += [s | c for s in subsets]
    loose, tied = sum(free), sum(linked)
    spread = [(left & s, left & (loose ^ s), right & s, right & (loose ^ s)) for s in subsets]
    firsts = [sum(c for i, c in enumerate(linked) if chosen >> i & 1) for chosen in choices]
    leaves = [(left & f, left & (tied ^ f), right & f, right & (tied ^ f)) for f in firsts]
    # Each end block shares a clique with a middle block, so every image
    # of a block square is one: the pairs may always swap.
    return _least_images(leaves, [True] * len(leaves), spread)


def _searched_partitions(adj: tuple[int, ...]) -> list[_Masks]:
    """Least images of the block squares, found by searching the core.

    The core is the set of vertices with a neighbour.  An isolated vertex
    is never a witness and never joins an edge between partners, so every
    block square restricts to one on the core, with four nonempty blocks,
    and each block square of the core extends to one for each of the 4^|I|
    placements of the isolated vertices I.  No symmetry fixes a partition
    into four nonempty blocks, so one block square per orbit of the core's,
    times every placement, is one per orbit of the graph's; each then
    takes its least image.  Raises CapExceeded as soon as the leaves found
    times 4^|I| pass `OUTPUT_BOUND`, before any placement is built.

    Core vertices are assigned highest degree first, ties by index, so the
    most constrained vertices prune earliest: as soon as a pi1-pi4 or
    pi2-pi3 edge or an unfillable empty block appears, or an end block can
    no longer get a witness.  pi4 (pi3) opens only once pi1 (pi2) is
    nonempty, which breaks the symmetries inside each pair and puts the
    first placed vertex in pi1 or pi2.  The swap of the pairs is broken at
    the node: once the first placed vertex lies in pi2, and pi2 and pi3
    each hold a vertex adjacent into the placed pi1 and pi4, the leaves
    below are the swaps of valid leaves with that vertex in pi1, and that
    condition only grows with more vertices placed.
    """
    n = len(adj)
    # Highest degree first; the sort is stable, so ties keep index order.
    order = sorted((i for i, a in enumerate(adj) if a), key=lambda i: -adj[i].bit_count())
    size = len(order)
    free = [0] * (size + 1)  # free[k]: the core vertices order[k:]
    for k in range(size - 1, -1, -1):
        free[k] = free[k + 1] | 1 << order[k]
    order.append(n)  # past the last core vertex: nothing is free
    anchor = 1 << order[0]  # the first placed vertex
    isolated = ((1 << n) - 1) ^ free[0]
    room = OUTPUT_BOUND >> 2 * isolated.bit_count()  # leaves allowed before the bound
    leaves: list[_Masks] = []
    masks = [0, 0, 0, 0]
    reach = [0, 0, 0, 0]  # reach[b]: the union of the neighbour masks of block b

    def witnesses_possible(free: int) -> bool:
        # A free vertex may still join block b if it has no neighbour in b's
        # partner.  pi1 and pi4 each need a witness, in or able to join the
        # block, and the two differ: pi4 has one other than pi1's least, w, or
        # has w and pi1 has another.  With nothing free this is exact.
        m1, m2, m3, m4 = masks
        r1, r2, r3, r4 = reach
        mid2, mid3 = m2 | free & ~r3, m3 | free & ~r2
        ends1, ends4 = m1 | free & ~r4, m4 | free & ~r1
        w = _witness(adj, ends1, mid2, mid3)
        if not w:
            return False
        if _witness(adj, ends4 & ~w, mid2, mid3):
            return True
        return bool(ends4 & w and _witness(adj, ends1 & ~w, mid2, mid3))

    def assign(k: int, empty: int) -> None:
        if empty > size - k or not witnesses_possible(free[k]):
            return
        m1, m2, m3, m4 = masks
        if m2 & anchor and _witness(adj, m2, m1, m4) and _witness(adj, m3, m1, m4):
            return
        pos = order[k]
        if pos == n:
            if len(leaves) == room:
                raise CapExceeded(f"block-square partitions exceed output bound {OUTPUT_BOUND}")
            leaves.append((m1, m2, m3, m4))
            return
        bit, a = 1 << pos, adj[pos]
        for b in range(4):
            # Block 3 - b is b's non-adjacent partner; pi3 and pi4 open after it.
            if a & masks[3 - b] or (b >= 2 and not masks[3 - b]):
                continue
            m, r = masks[b], reach[b]
            masks[b], reach[b] = m | bit, r | a
            assign(k + 1, empty if m else empty - 1)
            masks[b], reach[b] = m, r

    assign(0, 4)
    spread = [(0, 0, 0, 0)]  # every placement of the isolated vertices, if any leaf
    while isolated and leaves:
        bit = isolated & -isolated
        isolated ^= bit
        spread = [
            placed
            for x1, x2, x3, x4 in spread
            for placed in (
                (x1 | bit, x2, x3, x4),
                (x1, x2 | bit, x3, x4),
                (x1, x2, x3 | bit, x4),
                (x1, x2, x3, x4 | bit),
            )
        ]
    # A leaf with the first placed vertex in pi2 has no valid swap, or it was pruned.
    swaps = [_witness(adj, c2, c1, c4) and _witness(adj, c3, c1, c4) for c1, c2, c3, c4 in leaves]
    return _least_images(leaves, swaps, spread)


def find_block_partitions(graph: PrimeGraph) -> list[BlockPartition]:
    """All block-square partitions, one canonical representative per orbit.

    The representative is the least valid member of the orbit under the 8
    square symmetries; [] means no block square.  The graph picks the route:

    - A bipartite complement's 2-coloring splits the graph into two
      cliques, and :func:`_two_clique_partitions` reads the partitions off
      it.
    - Any other graph is searched by :func:`_searched_partitions` on its
      non-isolated vertices, the isolated ones placed in closed form.  Only
      this route has a vertex bound: it raises TooManyVertices past
      `SEARCH_BOUND` vertices, isolated ones included.

    Both routes raise CapExceeded once the orbits pass `OUTPUT_BOUND`,
    before any partition is built, and take every least image in
    :func:`_least_images`.  Each distinct mask is named by walking its set
    bits upward, primes ascending, and the partitions sorted by names.
    """
    vertices = graph.vertices
    n = len(vertices)
    adj = graph.adjacency
    if graph.complement_coloring is not None:
        found = _two_clique_partitions(adj, *graph.complement_coloring)
    elif n > SEARCH_BOUND:
        raise TooManyVertices(f"{n} vertices exceeds search bound {SEARCH_BOUND}")
    else:
        found = _searched_partitions(adj)
    names = {}
    for m in set().union(*found):
        name, rest = [], m
        while rest:
            name.append(vertices[(rest & -rest).bit_length() - 1])
            rest &= rest - 1
        names[m] = tuple(name)
    named = sorted([(names[a], names[b], names[c], names[d]) for a, b, c, d in found])
    trusted = BlockPartition._trusted
    return [trusted(*blocks) for blocks in named]
