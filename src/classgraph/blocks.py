"""Block-square detection on prime graphs.

A block square is a partition of the vertex set into four nonempty blocks
pi1..pi4 with no edges between pi1 and pi4, none between pi2 and pi3, and
witness vertices in pi1 and in pi4 adjacent into both pi2 and pi3.  A
witness is a single vertex of the end block with a neighbour in each
middle block.

The square has 8 symmetries of block positions; partitions in one orbit
count as one.  :func:`find_block_partitions` returns each orbit's least
valid member.  When the complement is bipartite it reads them off the
complement's 2-coloring, in time polynomial in the size of the output.
Any other graph is searched up to :data:`SEARCH_BOUND` vertices, and the
search reaches no other leaf: the symmetries inside each pair (pi1, pi4)
and (pi2, pi3) are broken while branching, the swap of the two pairs at
the leaf.  It also stops at any node where pi1 and pi4 can no longer get
two distinct witnesses from the vertices placed or still free to join
them, so an edgeless graph, a perfect matching or a star fails at the
root.  Either route names each block's primes once and sorts the
partitions as tuples of those names.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadPartition, TooManyVertices
from .graph import PrimeGraph, mask_components

SEARCH_BOUND = 20

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
    found: list[_Masks] = []
    for chosen in range(1, (1 << len(linked)) - 1, 2):
        for extra in range(1 << len(free)):
            first = sum(c for i, c in enumerate(linked) if chosen >> i & 1)
            first += sum(c for i, c in enumerate(free) if extra >> i & 1)
            blocks = (left & first, left & ~first, right & first, right & ~first)
            images = (tuple(blocks[i] for i in sym) for sym in SQUARE_SYMMETRIES)
            # Disjoint blocks compare by their least vertices.
            found.append(min(images, key=lambda b: [m & -m for m in b]))
    return found


def find_block_partitions(graph: PrimeGraph) -> list[BlockPartition]:
    """All block-square partitions, one canonical representative per orbit.

    The representative is the least valid member of the orbit under the 8
    square symmetries; [] means no block square.  The graph picks the route:

    - A bipartite complement's 2-coloring splits the graph into two
      cliques, and :func:`_two_clique_partitions` reads the partitions off
      it.  Each end block shares a clique with a middle block, so a
      witness needs only an edge into the other: all images are valid.
    - Any other graph is searched; only this route is bounded, raising
      TooManyVertices past `SEARCH_BOUND`.  Vertices are assigned in
      increasing order, pruning as soon as a pi1-pi4 or pi2-pi3 edge or an
      unfillable empty block appears, or an end block can no longer get a
      witness.  Blocks compare by least vertex, so pi4 (pi3) opens only
      once pi1 (pi2) is nonempty, and a leaf with the least vertex in pi2
      is dropped when pi2 and pi3 could be the ends.

    Both routes name each block mask by its primes once per call, and sort
    the partitions as tuples of names before building them.
    """
    vertices = graph.vertices
    n = len(vertices)
    adj = graph.adjacency
    full = (1 << n) - 1
    found: list[_Masks] = []
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

    def assign(pos: int, empty: int) -> None:
        bit = 1 << pos
        if empty > n - pos or not witnesses_possible(full & -bit):
            return
        if pos == n:
            m1, m2, m3, m4 = masks
            if not (m2 & 1 and _witness(adj, m2, m1, m4) and _witness(adj, m3, m1, m4)):
                found.append((m1, m2, m3, m4))
            return
        a = adj[pos]
        for b in range(4):
            # Block 3 - b is b's non-adjacent partner; pi3 and pi4 open after it.
            if a & masks[3 - b] or (b >= 2 and not masks[3 - b]):
                continue
            m, r = masks[b], reach[b]
            masks[b], reach[b] = m | bit, r | a
            assign(pos + 1, empty if m else empty - 1)
            masks[b], reach[b] = m, r

    if graph.complement_coloring is not None:
        found.extend(_two_clique_partitions(adj, *graph.complement_coloring))
    elif n > SEARCH_BOUND:
        raise TooManyVertices(f"{n} vertices exceeds search bound {SEARCH_BOUND}")
    else:
        assign(0, 4)
    names = {m: tuple(v for i, v in enumerate(vertices) if m >> i & 1) for m in set().union(*found)}
    # Names list their primes in vertex order, which is ascending.
    return [BlockPartition._trusted(*b) for b in sorted(tuple(names[m] for m in f) for f in found)]
