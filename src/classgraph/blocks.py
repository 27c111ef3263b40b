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
the leaf.
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
# image takes block sym[i] (see apply_symmetry).  They are generated by
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


def apply_symmetry(part: BlockPartition, sym: tuple[int, int, int, int]) -> BlockPartition:
    blocks = part.blocks()
    return BlockPartition(*(blocks[sym[i]] for i in range(4)))


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
    graph: each pi_i induces a complete subgraph and every vertex of
    pi1 U pi4 is adjacent to every vertex of pi2 U pi3.
    """
    if not is_block_square_partition(graph, part):
        return False
    pi1, pi2, pi3, pi4 = part.blocks()
    if not all(graph.is_clique(b) for b in part.blocks()):
        return False
    return all(graph.has_edge(p, q) for p in pi1 + pi4 for q in pi2 + pi3)


def canonical_partition(graph: PrimeGraph, part: BlockPartition) -> BlockPartition:
    """Least valid image of `part` under the 8 square symmetries.

    The witness clause is not preserved by every symmetry on
    arbitrary graphs, so the representative is chosen among the images
    that remain valid (the partition itself always qualifies).
    """
    best: BlockPartition | None = None
    for sym in SQUARE_SYMMETRIES:
        image = apply_symmetry(part, sym)
        if not is_block_square_partition(graph, image):
            continue
        if best is None or image.blocks() < best.blocks():
            best = image
    assert best is not None
    return best


def _mask_witness(adj: tuple[int, ...], ends: int, mid1: int, mid2: int) -> bool:
    while ends:
        a = adj[(ends & -ends).bit_length() - 1]
        if a & mid1 and a & mid2:
            return True
        ends &= ends - 1
    return False


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
    square symmetries (what :func:`canonical_partition` returns); [] means
    no block square.  The graph picks the route:

    - A bipartite complement's 2-coloring splits the graph into two
      cliques, and :func:`_two_clique_partitions` reads the partitions off
      it.  Each end block shares a clique with a middle block, so a
      witness needs only an edge into the other: all images are valid.
    - Any other graph is searched; only this route is bounded, raising
      TooManyVertices past `SEARCH_BOUND`.  Vertices are assigned in
      increasing order, pruning as soon as a pi1-pi4 or pi2-pi3 edge or an
      unfillable empty block appears.  Blocks compare by least vertex, so
      pi4 (pi3) opens only once pi1 (pi2) is nonempty, and a leaf with the
      least vertex in pi2 is dropped when pi2 and pi3 could be the ends.
    """
    vertices = graph.vertices
    n = len(vertices)
    adj = graph.adjacency
    found: list[_Masks] = []
    masks = [0, 0, 0, 0]

    def assign(pos: int, empty: int) -> None:
        if pos == n:
            m1, m2, m3, m4 = masks
            if empty or not (_mask_witness(adj, m1, m2, m3) and _mask_witness(adj, m4, m2, m3)):
                return
            if m2 & 1 and (_mask_witness(adj, m2, m1, m4) and _mask_witness(adj, m3, m1, m4)):
                return
            found.append((m1, m2, m3, m4))
            return
        if empty > n - pos:
            return
        a = adj[pos]
        bit = 1 << pos
        for b in range(4):
            # Block 3 - b is b's non-adjacent partner; pi3 and pi4 open after it.
            if a & masks[3 - b] or (b >= 2 and not masks[3 - b]):
                continue
            was_empty = masks[b] == 0
            masks[b] |= bit
            assign(pos + 1, empty - 1 if was_empty else empty)
            masks[b] &= ~bit

    if graph.complement_coloring is not None:
        found.extend(_two_clique_partitions(adj, *graph.complement_coloring))
    elif n > SEARCH_BOUND:
        raise TooManyVertices(f"{n} vertices exceeds search bound {SEARCH_BOUND}")
    else:
        assign(0, 4)
    parts = (
        BlockPartition(*(tuple(v for i, v in enumerate(vertices) if m >> i & 1) for m in masks))
        for masks in found
    )
    return sorted(parts, key=BlockPartition.blocks)
