"""Block-square detection on prime graphs.

A block square is a partition of the vertex set into four nonempty blocks
pi1..pi4 with no edges between pi1 and pi4, none between pi2 and pi3, and
witness vertices in pi1 and in pi4 adjacent into both pi2 and pi3.

The witness clause admits two readings.  The default ("strict") demands a
single vertex of pi1 adjacent into both pi2 and pi3 (and likewise for
pi4); ``weak_witness=True`` only demands that edges exist from pi1 to each
of pi2 and pi3 separately, possibly from different vertices.  For graphs
arising from groups the two coincide; they differ on hand-built graphs.

The square has 8 symmetries of block positions; partitions in one orbit
count as one.  :func:`find_block_partitions` returns each orbit's least
valid member and its search reaches no other leaf: the symmetries inside
each pair (pi1, pi4) and (pi2, pi3) are broken while branching, the swap
of the two pairs at the leaf.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadPartition, TooManyVertices
from .graph import PrimeGraph
from .perm import _compose, closure

DEFAULT_SEARCH_BOUND = 20

_Blocks = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]


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


# The square has an 8-element symmetry group on block positions, generated
# by pi1<->pi4, pi2<->pi3, and swapping the pair (pi1,pi4) with (pi2,pi3).
def _symmetry_maps() -> tuple[tuple[int, int, int, int], ...]:
    gens = [(3, 1, 2, 0), (0, 2, 1, 3), (1, 0, 3, 2)]
    maps = closure({(0, 1, 2, 3)}, gens, _compose)
    assert maps is not None
    return tuple(sorted(maps))


SQUARE_SYMMETRIES = _symmetry_maps()


def apply_symmetry(part: BlockPartition, sym: tuple[int, int, int, int]) -> BlockPartition:
    blocks = part.blocks()
    return BlockPartition(*(blocks[sym[i]] for i in range(4)))


def _validate(graph: PrimeGraph, part: BlockPartition) -> None:
    blocks = part.blocks()
    if any(not b for b in blocks):
        raise BadPartition("every block must be nonempty")
    union: set[int] = set()
    total = 0
    for b in blocks:
        union.update(b)
        total += len(b)
    if total != len(union):
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
    weak: bool,
) -> bool:
    if weak:
        return any(graph.has_edge(p, q) for p in source for q in t1) and any(
            graph.has_edge(p, q) for p in source for q in t2
        )
    return any(
        any(graph.has_edge(p, q) for q in t1) and any(graph.has_edge(p, q) for q in t2)
        for p in source
    )


def is_block_square_partition(
    graph: PrimeGraph, part: BlockPartition, *, weak_witness: bool = False
) -> bool:
    """Check the four block-square conditions for an explicit partition."""
    _validate(graph, part)
    pi1, pi2, pi3, pi4 = part.blocks()
    if not _no_edges_between(graph, pi1, pi4):
        return False
    if not _no_edges_between(graph, pi2, pi3):
        return False
    if not _witness_ok(graph, pi1, pi2, pi3, weak_witness):
        return False
    return _witness_ok(graph, pi4, pi2, pi3, weak_witness)


def is_admissible_block_square(
    graph: PrimeGraph, part: BlockPartition, *, weak_witness: bool = False
) -> bool:
    """Block square whose blocks are cliques with complete cross adjacency.

    These are exactly the block squares realizable as a class-size prime
    graph: each pi_i induces a complete subgraph and every vertex of
    pi1 U pi4 is adjacent to every vertex of pi2 U pi3.
    """
    if not is_block_square_partition(graph, part, weak_witness=weak_witness):
        return False
    pi1, pi2, pi3, pi4 = part.blocks()
    if not all(graph.is_clique(b) for b in part.blocks()):
        return False
    return all(graph.has_edge(p, q) for p in pi1 + pi4 for q in pi2 + pi3)


def canonical_partition(
    graph: PrimeGraph, part: BlockPartition, *, weak_witness: bool = False
) -> BlockPartition:
    """Least valid image of `part` under the 8 square symmetries.

    The strict witness reading is not preserved by every symmetry on
    arbitrary graphs, so the representative is chosen among the images
    that remain valid (the partition itself always qualifies).
    """
    best: BlockPartition | None = None
    for sym in SQUARE_SYMMETRIES:
        image = apply_symmetry(part, sym)
        if not is_block_square_partition(graph, image, weak_witness=weak_witness):
            continue
        if best is None or image.blocks() < best.blocks():
            best = image
    assert best is not None
    return best


def _mask_witness(adj: list[int], ends: int, mid1: int, mid2: int, weak: bool) -> bool:
    if weak:
        seen1 = seen2 = False
        m = ends
        while m:
            v = (m & -m).bit_length() - 1
            a = adj[v]
            seen1 = seen1 or bool(a & mid1)
            seen2 = seen2 or bool(a & mid2)
            if seen1 and seen2:
                return True
            m &= m - 1
        return False
    m = ends
    while m:
        v = (m & -m).bit_length() - 1
        a = adj[v]
        if a & mid1 and a & mid2:
            return True
        m &= m - 1
    return False


def find_block_partitions(
    graph: PrimeGraph,
    *,
    weak_witness: bool = False,
    max_vertices: int = DEFAULT_SEARCH_BOUND,
) -> list[BlockPartition]:
    """All block-square partitions, one canonical representative per orbit.

    The representative is the least valid member of the orbit under the 8
    square symmetries (what :func:`canonical_partition` returns), and the
    search reaches no other leaf.  Vertices are assigned in increasing
    order, pruning as soon as a pi1-pi4 or pi2-pi3 edge or an unfillable
    empty block appears.  Blocks are disjoint, so they compare by their
    least vertices:

    - swapping pi1 with pi4, or pi2 with pi3, keeps both witness readings,
      so pi4 (pi3) may open only once pi1 (pi2) is nonempty;
    - the least vertex then lies in pi1 or pi2.  In pi2, the pairing with
      pi2 and pi3 as the ends gives a smaller member of the same orbit,
      so the leaf is dropped when that pairing is valid too.

    Returns [] iff the graph is not a block square.  Raises
    TooManyVertices past `max_vertices`.
    """
    vertices = graph.vertices
    n = len(vertices)
    if n > max_vertices:
        raise TooManyVertices(f"{n} vertices exceeds search bound {max_vertices}")
    if n < 4:
        return []

    index_of = {v: i for i, v in enumerate(vertices)}
    adj = [0] * n
    for p, q in graph.edges:
        adj[index_of[p]] |= 1 << index_of[q]
        adj[index_of[q]] |= 1 << index_of[p]

    found: list[_Blocks] = []
    masks = [0, 0, 0, 0]

    def assign(pos: int, empty: int) -> None:
        if pos == n:
            m1, m2, m3, m4 = masks
            if empty or not (
                _mask_witness(adj, m1, m2, m3, weak_witness)
                and _mask_witness(adj, m4, m2, m3, weak_witness)
            ):
                return
            if m2 & 1 and (
                _mask_witness(adj, m2, m1, m4, weak_witness)
                and _mask_witness(adj, m3, m1, m4, weak_witness)
            ):
                return
            found.append(
                tuple(tuple(v for i, v in enumerate(vertices) if m >> i & 1) for m in masks)
            )
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

    assign(0, 4)
    return [BlockPartition(*blocks) for blocks in sorted(found)]
