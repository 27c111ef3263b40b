"""Block-square detection on prime graphs.

A block square is a partition of the vertex set into four nonempty blocks
pi1..pi4 with no edges between pi1 and pi4, none between pi2 and pi3, and
witness vertices in pi1 and in pi4 adjacent into both pi2 and pi3.

The witness clause admits two readings.  The default ("strict") demands a
single vertex of pi1 adjacent into both pi2 and pi3 (and likewise for
pi4); ``weak_witness=True`` only demands that edges exist from pi1 to each
of pi2 and pi3 separately, possibly from different vertices.  For graphs
arising from groups the two coincide; they differ on hand-built graphs.
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

    Exhaustive assignment of vertices to the four blocks, pruning as soon
    as a pi1-pi4 or pi2-pi3 edge or an unfillable empty block appears.
    Every valid ordered assignment is collected, so each symmetry orbit is
    reduced to its least valid member afterwards.  Returns [] iff the
    graph is not a block square.  Raises TooManyVertices past
    `max_vertices`.
    """
    vertices = graph.vertices
    n = len(vertices)
    if n > max_vertices:
        raise TooManyVertices(f"{n} vertices exceeds search bound {max_vertices}")
    if n < 4:
        return []

    # High-degree vertices first: their adjacency prunes earliest.
    order = sorted(range(n), key=lambda i: (-len(graph.neighbors(vertices[i])), i))
    vertex_at = [vertices[order[pos]] for pos in range(n)]
    index_of = {vertex_at[pos]: pos for pos in range(n)}
    adj = [0] * n
    for p, q in graph.edges:
        adj[index_of[p]] |= 1 << index_of[q]
        adj[index_of[q]] |= 1 << index_of[p]

    # Conflicting block per block: placing v into b forbids adjacency into it.
    opposite = (3, 2, 1, 0)
    found: set[tuple[int, int, int, int]] = set()
    masks = [0, 0, 0, 0]

    def assign(pos: int, empty: int) -> None:
        if pos == n:
            if empty:
                return
            if _mask_witness(adj, masks[0], masks[1], masks[2], weak_witness) and _mask_witness(
                adj, masks[3], masks[1], masks[2], weak_witness
            ):
                found.add((masks[0], masks[1], masks[2], masks[3]))
            return
        if empty > n - pos:
            return
        a = adj[pos]
        bit = 1 << pos
        for b in range(4):
            if a & masks[opposite[b]]:
                continue
            was_empty = masks[b] == 0
            masks[b] |= bit
            assign(pos + 1, empty - 1 if was_empty else empty)
            masks[b] &= ~bit

    assign(0, 4)
    if not found:
        return []

    def decode(mask: int) -> tuple[int, ...]:
        out = []
        while mask:
            pos = (mask & -mask).bit_length() - 1
            out.append(vertex_at[pos])
            mask &= mask - 1
        return tuple(sorted(out))

    # The no-edge conditions are symmetry-invariant and every valid image is
    # itself a visited leaf, so an orbit's valid members are exactly its
    # intersection with `found`.
    canonical: set[_Blocks] = set()
    for quad in found:
        valid_images = [
            tuple(quad[sym[i]] for i in range(4))
            for sym in SQUARE_SYMMETRIES
            if tuple(quad[sym[i]] for i in range(4)) in found
        ]
        canonical.add(min(tuple(decode(m) for m in image) for image in valid_images))
    return [BlockPartition(*blocks) for blocks in sorted(canonical)]
