from __future__ import annotations

import pickle
import random
import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classgraph import (
    BadPartition,
    BlockPartition,
    CapExceeded,
    PrimeGraph,
    TooManyVertices,
    find_block_partitions,
    is_admissible_block_square,
    is_block_square_partition,
)
from classgraph.blocks import OUTPUT_BOUND, SEARCH_BOUND
from oracles import (
    SQUARE_SYMMETRIES,
    admissible_by_three_passes,
    admissible_square,
    apply_symmetry,
    canonical_block_partitions,
    canonical_partition,
    fast_block_square_exists,
    naive_block_square_exists,
    sieve_primes,
    square_orbit,
)

PRIMES = (2, 3, 5, 7, 11, 13, 17)

SQUARE = PrimeGraph((3, 5, 7, 11), frozenset({(3, 5), (3, 11), (5, 7), (7, 11)}))


def graph_from_bits(n: int, bits: int, vertices: tuple[int, ...] = PRIMES) -> PrimeGraph:
    vertices = vertices[:n]
    edges = set()
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if bits >> k & 1:
                edges.add((vertices[i], vertices[j]))
            k += 1
    return PrimeGraph(vertices, frozenset(edges))


def cliques_joined(left, right, across) -> frozenset[tuple[int, int]]:
    """Edges of cliques on left and on right, plus the left-right pairs across."""
    return frozenset(combinations(left, 2)) | frozenset(combinations(right, 2)) | frozenset(across)


def adjacency_bitmasks(graph: PrimeGraph) -> list[int]:
    index = {v: i for i, v in enumerate(graph.vertices)}
    adj = [0] * len(graph.vertices)
    for p, q in graph.edges:
        adj[index[p]] |= 1 << index[q]
        adj[index[q]] |= 1 << index[p]
    return adj


# -- is_block_square_partition ------------------------------------------------


def test_square_partition_true():
    part = BlockPartition((3,), (5,), (11,), (7,))
    assert is_block_square_partition(SQUARE, part)


def test_square_partition_middle_swap_symmetry():
    part = BlockPartition((3,), (11,), (5,), (7,))
    assert is_block_square_partition(SQUARE, part)


def test_square_partition_wrong_pairing():
    part = BlockPartition((3,), (7,), (5,), (11,))
    assert not is_block_square_partition(SQUARE, part)  # 3-11 is an edge


def test_partition_validation():
    with pytest.raises(BadPartition):
        is_block_square_partition(SQUARE, BlockPartition((3,), (3, 5), (11,), (7,)))
    with pytest.raises(BadPartition):
        is_block_square_partition(SQUARE, BlockPartition((3,), (5,), (11,), ()))
    with pytest.raises(BadPartition):
        is_block_square_partition(SQUARE, BlockPartition((3,), (5,), (11,), (13,)))


def test_witness_must_be_a_single_vertex():
    # pi1 = {3, 5}: 3 reaches pi2, only 5 reaches pi3; no single witness.
    g = PrimeGraph(
        (2, 3, 5, 7, 11),
        frozenset({(3, 7), (5, 11), (2, 7), (2, 11)}),
    )
    part = BlockPartition((3, 5), (7,), (11,), (2,))
    assert not is_block_square_partition(g, part)


def test_trusted_partition_is_the_checked_one():
    # The detector builds its partitions from blocks already sorted, without
    # the checked constructor; the two must not be told apart, pickled or not.
    blocks = ((2, 13), (3,), (5, 11, 17), (7,))
    trusted, checked = BlockPartition._trusted(*blocks), BlockPartition(*blocks)
    assert trusted == checked and hash(trusted) == hash(checked)
    assert trusted.blocks() == blocks
    assert pickle.dumps(trusted) == pickle.dumps(checked)
    assert pickle.loads(pickle.dumps(trusted)) == checked


# -- symmetries ------------------------------------------------------------------


def test_symmetry_group_has_eight_elements():
    assert len(SQUARE_SYMMETRIES) == 8


def test_symmetry_literal_holds_its_generators_and_is_closed():
    # pi1<->pi4, pi2<->pi3, and the swap of the pairs (pi1,pi4) and (pi2,pi3).
    assert {(3, 1, 2, 0), (0, 2, 1, 3), (1, 0, 3, 2)} <= set(SQUARE_SYMMETRIES)
    assert list(SQUARE_SYMMETRIES) == sorted(set(SQUARE_SYMMETRIES))
    for a in SQUARE_SYMMETRIES:
        for b in SQUARE_SYMMETRIES:
            assert tuple(a[b[i]] for i in range(4)) in SQUARE_SYMMETRIES


def test_symmetry_images_of_square_partition_all_valid():
    part = BlockPartition((3,), (5,), (11,), (7,))
    images = {apply_symmetry(part, sym).blocks() for sym in SQUARE_SYMMETRIES}
    assert len(images) == 8
    assert images == {p.blocks() for p in square_orbit(part)}
    for blocks in images:
        assert is_block_square_partition(SQUARE, BlockPartition(*blocks))


def test_canonical_partition_is_least_valid_image():
    part = BlockPartition((7,), (11,), (5,), (3,))
    canon = canonical_partition(SQUARE, part)
    assert canon == BlockPartition((3,), (5,), (11,), (7,))


# -- find_block_partitions ----------------------------------------------------------


def test_too_few_vertices():
    assert find_block_partitions(PrimeGraph((2, 3, 5), frozenset())) == []


def test_too_many_vertices_guard():
    # The bound guards only the search, which takes the graphs whose
    # complement is not bipartite; an edgeless graph's complement is complete.
    vertices = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)
    assert len(vertices) == SEARCH_BOUND + 1
    g = PrimeGraph(vertices, frozenset())
    with pytest.raises(TooManyVertices):
        find_block_partitions(g)
    labels = tuple(sieve_primes(100)[:22])
    # Two disjoint K11 on 22 primes, past the bound: read off the coloring.
    two_k11 = PrimeGraph(labels, cliques_joined(labels[:11], labels[11:], ()))
    assert find_block_partitions(two_k11) == []
    # Two disjoint K10, the graph of a D-group on 20 primes.
    two_k10 = PrimeGraph(labels[:20], cliques_joined(labels[:10], labels[10:20], ()))
    assert find_block_partitions(two_k10) == []
    # The admissible 5,5,5,5 square.
    pi = [labels[i : i + 5] for i in range(0, 20, 5)]
    across = [*product(pi[0], pi[2]), *product(pi[1], pi[3])]
    square = PrimeGraph(labels[:20], cliques_joined(pi[0] + pi[1], pi[2] + pi[3], across))
    assert find_block_partitions(square) == [BlockPartition(*pi)]
    # 22 primes whose complement is 11 disjoint edges: more than two components.
    non_edges = {labels[i : i + 2] for i in range(0, 22, 2)}
    matching = PrimeGraph(labels, frozenset(combinations(labels, 2)) - non_edges)
    assert find_block_partitions(matching) == []


def test_at_most_one_linked_component_returns_before_building():
    # Past the search bound, read off the coloring: with at most one
    # component of left-right edges there is no choice of linked components,
    # so nothing sized by the 2^28 to 2^30 subsets of free vertices is built.
    labels = tuple(sieve_primes(130)[:30])
    left, right = labels[:15], labels[15:]
    graphs = [
        PrimeGraph(labels, cliques_joined(left, right, ())),
        PrimeGraph(labels, cliques_joined(labels[:29], (), ())),
        PrimeGraph(labels, cliques_joined(left, right, [(left[0], right[0])])),
    ]
    for g in graphs:
        assert g.complement_coloring is not None
        start = time.process_time()
        assert find_block_partitions(g) == []
        assert time.process_time() - start < 1.0, g.edges


def test_square_has_exactly_one_canonical_partition():
    parts = find_block_partitions(SQUARE)
    assert parts == [BlockPartition((3,), (5,), (11,), (7,))]


def test_complete_graph_has_no_partition():
    k4 = PrimeGraph(
        (2, 3, 5, 7),
        frozenset({(2, 3), (2, 5), (2, 7), (3, 5), (3, 7), (5, 7)}),
    )
    assert find_block_partitions(k4) == []


def test_empty_graph_has_no_partition():
    g = PrimeGraph((2, 3, 5, 7), frozenset())
    assert find_block_partitions(g) == []


def test_returned_partitions_pass_the_predicate():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(4, 7)
        g = graph_from_bits(n, rng.getrandbits(n * (n - 1) // 2))
        for part in find_block_partitions(g):
            assert is_block_square_partition(g, part)
            # Built without the public constructor's sort, yet in its normal form.
            assert part == BlockPartition(*(b[::-1] for b in part.blocks()))


def test_detector_agrees_with_naive_public_api_oracle():
    # Exhaustive on <= 4 vertices, random beyond.
    cases = [
        graph_from_bits(n, bits) for n in range(5) for bits in range(1 << (n * (n - 1) // 2))
    ]
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randint(5, 6)
        cases.append(graph_from_bits(n, rng.getrandbits(n * (n - 1) // 2)))
    for g in cases:
        assert bool(find_block_partitions(g)) == naive_block_square_exists(g), g


def test_detector_returns_the_canonical_list():
    # Every graph on <= 5 vertices, then random graphs on 6-7 vertices
    # labelled by spread-out primes; the whole list.
    cases = [
        graph_from_bits(n, bits) for n in range(6) for bits in range(1 << (n * (n - 1) // 2))
    ]
    rng = random.Random(17)
    labels = sieve_primes(100)
    for _ in range(120):
        n = rng.randint(6, 7)
        vertices = tuple(sorted(rng.sample(labels, n)))
        cases.append(graph_from_bits(n, rng.getrandbits(n * (n - 1) // 2), vertices))
    for g in cases:
        assert find_block_partitions(g) == canonical_block_partitions(g), g


def labelled_graph(n: int, edges, labels) -> PrimeGraph:
    """The graph on 0..n-1 with edges, vertex i labelled labels[i]."""
    return PrimeGraph(tuple(labels[:n]), frozenset((labels[i], labels[j]) for i, j in edges))


def sparse_shapes(n: int) -> dict[str, list[tuple[int, int]]]:
    return {
        "path": [(i, i + 1) for i in range(n - 1)],
        "cycle": [(i, (i + 1) % n) for i in range(n)],
        "star": [(0, i) for i in range(1, n)],
        "matching": [(i, i + 1) for i in range(0, n - 1, 2)],
        "edgeless": [],
    }


def test_detector_returns_the_canonical_list_on_sparse_graphs():
    # Sparse graphs are where the witness-feasibility prune cuts the
    # search; the whole list must still be the oracle's.  Shuffled
    # spread-out labels vary the order in which the search meets vertices.
    rng = random.Random(29)
    labels = sieve_primes(100)
    cases = []
    pairs = list(combinations(range(8), 2))
    for _ in range(16):
        cases.append(labelled_graph(8, rng.sample(pairs, rng.randint(4, 10)), rng.sample(labels, 8)))
    for n in range(5, 9):
        for edges in sparse_shapes(n).values():
            order = rng.sample(labels, n + 1)
            cases.append(labelled_graph(n, edges, order))
            # One pendant vertex on a random vertex.
            cases.append(labelled_graph(n + 1, [*edges, (rng.randrange(n), n)], order))
    for g in cases:
        assert find_block_partitions(g) == canonical_block_partitions(g), g


def test_sparse_graphs_at_the_search_bound_fail_fast():
    # Each fails at the root of the search, the star also with its centre
    # on the largest label, behind all its leaves.
    labels = sieve_primes(100)[:SEARCH_BOUND]
    n = len(labels)
    shapes = sparse_shapes(n)
    star_last = [(i, n - 1) for i in range(n - 1)]
    for edges in (shapes["edgeless"], shapes["matching"], shapes["star"], star_last):
        g = labelled_graph(n, edges, labels)
        assert g.complement_coloring is None
        start = time.process_time()
        assert find_block_partitions(g) == []
        assert time.process_time() - start < 1.0, edges


def graph_with_isolated(rng, n: int, k: int, labels, *, least_isolated: bool) -> PrimeGraph:
    """n labelled vertices, k of them isolated, the others a random core.

    Half the cores are a blown-up 4-cycle, whose four classes are joined
    only around the cycle, so both pairings of a block square are often
    valid; the others are random graphs of varying density.
    """
    labels = sorted(rng.sample(labels, n))
    if least_isolated:
        isolated = [labels[0], *rng.sample(labels[1:], k - 1)]
    else:
        isolated = rng.sample(labels, k)
    core = [v for v in labels if v not in isolated]
    if rng.random() < 0.5:
        cls = {v: i % 4 for i, v in enumerate(rng.sample(core, len(core)))}
        allowed = [(p, q) for p, q in combinations(core, 2) if (cls[p] - cls[q]) % 2]
        density = rng.choice((0.5, 0.8, 1.0))
    else:
        allowed = list(combinations(core, 2))
        density = rng.choice((0.3, 0.5, 0.7))
    return PrimeGraph(tuple(labels), frozenset(e for e in allowed if rng.random() < density))


def test_detector_returns_the_canonical_list_with_isolated_vertices():
    # The search runs on the vertices with a neighbour and places the
    # isolated ones in closed form.  Some cases give an isolated vertex the
    # least label, so that the core's least vertex is not the graph's, and
    # some have block squares whose two pairings are both valid, so that
    # the least image takes the pair swap.
    rng = random.Random(41)
    labels = sieve_primes(100)
    least_isolated = both_pairings = 0
    for case, n in enumerate([5, 6, 7, 8] * 8 + [9] * 4 + [10] * 2):
        k = rng.randint(1, min(4, n - 4))
        g = graph_with_isolated(rng, n, k, labels, least_isolated=case % 3 == 0)
        assert g.complement_coloring is None
        parts = find_block_partitions(g)
        assert parts == canonical_block_partitions(g), g
        if parts and not g.adjacency[0]:
            least_isolated += 1
        both_pairings += any(
            is_block_square_partition(g, BlockPartition(p.pi2, p.pi1, p.pi4, p.pi3)) for p in parts
        )
    assert least_isolated >= 3 and both_pairings >= 3, (least_isolated, both_pairings)


def test_isolated_vertices_multiply_the_partitions_by_four():
    # No symmetry of the square fixes a partition into four nonempty
    # blocks, so each isolated vertex multiplies the orbits by 4.
    rng = random.Random(43)
    labels = sieve_primes(60)
    bases = [SQUARE]
    while len(bases) < 6:
        n = rng.randint(5, 6)
        g = graph_from_bits(n, rng.getrandbits(n * (n - 1) // 2), tuple(rng.sample(labels, n)))
        if all(g.adjacency) and g.complement_coloring is None and find_block_partitions(g):
            bases.append(g)
    for base in bases:
        count = len(find_block_partitions(base))
        spare = [v for v in labels if v not in base.vertices]
        for k in range(1, 4):
            g = PrimeGraph(base.vertices + tuple(rng.sample(spare, k)), base.edges)
            parts = find_block_partitions(g)
            assert len(parts) == 4**k * count, (base, k)
            orbits = {frozenset(q.blocks() for q in square_orbit(p)) for p in parts}
            assert len(orbits) == len(parts)
            assert all(p == BlockPartition(*(b[::-1] for b in p.blocks())) for p in parts)


def assert_named_sorted_and_one_per_orbit(g: PrimeGraph, parts: list[BlockPartition]) -> None:
    assert parts == sorted(parts, key=BlockPartition.blocks)
    for p in parts:
        assert all(list(b) == sorted(b) for b in p.blocks()), p
        assert is_block_square_partition(g, p), p
    orbits = {frozenset(q.blocks() for q in square_orbit(p)) for p in parts}
    assert len(orbits) == len(parts)


def test_blocks_past_the_tenth_vertex_are_named_in_order():
    # Graphs of 11 to 20 primes whose blocks hold vertices at bit 10 and
    # above, on both routes: each block is named from its set bits, lowest
    # first, so its primes must come out ascending and be the right ones.
    labels = sieve_primes(80)[:20]
    # Two cliques, alternating labels, joined by three disjoint edges: the
    # linked components give 2^2 - 1 choices, and each free vertex doubles them.
    for n in (11, 14, 17):
        left, right = labels[:n:2], labels[1:n:2]
        across = [(left[-1], right[-1]), (left[-3], right[-2]), (left[0], right[-4])]
        g = PrimeGraph(labels[:n], cliques_joined(left, right, across))
        assert g.complement_coloring is not None
        parts = find_block_partitions(g)
        assert len(parts) == 3 * 2 ** (n - 6), n
        assert_named_sorted_and_one_per_orbit(g, parts)
        assert any(labels[10] in b for p in parts for b in p.blocks())
    # A seeded core with block squares among k isolated primes, one of them
    # below bit 10 and one above: 4^k times the core's count.
    rng = random.Random(61)
    for n, k in ((12, 4), (16, 3), (20, 2)):
        isolated = labels[1:n:n // k][:k]
        assert isolated[0] < labels[10] <= isolated[-1]
        core = tuple(v for v in labels[:n] if v not in isolated)
        pairs = list(combinations(core, 2))
        while True:
            g = PrimeGraph(core, frozenset(rng.sample(pairs, len(pairs) // 2)))
            if all(g.adjacency) and g.complement_coloring is None and find_block_partitions(g):
                break
        h = PrimeGraph(labels[:n], g.edges)
        parts = find_block_partitions(h)
        assert len(parts) == 4**k * len(find_block_partitions(g)), (n, k)
        assert_named_sorted_and_one_per_orbit(h, parts)


def test_isolated_vertices_are_placed_in_bounded_time():
    # A 4-cycle on the largest of 12 primes, the 8 least isolated:
    # 4^8 least images, one per placement, for the one square of the cycle.
    labels = sieve_primes(40)[:12]
    cycle = labels[8:]
    g = PrimeGraph(labels, frozenset(zip(cycle, cycle[1:] + cycle[:1])))
    assert g.complement_coloring is None
    start = time.process_time()
    parts = find_block_partitions(g)
    assert time.process_time() - start < 1.0
    assert len(parts) == 4**8
    assert parts[0] == BlockPartition(labels[:8] + cycle[:1], cycle[1:2], cycle[3:], cycle[2:3])


def test_output_bound_raises_before_any_partition_is_built():
    # C4 plus 16 isolated vertices, 20 primes: 4^16 orbits, known from the
    # one leaf of the cycle before any placement is built.
    labels = sieve_primes(80)[:20]
    cycle = labels[16:]
    g = PrimeGraph(labels, frozenset(zip(cycle, cycle[1:] + cycle[:1])))
    assert g.complement_coloring is None and 4**16 > OUTPUT_BOUND >= 4**8
    start = time.process_time()
    with pytest.raises(CapExceeded, match=f"exceed output bound {OUTPUT_BOUND}"):
        find_block_partitions(g)
    assert time.process_time() - start < 1.0
    # Two cliques of 11 and 10 primes joined by two disjoint edges: the two
    # linked components give one choice, and each of the 17 other vertices
    # doubles it, so 2^17 orbits, read off the coloring.
    labels = sieve_primes(100)[:21]
    left, right = labels[:11], labels[11:]
    across = [(left[0], right[0]), (left[1], right[1])]
    g = PrimeGraph(labels, cliques_joined(left, right, across))
    assert g.complement_coloring is not None and 2**17 > OUTPUT_BOUND
    start = time.process_time()
    with pytest.raises(CapExceeded, match=f"exceed output bound {OUTPUT_BOUND}"):
        find_block_partitions(g)
    assert time.process_time() - start < 1.0


def relabelled(graph: PrimeGraph, new: dict[int, int]) -> PrimeGraph:
    edges = frozenset((new[p], new[q]) for p, q in graph.edges)
    return PrimeGraph(tuple(sorted(new.values())), edges)


def test_relabelling_moves_the_partitions_with_the_labels():
    # The search takes the core highest degree first, ties by index, and
    # anchors the pair-swap prune on the first vertex it places, so a
    # relabelling changes the order of the search and its anchor but not
    # the orbits: the relabelled list is the original one mapped through
    # the labels and put back in canonical form.  Most relabellings give
    # a highest-degree vertex the largest label, so the vertex placed
    # first is seldom the least.  The graphs are random, from sparse to dense,
    # and a quarter of them get one or two more vertices, isolated.
    rng = random.Random(53)
    labels = sieve_primes(100)
    top_last = searched = with_isolated = 0
    for case in range(200):
        core = rng.randint(6, 8) if case % 4 == 0 else rng.randint(6, 10)
        n = core + rng.randint(1, 2) if case % 4 == 0 else core
        pairs = list(combinations(range(core), 2))
        edges = rng.sample(pairs, round(rng.choice((0.2, 0.35, 0.5, 0.65, 0.8)) * len(pairs)))
        g = labelled_graph(n, edges, rng.sample(labels, n))
        targets = sorted(rng.sample(labels, n))
        if case % 3:
            top = g.vertices[max(range(n), key=lambda i: g.adjacency[i].bit_count())]
            rest = [v for v in g.vertices if v != top]
            new = {top: targets[-1], **dict(zip(rng.sample(rest, n - 1), targets[:-1]))}
            top_last += 1
        else:
            new = dict(zip(rng.sample(g.vertices, n), targets))
        h = relabelled(g, new)
        mapped = [
            canonical_partition(h, BlockPartition(*(tuple(new[v] for v in b) for b in p.blocks())))
            for p in find_block_partitions(g)
        ]
        assert find_block_partitions(h) == sorted(mapped, key=BlockPartition.blocks), (g, new)
        if mapped and h.complement_coloring is None:
            searched += 1
            with_isolated += not all(h.adjacency)
    counts = (top_last, searched, with_isolated)
    assert top_last >= 120 and searched >= 60 and with_isolated >= 20, counts


def test_detector_returns_the_canonical_list_when_the_first_vertex_is_not_least():
    # No isolated vertex, and one vertex of highest degree, which the
    # search places first, carrying the largest label.  Every leaf puts that
    # vertex in pi1 or pi2; partitions with it in pi3 or pi4 come only from
    # the least image taken at the leaf.
    rng = random.Random(59)
    labels = sieve_primes(100)
    moved = 0
    cases = 0
    while cases < 80:
        n = rng.randint(6, 8)
        vertices = tuple(sorted(rng.sample(labels, n)))
        g = graph_from_bits(n, rng.getrandbits(n * (n - 1) // 2), vertices)
        degrees = [a.bit_count() for a in g.adjacency]
        top = max(degrees)
        if not all(degrees) or degrees.count(top) > 1 or g.complement_coloring is not None:
            continue
        first = degrees.index(top)
        if first != n - 1:
            # Swap the labels of the first vertex and of the largest.
            v, w = g.vertices[first], g.vertices[-1]
            g = relabelled(g, {**{u: u for u in g.vertices}, v: w, w: v})
        cases += 1
        parts = find_block_partitions(g)
        assert parts == canonical_block_partitions(g), g
        moved += any(g.vertices[-1] in p.pi3 + p.pi4 for p in parts)
    assert moved >= 10, moved


def test_fast_oracle_agrees_with_naive_oracle():
    # The bitmask set-partition oracle used in the big acceptance sweeps
    # must agree with the straightforward public-API oracle.
    cases = [
        graph_from_bits(n, bits) for n in range(5) for bits in range(1 << (n * (n - 1) // 2))
    ]
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(5, 7)
        cases.append(graph_from_bits(n, rng.getrandbits(n * (n - 1) // 2)))
    for g in cases:
        adj = adjacency_bitmasks(g)
        n = len(g.vertices)
        assert fast_block_square_exists(adj, n) == naive_block_square_exists(g), g


@st.composite
def two_clique_graphs(draw) -> PrimeGraph:
    """A random split L/R of up to 9 primes, each side a clique, and random L-R edges.

    Either side may be empty.  Cross edges are drawn from sparse to dense,
    half the time only between the ends and middles of one planted square,
    and one vertex may be joined to every other.
    """
    n = draw(st.sampled_from(range(1, 10)))
    vertices = tuple(sieve_primes(23)[:n])
    rng = draw(st.randoms(use_true_random=True))
    left = [v for v in vertices if rng.random() < 0.5]
    right = [v for v in vertices if v not in left]
    pairs = list(product(left, right))
    allowed = pairs
    if draw(st.booleans()):
        # Only edges pi1-pi3 and pi2-pi4 of a random labelling, so that
        # block squares are common.
        upper = {v for v in vertices if rng.random() < 0.5}
        allowed = [(a, b) for a, b in pairs if (a in upper) == (b in upper)]
    density = draw(st.sampled_from((0.2, 0.35, 0.5, 0.8)))
    across = [pair for pair in allowed if rng.random() < density]
    if draw(st.integers(0, 3)) == 0:
        apex = draw(st.sampled_from(vertices))
        across += [pair for pair in pairs if apex in pair]
    return PrimeGraph(vertices, cliques_joined(left, right, across))


@settings(max_examples=200, deadline=None)
@given(two_clique_graphs())
def test_two_clique_route_returns_the_canonical_list(g):
    assert g.complement_coloring is not None
    assert find_block_partitions(g) == canonical_block_partitions(g)


# -- admissibility ---------------------------------------------------------------------


def test_square_is_admissible():
    part = BlockPartition((3,), (5,), (11,), (7,))
    assert is_admissible_block_square(SQUARE, part)


def test_block_square_with_non_clique_block_is_not_admissible():
    # Complete bipartite {3,7,13} x {5,11} but 3-7 missing inside pi1.
    g = PrimeGraph(
        (3, 5, 7, 11, 13),
        frozenset({(3, 5), (3, 11), (7, 5), (7, 11), (13, 5), (13, 11)}),
    )
    part = BlockPartition((3, 7), (5,), (11,), (13,))
    assert is_block_square_partition(g, part)
    assert not is_admissible_block_square(g, part)


def test_missing_cross_edge_is_not_admissible():
    g = PrimeGraph(
        (2, 3, 5, 7, 11),
        frozenset({(2, 3), (2, 5), (2, 11), (3, 7), (5, 7), (7, 11)}),
    )
    parts = find_block_partitions(g)
    for part in parts:
        assert not is_admissible_block_square(g, part)


@st.composite
def ordered_partitioned_graphs(draw):
    """A graph on 4 to 7 primes with an ordered 4-block partition of them.

    Half of the graphs are the admissible square on the partition with 0 to
    2 vertex pairs flipped, so both answers of the predicate occur often.
    """
    n = draw(st.integers(4, 7))
    vertices = PRIMES[:n]
    labels = [0, 1, 2, 3] + draw(st.lists(st.integers(0, 3), min_size=n - 4, max_size=n - 4))
    order = draw(st.permutations(range(n)))
    blocks = [tuple(vertices[order[i]] for i in range(n) if labels[i] == b) for b in range(4)]
    pairs = list(combinations(vertices, 2))
    if draw(st.booleans()):
        flipped = draw(st.sets(st.sampled_from(pairs), max_size=2))
        edges = admissible_square(*blocks).edges ^ flipped
    else:
        edges = draw(st.sets(st.sampled_from(pairs)))
    return PrimeGraph(vertices, frozenset(edges)), BlockPartition(*blocks)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ordered_partitioned_graphs())
def test_admissibility_agrees_with_three_pass_oracle(case):
    graph, part = case
    assert is_admissible_block_square(graph, part) == admissible_by_three_passes(graph, part)
