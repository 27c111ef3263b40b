from __future__ import annotations

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classgraph import (
    BadPartition,
    BlockPartition,
    PrimeGraph,
    TooManyVertices,
    canonical_partition,
    find_block_partitions,
    is_admissible_block_square,
    is_block_square_partition,
)
from classgraph.blocks import SEARCH_BOUND, SQUARE_SYMMETRIES, apply_symmetry
from oracles import (
    canonical_block_partitions,
    fast_block_square_exists,
    naive_block_square_exists,
    sieve_primes,
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
