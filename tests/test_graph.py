from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classgraph import (
    InternalInvariantError,
    PrimeGraph,
    convolve_spectra,
    delta_of,
)
from oracles import complete_vertices, is_clique, non_neighbors


SQUARE = PrimeGraph((3, 5, 7, 11), frozenset({(3, 5), (3, 11), (5, 7), (7, 11)}))


def test_construction_normalizes_and_validates():
    g = PrimeGraph((5, 3), frozenset({(5, 3)}))
    assert g.vertices == (3, 5)
    assert g.edges == frozenset({(3, 5)})
    with pytest.raises(ValueError):
        PrimeGraph((4,), frozenset())
    with pytest.raises(ValueError):
        PrimeGraph((3, 5), frozenset({(3, 3)}))
    with pytest.raises(ValueError):
        PrimeGraph((3, 5), frozenset({(3, 7)}))


# -- delta_of ---------------------------------------------------------------


def test_delta_of_abelian_spectrum_is_empty_graph():
    g = delta_of([1, 1, 1, 1, 1, 1])
    assert g.vertices == ()
    assert g.edges == frozenset()
    assert g.components() == []


def test_delta_of_f21_spectrum():
    g = delta_of([1, 3, 3, 7, 7])
    assert g.vertices == (3, 7)
    assert g.edges == frozenset()


def test_delta_of_s4_spectrum():
    g = delta_of([1, 6, 8, 3, 6])
    assert g.vertices == (2, 3)
    assert g.edges == frozenset({(2, 3)})


def test_delta_of_accepts_counter():
    assert delta_of(Counter({1: 1, 3: 2, 7: 2})) == delta_of([1, 3, 3, 7, 7])


def test_delta_of_reads_sizes_against_given_primes():
    assert delta_of([1, 6, 8, 3, 6], primes=(2, 3)) == delta_of([1, 6, 8, 3, 6])
    # Primes that divide no size are not vertices.
    assert delta_of([1, 3, 3, 7, 7], primes=(2, 3, 7)) == delta_of([1, 3, 3, 7, 7])


def test_delta_of_raises_when_given_primes_miss_a_prime_of_a_size():
    with pytest.raises(InternalInvariantError, match="outside"):
        delta_of([1, 3, 3, 7, 7], primes=(3,))
    # The missed prime may hide beside given ones, or as a higher power.
    with pytest.raises(InternalInvariantError):
        delta_of([1, 6], primes=(3,))
    with pytest.raises(InternalInvariantError):
        delta_of([1, 12, 3], primes=(3,))


def test_delta_of_rejects_empty_and_warns_without_identity():
    with pytest.raises(ValueError):
        delta_of([])
    with pytest.warns(UserWarning, match="identity"):
        delta_of([3, 3, 7])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 10**6), min_size=1, max_size=8),
    st.lists(st.integers(1, 10**6), min_size=1, max_size=8),
)
def test_delta_of_monotone_under_union(s1, s2):
    g1 = delta_of(Counter(s1) + Counter({1: 1}))
    g12 = delta_of(Counter(s1) + Counter(s2) + Counter({1: 1}))
    assert set(g1.vertices) <= set(g12.vertices)
    assert g1.edges <= g12.edges


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(1, 10**4), min_size=1, max_size=6),
    st.lists(st.integers(1, 10**4), min_size=1, max_size=6),
)
def test_delta_of_product_contains_join(s1, s2):
    c1 = Counter(s1) + Counter({1: 1})
    c2 = Counter(s2) + Counter({1: 1})
    g1, g2 = delta_of(c1), delta_of(c2)
    gp = delta_of(convolve_spectra(c1, c2))
    for p in g1.vertices:
        for q in g2.vertices:
            if p != q:
                assert gp.has_edge(p, q)


# -- queries ------------------------------------------------------------------


def test_components():
    assert delta_of([1, 3, 3, 7, 7]).components() == [frozenset({3}), frozenset({7})]
    assert SQUARE.components() == [frozenset({3, 5, 7, 11})]
    assert delta_of([1, 6]).components() == [frozenset({2, 3})]


def test_is_connected_conventions():
    assert delta_of([1]).is_connected()  # empty graph
    assert SQUARE.is_connected()
    assert not delta_of([1, 3, 3, 7, 7]).is_connected()


def test_complete_vertices():
    # A complete vertex is isolated in the complement, so colored L.
    k3 = PrimeGraph((2, 3, 5), frozenset({(2, 3), (2, 5), (3, 5)}))
    assert complete_vertices(k3) == frozenset({2, 3, 5})
    assert k3.complement_coloring == (0b111, 0)
    assert complete_vertices(SQUARE) == frozenset()
    assert SQUARE.complement_coloring == (0b0011, 0b1100)  # 3, 5 | 7, 11
    star = PrimeGraph((2, 3, 5), frozenset({(2, 3), (2, 5)}))
    assert complete_vertices(star) == frozenset({2})
    assert star.complement_coloring == (0b011, 0b100)
    for g in (k3, SQUARE, star):
        full = (1 << len(g.vertices)) - 1
        read = {g.vertices[i] for i, a in enumerate(g.adjacency) if a | 1 << i == full}
        assert read == complete_vertices(g)


def test_complement_coloring_is_none_exactly_on_an_odd_complement_cycle():
    assert delta_of([1]).complement_coloring == (0, 0)
    assert PrimeGraph((2, 3, 5), frozenset()).complement_coloring is None  # triangle
    c5 = PrimeGraph((2, 3, 5, 7, 11), frozenset({(2, 3), (3, 5), (5, 7), (7, 11), (2, 11)}))
    assert c5.complement_coloring is None  # the 5-cycle is its own complement
    path = PrimeGraph((2, 3, 5, 7), frozenset({(2, 3), (3, 5), (5, 7)}))
    # Complement edges 2-5, 2-7, 3-7: one path 5-2-7-3.
    assert path.complement_coloring == (0b0011, 0b1100)
    for g in (SQUARE, path, delta_of([1, 6, 10, 15])):
        for side in g.complement_coloring:
            assert is_clique(g, {v for i, v in enumerate(g.vertices) if side >> i & 1})


def test_non_neighbors():
    assert non_neighbors(SQUARE, 3) == frozenset({7})
    assert non_neighbors(SQUARE, 5) == frozenset({11})
    for i, v in enumerate(SQUARE.vertices):
        others = frozenset(SQUARE.vertices) - {v}
        neighbours = {u for j, u in enumerate(SQUARE.vertices) if SQUARE.adjacency[i] >> j & 1}
        assert neighbours == others - non_neighbors(SQUARE, v)


# -- DOT export ------------------------------------------------------------------


def test_dot_empty_graph():
    assert delta_of([1]).to_dot() == "graph delta {\n}\n"


def test_dot_single_edge():
    text = delta_of([1, 6]).to_dot()
    assert "2 -- 3;" in text
    assert text.startswith("graph delta {\n")
    assert text.endswith("}\n")


def test_dot_square_line_counts():
    lines = SQUARE.to_dot().splitlines()
    vertex_lines = [l for l in lines if l.endswith(";") and "--" not in l]
    edge_lines = [l for l in lines if "--" in l]
    assert len(vertex_lines) == 4
    assert len(edge_lines) == 4
    assert SQUARE.to_dot() == SQUARE.to_dot()  # byte-stable


def test_json_obj_deterministic():
    assert SQUARE.to_json_obj() == {
        "vertices": [3, 5, 7, 11],
        "edges": [[3, 5], [3, 11], [5, 7], [7, 11]],
    }
