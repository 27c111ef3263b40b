"""Workload ``detector``: ``find_block_partitions`` alone on random prime graphs.

The graphs are G(n, m) random graphs with 7 to 10 vertices and edge
densities from sparse to dense, ``CELLS`` giving how many of each per round.
Their edge sets and order come from the fixed ``FAMILY_SEED``; the run's
seed picks the primes that label the vertices.  Sparse graphs defeat
the detector's pruning and their cost varies several-fold from graph to
graph, so fresh edge sets per seed would move the round's totals by 10-16%
between seeds (README.md); relabelling keeps the structure and still changes
the vertex order the search takes.
"""

from __future__ import annotations

import random
from itertools import combinations

from classgraph import PrimeGraph, find_block_partitions

import independent
from layers import Trace, detect

FAMILY_SEED = 20210401

# (vertices, edge density): graphs per round.
CELLS = {
    **{(n, d): 16 for n in (7, 8) for d in (0.2, 0.35, 0.5, 0.65, 0.8)},
    **{(9, d): 12 for d in (0.2, 0.35, 0.5, 0.65, 0.8)},
    (10, 0.2): 4,
    (10, 0.35): 8,
    (10, 0.5): 12,
    (10, 0.65): 12,
    (10, 0.8): 12,
}

LABELS = tuple(p for p in range(2, 114) if all(p % d for d in range(2, p)))  # 30 primes


def _family() -> list[tuple[int, list[tuple[int, int]]]]:
    """(n, edges on 0..n-1) for every graph of a round, in a fixed order."""
    rng = random.Random(FAMILY_SEED)
    out = []
    for (n, density), copies in CELLS.items():
        pairs = list(combinations(range(n), 2))
        for _ in range(copies):
            out.append((n, rng.sample(pairs, round(density * len(pairs)))))
    return out


def _graph(n: int, edges, labels) -> PrimeGraph:
    return PrimeGraph(tuple(labels), frozenset((labels[i], labels[j]) for i, j in edges))


def items(rng) -> list[PrimeGraph]:
    return [_graph(n, edges, rng.sample(LABELS, n)) for n, edges in _family()]


def warmup_item() -> PrimeGraph:
    """A sparse 9-vertex graph on the first primes."""
    n, edges = next((n, e) for n, e in _family() if n == 9)
    return _graph(n, edges, LABELS[:n])


def run(graph: PrimeGraph):
    return find_block_partitions(graph)


def traced(graph: PrimeGraph, trace: Trace, output) -> bool:
    return list(detect(graph, trace)) == list(output)


def check(graph: PrimeGraph, output) -> list[str]:
    """Problems with one answer, against enumeration of all 4-block partitions."""
    return independent.check_partitions(
        list(graph.vertices),
        [list(e) for e in sorted(graph.edges)],
        [p.to_json_obj() for p in output],
    )
