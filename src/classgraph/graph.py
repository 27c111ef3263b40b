"""The prime graph on a class-size spectrum.

Vertices are the primes dividing some conjugacy class size; two distinct
primes p, q are joined exactly when pq divides some class size.  Since
class sizes are exact integers, so is everything here, and graphs compare
by strict equality of vertex and edge sets.  Every class size divides the
group order, so a group's sizes are read against its own primes
(``group.primes``): each size is divided by those primes, and a cofactor
other than 1 is an internal error, never a smaller graph.  A bare spectrum
is factored exactly instead (see :mod:`classgraph.primes`).
"""

from __future__ import annotations

import warnings
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import InternalInvariantError, VertexNotInGraph
from .primes import is_prime, prime_factors

Edge = tuple[int, int]


@dataclass(frozen=True)
class PrimeGraph:
    """Simple undirected graph on a set of primes."""

    vertices: tuple[int, ...]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        vertices = tuple(sorted(set(self.vertices)))
        edges = frozenset(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        vset = set(vertices)
        for v in vertices:
            if not is_prime(v):
                raise ValueError(f"vertex {v} is not prime")
        for p, q in edges:
            if p == q:
                raise ValueError(f"loop at {p}")
            if p not in vset or q not in vset:
                raise ValueError(f"edge ({p}, {q}) leaves the vertex set")

    def has_edge(self, p: int, q: int) -> bool:
        return (min(p, q), max(p, q)) in self.edges

    def neighbors(self, v: int) -> frozenset[int]:
        if v not in self.vertices:
            raise VertexNotInGraph(f"{v} is not a vertex")
        return frozenset(
            q if p == v else p for p, q in self.edges if v in (p, q)
        )

    def non_neighbors(self, v: int) -> frozenset[int]:
        """Vertices other than v that are not adjacent to v."""
        nbrs = self.neighbors(v)
        return frozenset(u for u in self.vertices if u != v and u not in nbrs)

    def components(self) -> list[frozenset[int]]:
        """Connected components, ordered by least vertex; empty graph gives []."""
        remaining = set(self.vertices)
        out = []
        while remaining:
            start = min(remaining)
            comp = {start}
            frontier = [start]
            while frontier:
                v = frontier.pop()
                for u in self.neighbors(v):
                    if u not in comp:
                        comp.add(u)
                        frontier.append(u)
            remaining -= comp
            out.append(frozenset(comp))
        return out

    def is_connected(self) -> bool:
        """True for the empty and one-component graphs."""
        return len(self.components()) <= 1

    def is_clique(self, subset: Iterable[int]) -> bool:
        """True iff all pairs in subset are adjacent (singletons trivially)."""
        items = sorted(set(subset))
        vset = set(self.vertices)
        for v in items:
            if v not in vset:
                raise VertexNotInGraph(f"{v} is not a vertex")
        return all(
            self.has_edge(items[i], items[j])
            for i in range(len(items))
            for j in range(i + 1, len(items))
        )

    def complete_vertices(self) -> frozenset[int]:
        """Vertices adjacent to every other vertex."""
        n = len(self.vertices)
        return frozenset(v for v in self.vertices if len(self.neighbors(v)) == n - 1)

    def to_dot(self) -> str:
        """Deterministic DOT text: vertices ascending, then edges ascending."""
        lines = ["graph delta {"]
        for v in self.vertices:
            lines.append(f"  {v};")
        for p, q in sorted(self.edges):
            lines.append(f"  {p} -- {q};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [list(e) for e in sorted(self.edges)],
        }


def _as_counter(spectrum: Mapping[int, int] | Iterable[int]) -> Counter[int]:
    if isinstance(spectrum, Mapping):
        return Counter(dict(spectrum))
    return Counter(spectrum)


def _primes_dividing(size: int, primes: tuple[int, ...]) -> tuple[int, ...]:
    """The given primes that divide size; they must account for all of it."""
    ps = []
    rest = size
    for p in primes:
        if rest % p == 0:
            ps.append(p)
            while rest % p == 0:
                rest //= p
    if rest != 1:
        raise InternalInvariantError(
            f"class size {size} leaves the cofactor {rest} outside the group's primes"
        )
    return tuple(ps)


def delta_of(
    spectrum: Mapping[int, int] | Iterable[int], primes: tuple[int, ...] | None = None
) -> PrimeGraph:
    """Prime graph of a class-size multiset.

    Accepts either a {size: multiplicity} mapping or a plain iterable of
    sizes.  The identity class contributes size 1; its absence usually
    means the spectrum is not from a group, so it only warns.

    Without ``primes`` each size is factored from scratch.  With
    ``primes``, the primes of the group order (``group.primes``), each
    size is divided by them instead and no size is factored; a size with
    a prime factor outside them raises InternalInvariantError.
    """
    counts = _as_counter(spectrum)
    if not counts:
        raise ValueError("empty spectrum")
    if any(s < 1 for s in counts) or any(c < 1 for c in counts.values()):
        raise ValueError("class sizes and multiplicities must be positive")
    if counts[1] == 0:
        warnings.warn("spectrum has no identity class (no size-1 entry)", stacklevel=2)
    vertices: set[int] = set()
    edges: set[Edge] = set()
    for size in counts:
        if size == 1:
            continue
        ps = prime_factors(size) if primes is None else _primes_dividing(size, primes)
        vertices.update(ps)
        # p != q both dividing size means pq divides size.
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                edges.add((ps[i], ps[j]))
    return PrimeGraph(tuple(sorted(vertices)), frozenset(edges))
