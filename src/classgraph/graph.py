"""The prime graph on a class-size spectrum.

Vertices are the primes dividing some conjugacy class size; two distinct
primes p, q are joined exactly when pq divides some class size.  Since
class sizes are exact integers, so is everything here, and graphs compare
by strict equality of vertex and edge sets.  Every class size divides the
group order, so a group's sizes are read against its own primes
(``group.primes``): each size is divided by those primes, and a cofactor
other than 1 is an internal error, never a smaller graph.  A bare spectrum
is factored exactly instead (see :mod:`classgraph.primes`).
A direct product of either kind joins its factors' Δ (:func:`product_delta`);
every other group, the builder's self-check and tests use :func:`delta_of`.
"""

from __future__ import annotations

import warnings
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import InternalInvariantError
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

    @classmethod
    def _trusted(cls, vertices: tuple[int, ...], edges: frozenset[Edge]) -> "PrimeGraph":
        """Wrap ascending primes and ascending pairs of them, unchecked: ``delta()``'s graphs."""
        g = object.__new__(cls)
        object.__setattr__(g, "vertices", vertices)
        object.__setattr__(g, "edges", edges)
        return g

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """One neighbour bitmask per vertex; bit i stands for ``vertices[i]``."""
        index_of = {v: i for i, v in enumerate(self.vertices)}
        adj = [0] * len(self.vertices)
        for p, q in self.edges:
            adj[index_of[p]] |= 1 << index_of[q]
            adj[index_of[q]] |= 1 << index_of[p]
        return tuple(adj)

    @cached_property
    def complement_coloring(self) -> tuple[int, int] | None:
        """A 2-coloring (L, R) of the complement, as vertex bitmasks.

        Each component's least vertex is in L.  L and R are cliques of this
        graph.  None when the complement is not bipartite, which a class-size
        graph's always is (Dolfi, Pacifici, Sanus, Sotomayor, J. Algebra 2020).
        """
        n = len(self.vertices)
        full = (1 << n) - 1
        non_adj = [full & ~(a | 1 << i) for i, a in enumerate(self.adjacency)]
        # The complement's bipartite double cover: i reaches n + j and n + i reaches j.
        # A component holds i and n + i exactly when the component of i has an odd cycle.
        left = right = 0
        for comp in mask_components([m << n for m in non_adj] + non_adj, (1 << 2 * n) - 1):
            low, high = comp & full, comp >> n
            if low & high:
                return None
            if not (low | high) & (left | right):  # else its mirror image came first
                left |= low
                right |= high
        return left, right

    def has_edge(self, p: int, q: int) -> bool:
        return (min(p, q), max(p, q)) in self.edges

    def components(self) -> list[frozenset[int]]:
        """Connected components, ordered by least vertex; empty graph gives []."""
        full = (1 << len(self.vertices)) - 1
        return [
            frozenset(v for i, v in enumerate(self.vertices) if c >> i & 1)
            for c in mask_components(self.adjacency, full)
        ]

    def is_connected(self) -> bool:
        """True for the empty and one-component graphs."""
        return len(mask_components(self.adjacency, (1 << len(self.vertices)) - 1)) <= 1

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


def mask_components(adj: Sequence[int], vertices: int) -> list[int]:
    """Components, by least vertex, of the bitmask graph on ``vertices`` with neighbours adj."""
    out = []
    while vertices:
        comp = frontier = vertices & -vertices
        while frontier:
            new = adj[(frontier & -frontier).bit_length() - 1] & ~comp
            comp |= new
            frontier = (frontier & frontier - 1) | new
        vertices &= ~comp
        out.append(comp)
    return out


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


def convolve_spectra(a: Counter[int], b: Counter[int]) -> Counter[int]:
    """Spectrum of a direct product: pairwise products with multiplicity."""
    out: dict[int, int] = {}  # a plain dict: Counter.__missing__ would run for each new size
    for s1, c1 in a.items():
        for s2, c2 in b.items():
            size = s1 * s2
            out[size] = out.get(size, 0) + c1 * c2
    return Counter(out)


def product_spectrum(factors: Iterable, order: int) -> Counter[int]:
    """Spectrum of the direct product of `factors`, of order `order`: theirs convolved."""
    out = Counter({1: 1})
    for part in factors:
        out = convolve_spectra(out, part.class_size_spectrum())
    if sum(size * count for size, count in out.items()) != order:  # pragma: no cover - sanity
        raise AssertionError("product spectrum does not sum to group order")
    return out


def product_delta(factors: Iterable) -> PrimeGraph:
    """Δ of the direct product of `factors`: theirs joined, and p -- q for p != q of two factors'
    vertices, as pq divides a class size ab when p and q both divide a, both b, or one each."""
    vertices: set[int] = set()
    edges: set[Edge] = set()
    for part in factors:
        graph = part.delta()
        edges.update(graph.edges)
        edges.update((min(p, q), max(p, q)) for p in vertices for q in graph.vertices if p != q)
        vertices.update(graph.vertices)
    return PrimeGraph._trusted(tuple(sorted(vertices)), frozenset(edges))


def delta_of(
    spectrum: Mapping[int, int] | Iterable[int], primes: tuple[int, ...] | None = None
) -> PrimeGraph:
    """Prime graph of a class-size multiset.

    Accepts either a {size: multiplicity} mapping or a plain iterable of
    sizes.  The identity class contributes size 1; its absence usually
    means the spectrum is not from a group, so it only warns.

    Without ``primes`` each size is factored from scratch.  With
    ``primes``, the ascending primes of the group order (``group.primes``),
    each size is divided by them instead and no size is factored; a size
    with a prime factor outside them raises InternalInvariantError.
    """
    counts = _as_counter(spectrum)
    if not counts:
        raise ValueError("empty spectrum")
    if any(s < 1 for s in counts) or any(c < 1 for c in counts.values()):
        raise ValueError("class sizes and multiplicities must be positive")
    if counts[1] == 0:
        warnings.warn("spectrum has no identity class (no size-1 entry)", stacklevel=2)
    # The identity class's size 1 has no primes and adds nothing.
    prime_sets = {
        prime_factors(size) if primes is None else _primes_dividing(size, primes)
        for size in counts
    }
    # p != q both dividing a size means pq divides it.
    edges = frozenset(e for ps in prime_sets for e in combinations(ps, 2))
    vertices = set().union(*prime_sets)
    return PrimeGraph._trusted(tuple(sorted(vertices)), edges)
