"""Brute-force permutation group engine.

This is the slow, trusted side of every computation in the package: each
group is enumerated once into an indexed right Cayley graph
(:func:`cayley_table`: a breadth-first walk from the identity, capped),
and every query below is a direct scan or orbit walk over its elements.
Conjugacy classes are the orbits of conjugation by the generators, walked
on the graph's integer indices, and element orders are computed once per
class and kept per index.  No stabilizer chains, no cleverness; at the
scale this package targets (orders in the tens of thousands) the simple
thing is fast enough and easy to trust.  :func:`cayley_table` is the one
enumeration loop: subgroups are generated and tested with it too.

Validation happens once, at the boundary: the public ``Permutation(...)``
constructor checks its images, and that covers spec parsing,
:meth:`Permutation.from_cycles`, group generators and user input.  Internal
work (composition, the Cayley graph, subgroups) runs on raw image tuples,
and results known to be permutations, such as products, inverses, class
representatives and enumerated elements, are wrapped by the unchecked
:meth:`Permutation._trusted`.  A product of two permutations of different
degrees raises ``ValueError``.

Every subgroup found inside an enumerated group (:meth:`PermGroup.center`,
:meth:`PermGroup.derived_subgroup` and :meth:`PermGroup.pi_subgroup`) is a
view of its parent: a :class:`PermGroup` on the same points that keeps the
Cayley graph of its own generators, built while it was generated and
tested, as its elements.  It is never re-indexed to fewer points and never
re-enumerated.

Generators moving disjoint points commute, so a group whose generators
split into such sets (:attr:`PermGroup.factors`) is the direct product of
their groups.  :func:`~classgraph.construction.evaluate` makes a split
``perm`` spec that ``DirectProduct``, so the cap bounds each factor's
enumeration; a :class:`PermGroup` itself always answers from its walk.

Composition convention: ``(p * q)(i) == p(q(i))`` (apply q first).
Iteration order is deterministic everywhere: elements are reported sorted
lexicographically by image sequence, and classes in order of their least
elements.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from operator import itemgetter

from .errors import CapExceeded
from .graph import PrimeGraph, delta_of, mask_components
from .primes import prime_factors

DEFAULT_ENUMERATION_CAP = 10**6

Images = tuple[int, ...]


def _compose(a: Images, b: Images) -> Images:
    """``a * b`` on image tuples of one degree: ``i -> a[b[i]]``."""
    if len(b) > 1:
        return itemgetter(*b)(a)
    # itemgetter returns a bare item for one index, and needs at least one.
    return tuple(a[i] for i in b)


def _invert(a: Images) -> Images:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


@dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of {0, ..., degree-1}, stored as its image sequence."""

    images: Images

    def __post_init__(self) -> None:
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        seen = [False] * len(images)
        for i in images:
            if not isinstance(i, int) or not 0 <= i < len(images) or seen[i]:
                raise ValueError(f"not a permutation: {images!r}")
            seen[i] = True

    @classmethod
    def _trusted(cls, images: Images) -> "Permutation":
        """Wrap an image tuple already known to be a permutation, unchecked."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))

    @staticmethod
    def from_cycles(degree: int, cycles: list[list[int]]) -> "Permutation":
        """Build from disjoint cycles; points not mentioned are fixed."""
        images = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return Permutation(tuple(images))

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise ValueError(
                f"cannot multiply permutations of degrees {self.degree} and {other.degree}"
            )
        return Permutation._trusted(_compose(self.images, other.images))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def inverse(self) -> "Permutation":
        return Permutation._trusted(_invert(self.images))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def order(self) -> int:
        return _order_of_images(self.images)


@dataclass(frozen=True)
class ConjugacyClass:
    representative: Permutation
    size: int


def _order_of_images(images: Images) -> int:
    seen = [False] * len(images)
    order = 1
    for start in range(len(images)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        order = math.lcm(order, length)
    return order


def cayley_table(generators: Sequence[Images], cap: int) -> tuple[dict[Images, int], list[array]]:
    """The right Cayley graph of the group the generators make, walked breadth first.

    Returns ``index``, which maps each element to its position in the walk
    from the identity, and one table per generator ``g_j`` with
    ``right[j][i] == index[x_i * g_j]`` for the element ``x_i`` at position
    i.  Raises ``CapExceeded`` as soon as the group has more than `cap`
    elements.
    """
    degree = len(generators[0])
    ident = tuple(range(degree))
    # x * g reads x at the points of g.  itemgetter returns a bare item for
    # one point, but on one point the group is the identity alone.
    steps = [itemgetter(*g) if degree > 1 else tuple for g in generators]
    right = [array("l") for _ in generators]
    index = {ident: 0}
    add = index.setdefault
    elems = [ident]
    n = 1
    for x in elems:  # grows while it is walked
        for step, table in zip(steps, right):
            y = step(x)
            k = add(y, n)
            if k == n:
                if n == cap:
                    raise CapExceeded(
                        f"group closure exceeded cap {cap} "
                        f"(degree {degree}, {len(generators)} generators)"
                    )
                elems.append(y)
                n += 1
            table.append(k)
    return index, right


def _conjugation_tables(
    index: dict[Images, int], right: list[array], generators: Sequence[Images]
) -> list[array]:
    """For each generator g, the index map of ``x -> g**-1 * x * g``.

    Conjugating by g**-1 instead of g gives the same orbits and inverts no
    table.  The map is ``i -> left[right_g[i]]``, where ``right_g`` is g's
    table and ``left[i] == index[g**-1 * x_i]``.  The walk first reached
    each ``x_k = x_i * g_j`` from an earlier ``x_i``, so ``g**-1 * x_k``
    sits at ``right[j][left[i]]``: replaying the walk in order fills every
    left table without composing a permutation.
    """
    n = len(index)
    lefts = []
    for g in generators:
        left = array("l", [0]) * n
        left[0] = index[_invert(g)]
        lefts.append(left)
    fresh = 1  # the next position the walk reached, i.e. the first not filled yet
    for i in range(n):
        for table in right:
            k = table[i]
            if k == fresh:
                for left in lefts:
                    left[k] = table[left[i]]
                fresh += 1
    return [array("l", map(left.__getitem__, table)) for left, table in zip(lefts, right)]


class PermGroup:
    """A finite group given by permutation generators; queries enumerate it.

    Shares ``order``, ``primes``, ``class_size_spectrum()``, ``delta()``,
    ``pi_subgroup()`` and ``to_permutation()`` with the structured groups of
    :mod:`classgraph.construction`, and answers each from its own walk,
    split (:attr:`factors`) or not.
    """

    frobenius = False
    """Always False: a permutation group has no construction from which to read a
    fixed-point-free action, so its spectrum always comes from its classes."""

    def __init__(
        self,
        generators: list[Permutation] | tuple[Permutation, ...],
        *,
        cap: int = DEFAULT_ENUMERATION_CAP,
    ) -> None:
        gens = tuple(generators)
        if not gens:
            raise ValueError("a permutation group needs at least one generator")
        degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("generators must share a degree")
        if cap < 1:
            raise ValueError(f"cap must be >= 1, got {cap}")
        self.generators = gens
        self.degree = degree
        self.cap = cap

    def __repr__(self) -> str:
        return f"PermGroup(degree {self.degree}, {len(self.generators)} generators)"

    # -- enumeration ---------------------------------------------------
    # Each cache below is a cached_property; a subgroup view seeds ``_table``,
    # and ``factors`` seeds each group it builds with ``factors = ()``.

    @cached_property
    def _table(self) -> tuple[dict[Images, int], list[array]]:
        """The right Cayley graph of the generators: :func:`cayley_table`, capped."""
        return cayley_table([g.images for g in self.generators], self.cap)

    @cached_property
    def _elements(self) -> tuple[Permutation, ...]:
        return tuple(Permutation._trusted(x) for x in sorted(self._table[0]))

    def elements(self) -> tuple[Permutation, ...]:
        """All elements, sorted lexicographically by image sequence."""
        return self._elements

    @cached_property
    def factors(self) -> tuple[PermGroup, ...]:
        """Direct factors for ``evaluate``: generator classes linked by moved points; () for one."""
        moved = [{i for i, j in enumerate(g.images) if i != j} for g in self.generators]
        links = [sum(1 << k for k, b in enumerate(moved) if not a.isdisjoint(b)) for a in moved]
        parts = mask_components(links, sum(1 << k for k, a in enumerate(moved) if a))
        if len(parts) < 2:
            return ()
        factors = tuple(
            PermGroup([g for k, g in enumerate(self.generators) if part >> k & 1], cap=self.cap)
            for part in parts
        )
        for factor in factors:
            factor.__dict__["factors"] = ()  # one component of the links, so it splits no further
        return factors

    @property
    def order(self) -> int:
        """The number of elements, walked."""
        return len(self._table[0])

    @cached_property
    def primes(self) -> tuple[int, ...]:
        """The primes of the group order, ascending: one factorisation, kept."""
        return prime_factors(self.order)

    @cached_property
    def _orders(self) -> array:
        """The order of each element, by its index in the Cayley graph.

        Conjugates have one order, so it is computed once per class.
        """
        classes, labels = self._partition
        by_class = [_order_of_images(c.representative.images) for c in classes]
        return array("l", map(by_class.__getitem__, labels))

    def to_permutation(self, *, verify_order: bool = True) -> "PermGroup":
        """The group itself, which is its own enumeration with its own cap.

        Takes ``verify_order`` like ``MetabelianGroup.to_permutation`` and ignores it.
        """
        return self

    def __contains__(self, p: Permutation) -> bool:
        return p.degree == self.degree and p.images in self._table[0]

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    # -- conjugacy -----------------------------------------------------

    def conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        """The classes, each represented by its least element, in order of those."""
        return self._partition[0]

    @cached_property
    def _partition(self) -> tuple[tuple[ConjugacyClass, ...], array]:
        """The classes, and the class number of each element by its index in the Cayley graph.

        Classes are the orbits of conjugation by the generators, walked on
        the graph's indices.  Each is represented by its least element, and
        they are numbered in order of those; only the representatives are
        wrapped as permutations.
        """
        index, right = self._table
        elems = list(index)
        conjugations = _conjugation_tables(index, right, [g.images for g in self.generators])
        label = array("l", [-1]) * len(elems)
        orbits: list[list[int]] = []
        for start in range(len(elems)):
            if label[start] < 0:
                c = len(orbits)
                label[start] = c
                orbit = [start]
                for i in orbit:  # grows while it is walked
                    for conj in conjugations:
                        k = conj[i]
                        if label[k] < 0:
                            label[k] = c
                            orbit.append(k)
                orbits.append(orbit)
        if sum(map(len, orbits)) != len(elems):  # pragma: no cover - internal sanity
            raise AssertionError("conjugacy classes do not partition the group")
        reps = [min(map(elems.__getitem__, orbit)) for orbit in orbits]
        by_rep = sorted(range(len(orbits)), key=reps.__getitem__)
        number = {c: n for n, c in enumerate(by_rep)}
        classes = tuple(
            ConjugacyClass(Permutation._trusted(reps[c]), len(orbits[c])) for c in by_rep
        )
        return classes, array("l", map(number.__getitem__, label))

    def class_size_spectrum(self) -> Counter[int]:
        """Multiset of class sizes, as {size: multiplicity}."""
        return Counter(c.size for c in self.conjugacy_classes())

    def delta(self) -> PrimeGraph:
        """Δ of the class sizes, read against the group's primes."""
        return delta_of(self.class_size_spectrum(), primes=self.primes)

    # -- subgroup queries ------------------------------------------------

    @cached_property
    def is_abelian(self) -> bool:
        """True iff the generators commute pairwise."""
        gens = [g.images for g in self.generators]
        return all(
            _compose(a, b) == _compose(b, a) for i, a in enumerate(gens) for b in gens[i + 1 :]
        )

    def meets_centralizer_trivially(self, x: Permutation) -> bool:
        """True iff the identity is the only element of this group commuting with x.

        x need not lie in this group, only act on the same points.
        """
        xi = x.images
        # Position 0 of the walk is the identity.
        return not any(_compose(y, xi) == _compose(xi, y) for y in islice(self._table[0], 1, None))

    def center(self) -> PermGroup:
        """Z(G): the union of the size-1 conjugacy classes, as a view."""
        central = {c.representative.images for c in self.conjugacy_classes() if c.size == 1}
        return self._subgroup(central)  # a subgroup, so never None

    def derived_subgroup(self) -> PermGroup:
        """G': the normal closure of the generator commutators, as a view.

        The group's classes come first, so its cap applies.  A subgroup is
        normal when it is a union of classes: while the generated group
        holds only part of some class, the first element of each such class
        outside it, in walk order, joins the generators.
        """
        classes, label = self._partition
        index = self._table[0]
        pairs = [(g.images, _invert(g.images)) for g in self.generators]
        ident = tuple(range(self.degree))
        commutators = {
            _compose(_compose(ainv, binv), _compose(a, b)) for a, ainv in pairs for b, binv in pairs
        }
        gens = sorted(commutators - {ident}) or [ident]
        while True:
            table = cayley_table(gens, len(index))
            sub = table[0]
            met = Counter(map(label.__getitem__, map(index.__getitem__, sub)))
            partial = {c for c, k in met.items() if k < classes[c].size}
            if not partial:
                return self._view(gens, table)
            for x, c in zip(index, label):
                if c in partial and x not in sub:
                    gens.append(x)
                    partial.discard(c)

    def pi_subgroup(self, pi: set[int] | frozenset[int]) -> PermGroup | None:
        """The elements whose order has all its prime divisors in pi, as a subgroup.

        None when those elements do not form a subgroup; the group itself
        when pi covers every prime of its order, and the trivial subgroup,
        with no element order computed, when pi meets none.  Otherwise a
        view on the elements of allowed order, read off the walk.
        """
        outside = [p for p in self.primes if p not in pi]
        if not outside:
            return self
        if pi.isdisjoint(self.primes):
            return self._subgroup({tuple(range(self.degree))})
        orders = self._orders
        # Element orders divide the group order, so their primes are among self.primes.
        allowed = {o for o in set(orders) if all(o % p for p in outside)}
        return self._subgroup({x for x, o in zip(self._table[0], orders) if o in allowed})

    def _subgroup(self, images: set[Images]) -> PermGroup | None:
        """The subgroup on `images`, or None when they do not form one.

        Each least element not yet generated joins the generators, and the
        group they generate is enumerated with the size of `images` as its
        cap.  It ends up holding every element of `images`, so it overruns
        the cap unless `images` is a subgroup.
        """
        ident = tuple(range(self.degree))
        if ident not in images or not images <= self._table[0].keys():
            return None
        gens: list[Images] = []
        table = cayley_table([ident], 1)
        for x in sorted(images):
            if x not in table[0]:
                gens.append(x)
                try:
                    table = cayley_table(gens, len(images))
                except CapExceeded:
                    return None
        return self._view(gens or [ident], table)

    def _view(self, gens: list[Images], table: tuple[dict[Images, int], list[array]]) -> PermGroup:
        """The subgroup `gens` generate, with their Cayley graph `table` as its elements.

        It reads its element orders off this group's when this group has them.
        """
        sub = PermGroup([Permutation._trusted(g) for g in gens], cap=self.cap)
        cache = sub.__dict__
        cache["_table"] = table
        if "_orders" in self.__dict__:
            index, orders = self._table[0], self._orders
            cache["_orders"] = array("l", map(orders.__getitem__, map(index.__getitem__, table[0])))
        return sub

    # -- constructions -----------------------------------------------------

    def direct_product(self, other: "PermGroup") -> "PermGroup":
        """Action on the disjoint union of the two point sets."""
        d1, d2 = self.degree, other.degree
        gens = [
            Permutation(g.images + tuple(range(d1, d1 + d2))) for g in self.generators
        ] + [
            Permutation(tuple(range(d1)) + tuple(i + d1 for i in g.images))
            for g in other.generators
        ]
        return PermGroup(gens, cap=max(self.cap, other.cap))


def trivial_group(degree: int = 1) -> PermGroup:
    return PermGroup([Permutation.identity(degree)])


def symmetric_group(degree: int) -> PermGroup:
    """S_n on {0..n-1}; handy for tests and spec files."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree == 1:
        return trivial_group(1)
    cycle = Permutation(tuple(range(1, degree)) + (0,))
    swap = Permutation((1, 0) + tuple(range(2, degree)))
    return PermGroup([cycle, swap])
