"""Brute-force permutation group engine.

This is the slow, trusted side of every computation in the package: groups
are enumerated as explicit element sets (breadth-first closure over the
generators, capped), and every query below is a direct scan or orbit walk
over those elements.  No stabilizer chains, no cleverness; at the scale
this package targets (orders in the tens of thousands) the simple thing is
fast enough and easy to trust.  One closure loop, :func:`closure`, serves
enumeration, conjugacy classes and subgroup generation.

Validation happens once, at the boundary: the public ``Permutation(...)``
constructor checks its images, and that covers spec parsing,
:meth:`Permutation.from_cycles`, group generators and user input.  Internal
work (composition, closure, class orbits, subgroups) runs on raw image
tuples, and results known to be permutations, such as products, inverses
and enumerated elements, are wrapped by the unchecked
:meth:`Permutation._trusted`.  A product of two permutations of different
degrees raises ``ValueError``.

Every subgroup found inside an enumerated group (:meth:`PermGroup.center`,
:meth:`PermGroup.derived_subgroup`, :meth:`PermGroup.centralizer` and
:meth:`PermGroup.pi_subgroup`) is a view of its parent: a :class:`PermGroup`
on the same points that takes the parent's sorted elements, filtered, and
its element orders when the parent has computed them.  It is never
re-indexed to fewer points and never enumerated again.

Composition convention: ``(p * q)(i) == p(q(i))`` (apply q first).
Iteration order is deterministic everywhere: elements are reported sorted
lexicographically by image sequence.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .errors import CapExceeded, ElementNotInGroup
from .primes import prime_factors

DEFAULT_ENUMERATION_CAP = 10**6

Images = tuple[int, ...]


def closure(
    seed: Iterable, generators: Sequence, step: Callable, limit: int | None = None
) -> set | None:
    """Breadth-first closure of `seed` under ``x -> step(x, g)`` for each generator.

    Returns None as soon as the set grows past `limit`.  With
    ``step=_compose`` this is the right-multiplication closure, which is the
    generated subgroup in a finite group (inverses appear as powers); with a
    conjugation step it is a conjugacy class.
    """
    out = set(seed)
    frontier = list(out)
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = step(x, g)
                if y not in out:
                    out.add(y)
                    if limit is not None and len(out) > limit:
                        return None
                    nxt.append(y)
        frontier = nxt
    return out


def _compose(a: Images, b: Images) -> Images:
    """``a * b`` on image tuples of one degree: ``i -> a[b[i]]``."""
    if len(b) > 1:
        return itemgetter(*b)(a)
    # itemgetter returns a bare item for one index, and needs at least one.
    return tuple(a[i] for i in b)


def _conjugate(x: Images, pair: tuple[Images, Images]) -> Images:
    """``g * x * g**-1`` for ``pair == (g, g**-1)``."""
    g, ginv = pair
    return _compose(g, _compose(x, ginv))


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


def _generating_subset(elements: list[Images], limit: int | None = None) -> list[Images] | None:
    """A small generating set for the group generated by `elements`.

    Returns None as soon as that group grows past `limit` elements.
    """
    degree = len(elements[0]) if elements else 1
    ident = tuple(range(degree))
    gens: list[Images] = []
    have: set[Images] | None = {ident}
    for x in sorted(elements):
        if x in have:
            continue
        gens.append(x)
        have = closure(have, gens, _compose, limit)
        if have is None:
            return None
    return gens


class PermGroup:
    """A finite group given by permutation generators; queries enumerate it.

    Shares ``order``, ``primes``, ``class_size_spectrum()`` and
    ``to_permutation()`` with :class:`~classgraph.construction.MetabelianGroup`,
    so callers need not ask which kind of group they hold.
    """

    def __init__(
        self,
        generators: list[Permutation] | tuple[Permutation, ...],
        *,
        name: str = "",
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
        self.name = name
        self.cap = cap
        self._elements: tuple[Permutation, ...] | None = None
        self._element_set: frozenset[Images] | None = None
        self._orders: tuple[int, ...] | None = None
        self._classes: tuple[ConjugacyClass, ...] | None = None

    def __repr__(self) -> str:
        label = self.name or f"degree {self.degree}"
        return f"PermGroup({label}, {len(self.generators)} generators)"

    # -- enumeration ---------------------------------------------------

    def elements(self) -> tuple[Permutation, ...]:
        """All elements, sorted lexicographically by image sequence."""
        if self._elements is None:
            ident = tuple(range(self.degree))
            gens = [g.images for g in self.generators]
            closed = closure({ident}, gens, _compose, limit=self.cap)
            if closed is None:
                raise CapExceeded(
                    f"group closure exceeded cap {self.cap} "
                    f"(degree {self.degree}, {len(gens)} generators)"
                )
            self._elements = tuple(Permutation._trusted(x) for x in sorted(closed))
            self._element_set = frozenset(closed)
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements())

    @cached_property
    def primes(self) -> tuple[int, ...]:
        """The primes of the group order, ascending: one factorisation, kept."""
        return prime_factors(self.order)

    def _element_orders(self) -> tuple[int, ...]:
        """The order of each element, in the order of :meth:`elements`; computed once."""
        if self._orders is None:
            self._orders = tuple(_order_of_images(p.images) for p in self.elements())
        return self._orders

    def to_permutation(self, *, verify_order: bool | None = None) -> "PermGroup":
        """The group itself, which is its own enumeration with its own cap.

        Takes ``verify_order`` like ``MetabelianGroup.to_permutation`` and ignores it.
        """
        return self

    def _images_set(self) -> frozenset[Images]:
        self.elements()
        assert self._element_set is not None
        return self._element_set

    def __contains__(self, p: Permutation) -> bool:
        return p.degree == self.degree and p.images in self._images_set()

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    # -- conjugacy -----------------------------------------------------

    def conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        """Classes via conjugation-orbit closure under the generators."""
        if self._classes is not None:
            return self._classes
        elems = self.elements()
        gen_pairs = [(g.images, _invert(g.images)) for g in self.generators]
        classes = []
        seen: set[Images] = set()
        for rep in elems:
            x = rep.images
            if x in seen:
                continue
            orbit = closure({x}, gen_pairs, _conjugate)
            assert orbit is not None
            classes.append(ConjugacyClass(rep, len(orbit)))
            seen |= orbit
        total = sum(c.size for c in classes)
        if total != len(elems):  # pragma: no cover - internal sanity
            raise AssertionError("conjugacy classes do not partition the group")
        self._classes = tuple(classes)
        return self._classes

    def class_size_spectrum(self) -> Counter[int]:
        """Multiset of conjugacy class sizes, as {size: multiplicity}."""
        return Counter(c.size for c in self.conjugacy_classes())

    # -- subgroup queries ------------------------------------------------

    def is_abelian(self) -> bool:
        """True iff the generators commute pairwise."""
        gens = [g.images for g in self.generators]
        return all(
            _compose(a, b) == _compose(b, a) for i, a in enumerate(gens) for b in gens[i + 1 :]
        )

    def center(self) -> PermGroup:
        """Z(G): the union of the size-1 conjugacy classes, as a view."""
        central = {c.representative.images for c in self.conjugacy_classes() if c.size == 1}
        return self._view(central)

    def centralizer(self, g: Permutation) -> PermGroup:
        """C_G(g): one scan of the elements, as a view."""
        if g not in self:
            raise ElementNotInGroup(f"{g!r} is not in {self!r}")
        x = g.images
        return self._view({y for y in self._images_set() if _compose(y, x) == _compose(x, y)})

    def derived_subgroup(self) -> PermGroup:
        """G': the normal closure of the generator commutators, as a view.

        The group is enumerated first, so its cap applies.  The closure is
        normal once every conjugate of its own generators by the group's
        generators lies in it; each conjugate that does not is added as a
        generator.
        """
        self.elements()
        pairs = [(g.images, _invert(g.images)) for g in self.generators]
        ident = tuple(range(self.degree))
        commutators = {
            _compose(_compose(ainv, binv), _compose(a, b)) for a, ainv in pairs for b, binv in pairs
        }
        normal_gens = sorted(commutators - {ident})
        current = closure({ident}, normal_gens, _compose)
        assert current is not None
        for x in normal_gens:  # grows while it is walked
            for pair in pairs:
                y = _conjugate(x, pair)
                if y not in current:
                    normal_gens.append(y)
                    current = closure(current, normal_gens, _compose)
                    assert current is not None
        return self._view(current, normal_gens)

    def pi_subgroup(self, pi: set[int] | frozenset[int]) -> PermGroup | None:
        """The elements whose order has all its prime divisors in pi, as a subgroup.

        None when those elements do not form a subgroup; the group itself
        when pi covers every prime of its order.
        """
        outside = [p for p in self.primes if p not in pi]
        if not outside:
            return self
        orders = self._element_orders()
        # Element orders divide the group order, so their primes are among self.primes.
        allowed = {o for o in set(orders) if all(o % p for p in outside)}
        return self._subgroup({p.images for p, o in zip(self.elements(), orders) if o in allowed})

    def _subgroup(self, images: set[Images]) -> PermGroup | None:
        """The subgroup on `images`, or None when they do not form one.

        One closure tests the set and finds the subgroup's generators.
        """
        if tuple(range(self.degree)) not in images or not images <= self._images_set():
            return None
        gens = _generating_subset(sorted(images), limit=len(images))
        if gens is None:
            return None
        # The generated group contains `images` and is no larger, so it is `images`.
        return self._view(images, gens)

    def _view(self, images: set[Images], gens: list[Images] | None = None) -> PermGroup:
        """The subgroup on `images`, known to be one, generated by `gens`.

        The subgroup takes this group's sorted elements, filtered, and its
        element orders only when this group has already computed them.
        Without `gens`, one closure finds a generating set.
        """
        if gens is None:
            gens = _generating_subset(sorted(images))
            assert gens is not None
        sub = PermGroup([Permutation._trusted(g) for g in gens] or [self.identity()], cap=self.cap)
        kept = [i for i, p in enumerate(self.elements()) if p.images in images]
        sub._elements = tuple(self.elements()[i] for i in kept)
        if self._orders is not None:
            sub._orders = tuple(self._orders[i] for i in kept)
        sub._element_set = frozenset(images)
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
        name = f"{self.name}x{other.name}" if self.name and other.name else ""
        return PermGroup(gens, name=name, cap=max(self.cap, other.cap))


def trivial_group(degree: int = 1) -> PermGroup:
    return PermGroup([Permutation.identity(degree)], name="1")


def symmetric_group(degree: int) -> PermGroup:
    """S_n on {0..n-1}; handy for tests and spec files."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree == 1:
        return trivial_group(1)
    cycle = Permutation(tuple(range(1, degree)) + (0,))
    swap = Permutation((1, 0) + tuple(range(2, degree)))
    return PermGroup([cycle, swap], name=f"S{degree}")
