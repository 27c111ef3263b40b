"""Structured group constructions with fast class-size computation.

The groups built here are the ones the block-square theory actually needs:
abelian groups, semidirect products of two abelian groups where the top
acts by componentwise multipliers (metabelian), Frobenius groups with
squarefree cyclic kernel and cyclic complement, and direct products of
those.  Each carries enough structure to compute its conjugacy class-size
spectrum without enumerating elements whenever a fast path applies; the
permutation engine (``to_permutation``) stays available as the independent
cross-check.  A :class:`MetabelianGroup` offers the same ``order``,
``primes``, ``class_size_spectrum()`` and ``to_permutation()`` as a
:class:`~classgraph.perm.PermGroup`.

A :class:`MetabelianGroup` is three tuples: kernel and top cyclic factor
orders and the unit multipliers of the action.  Whether that action is
fixed-point-free (Frobenius) is decided in closed form, without walking
the top: :func:`is_frobenius_action` checks multiplicative orders modulo
the primes of the kernel factors.  A spectrum with no closed form comes
from the cached permutation realization, which carries the group's
enumeration ``cap``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import (
    CapExceeded,
    CoprimalityViolation,
    ExprError,
    FaithfulnessFailure,
    InvalidMultiplier,
)
from .perm import DEFAULT_ENUMERATION_CAP, Permutation, PermGroup
from .primes import is_prime, multiplicative_order, prime_factors


@dataclass(frozen=True)
class MetabelianGroup:
    """Semidirect product kernel x| top, with optional product provenance.

    ``kernel`` and ``top`` are the orders of the cyclic factors, each at
    least 2, and top factor i multiplies kernel factor j by the unit
    ``multipliers[i][j]``.  ``factors`` records the coprime direct-product
    parts a folded product was assembled from (enables the convolution
    spectrum).  ``cap`` bounds the enumeration of the permutation
    realization, as ``PermGroup.cap`` does, and takes no part in equality.
    """

    kernel: tuple[int, ...]
    top: tuple[int, ...]
    multipliers: tuple[tuple[int, ...], ...]
    factors: tuple["MetabelianGroup", ...] | None = None
    cap: int = field(default=DEFAULT_ENUMERATION_CAP, compare=False)

    def __post_init__(self) -> None:
        if any(n < 2 for n in self.kernel + self.top):
            raise ExprError(f"cyclic factor orders must be >= 2, got {self.kernel + self.top}")
        rows = self.multipliers
        if len(rows) != len(self.top) or any(len(row) != len(self.kernel) for row in rows):
            raise ExprError("multiplier matrix must be top-factors x kernel-factors")

    @property
    def order(self) -> int:
        return math.prod(self.kernel + self.top)

    @cached_property
    def primes(self) -> tuple[int, ...]:
        """The primes of the group order, ascending, read off the cyclic factor orders."""
        out: set[int] = set()
        for n in self.kernel + self.top:
            # Frobenius kernel entries are checked prime when the node is built.
            out.update((n,) if is_prime(n) else prime_factors(n))
        return tuple(sorted(out))

    @property
    def is_abelian(self) -> bool:
        return all(u == 1 for row in self.multipliers for u in row)

    @cached_property
    def frobenius(self) -> bool:
        """True iff the top acts fixed-point-freely (enables the closed-form spectrum)."""
        return is_frobenius_action(self)

    def class_size_spectrum(self) -> Counter[int]:
        """Full class-size multiset as {size: multiplicity}.

        Fast paths: trivial action (all singletons), fixed-point-free action
        (three sizes in closed form), and coprime direct products
        (convolution of factor spectra).  Otherwise the classes of the
        cached permutation realization; a group whose order exceeds ``cap``
        raises CapExceeded before enumerating.
        """
        if self.factors:
            out = Counter({1: 1})
            for part in self.factors:
                out = convolve_spectra(out, part.class_size_spectrum())
            if spectrum_total(out) != self.order:  # pragma: no cover - internal sanity
                raise AssertionError("product spectrum does not sum to group order")
            return out
        if self.is_abelian:
            return Counter({1: self.order})
        if self.frobenius:
            kernel_order = math.prod(self.kernel)
            n = math.prod(self.top)
            return Counter({1: 1, n: (kernel_order - 1) // n, kernel_order: n - 1})
        if self.order > self.cap:
            raise CapExceeded(
                f"group of order {self.order} exceeds enumeration cap {self.cap} "
                "and no structured fast path applies"
            )
        return self.to_permutation().class_size_spectrum()

    def to_permutation(self, *, verify_order: bool | None = None) -> PermGroup:
        """Faithful permutation realization, built once per group and cached.

        The realization enumerates at most ``cap`` elements.  Its enumerated
        order is checked against the group order (FaithfulnessFailure
        otherwise) when ``verify_order`` is true, which by default it is
        whenever the order is at most ``cap``.
        """
        group = self._realization
        if verify_order is None:
            verify_order = self.order <= group.cap
        if verify_order and group.order != self.order:
            raise FaithfulnessFailure(
                f"permutation realization has order {group.order}, expected {self.order}"
            )
        return group

    @cached_property
    def _realization(self) -> PermGroup:
        """The realization on one point block per cyclic factor.

        Kernel generators translate their own block; each top generator
        multiplies every kernel block by its unit and translates its own top
        block.  The top blocks make the top part faithful, the kernel blocks
        the rest.
        """
        blocks = self.kernel + self.top
        if not blocks:
            return PermGroup([Permutation.identity(1)], name="1", cap=self.cap)
        offsets = []
        off = 0
        for n in blocks:
            offsets.append(off)
            off += n
        degree = off
        gens = []
        for j, m in enumerate(self.kernel):
            images = list(range(degree))
            base = offsets[j]
            for x in range(m):
                images[base + x] = base + (x + 1) % m
            gens.append(Permutation(tuple(images)))
        for i, n in enumerate(self.top):
            images = list(range(degree))
            for j, m in enumerate(self.kernel):
                base = offsets[j]
                u = self.multipliers[i][j]
                for x in range(m):
                    images[base + x] = base + (x * u) % m
            base = offsets[len(self.kernel) + i]
            for x in range(n):
                images[base + x] = base + (x + 1) % n
            gens.append(Permutation(tuple(images)))
        return PermGroup(gens, cap=self.cap)


# -- construction tree -------------------------------------------------------


@dataclass(frozen=True)
class Cyclic:
    n: int


@dataclass(frozen=True)
class Abelian:
    orders: tuple[int, ...]


@dataclass(frozen=True)
class Frobenius:
    """Squarefree cyclic kernel (distinct primes) with a cyclic complement.

    ``multipliers`` aligns with ``kernel``; omitted multipliers are chosen
    automatically: the smallest unit of multiplicative order exactly
    ``complement`` modulo each kernel prime.
    """

    kernel: tuple[int, ...]
    complement: int
    multipliers: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Semidirect:
    kernel: tuple[int, ...]
    top: tuple[int, ...]
    multipliers: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Direct:
    factors: tuple["GroupExpr", ...]


@dataclass(frozen=True)
class Perm:
    degree: int
    generators: tuple[tuple[int, ...], ...]


GroupExpr = Cyclic | Abelian | Frobenius | Semidirect | Direct | Perm


def _has_order(u: int, n: int, p: int, n_primes: tuple[int, ...]) -> bool:
    """True iff u has multiplicative order exactly n mod p; n_primes are n's primes."""
    return pow(u, n, p) == 1 and all(pow(u, n // q, p) != 1 for q in n_primes)


def auto_multiplier(p: int, n: int) -> int:
    """Smallest unit of multiplicative order exactly n modulo the prime p."""
    if (p - 1) % n != 0:
        raise InvalidMultiplier(
            f"no unit of order {n} mod {p}: {n} does not divide {p - 1}"
        )
    n_primes = prime_factors(n)
    for u in range(2, p):
        if _has_order(u, n, p, n_primes):
            return u
    raise InvalidMultiplier(f"no unit of order {n} mod {p}")  # pragma: no cover


def _checked_multiplier(u: int, m: int, n: int) -> int:
    """u reduced mod m, checked to be a unit whose order divides the top order n."""
    u %= m
    if math.gcd(u, m) != 1:
        raise InvalidMultiplier(f"{u} is not a unit mod {m}")
    order = multiplicative_order(u, m)
    if n % order != 0:
        raise InvalidMultiplier(f"{u} has order {order} mod {m}, not dividing top order {n}")
    return u


def _abelian_group(orders: tuple[int, ...], cap: int) -> MetabelianGroup:
    orders = tuple(n for n in orders if n > 1)
    return MetabelianGroup(
        kernel=(),
        top=orders,
        multipliers=tuple(() for _ in orders),
        cap=cap,
    )


def _frobenius_group(node: Frobenius, cap: int) -> MetabelianGroup:
    kernel = tuple(node.kernel)
    n = node.complement
    if not kernel:
        raise ExprError("Frobenius node needs at least one kernel prime")
    if len(set(kernel)) != len(kernel):
        raise ExprError(f"kernel primes must be distinct, got {kernel}")
    for p in kernel:
        if not is_prime(p):
            raise ExprError(f"kernel entry {p} is not prime")
    if n < 2:
        raise ExprError(f"complement order must be >= 2, got {n}")
    if any(math.gcd(p, n) != 1 for p in kernel):
        raise CoprimalityViolation(
            f"complement order {n} shares a prime with kernel {kernel}"
        )
    if node.multipliers is None:
        mults = tuple(auto_multiplier(p, n) for p in kernel)
    else:
        if len(node.multipliers) != len(kernel):
            raise ExprError("one multiplier per kernel prime required")
        mults = tuple(_checked_multiplier(int(u), p, n) for u, p in zip(node.multipliers, kernel))
    return MetabelianGroup(
        kernel=kernel,
        top=(n,),
        multipliers=(mults,),
        cap=cap,
    )


def _semidirect_group(node: Semidirect, cap: int) -> MetabelianGroup:
    # Building the group first checks the factor orders and the matrix shape.
    rows = tuple(tuple(int(u) for u in row) for row in node.multipliers)
    g = MetabelianGroup(tuple(node.kernel), tuple(node.top), rows, cap=cap)
    rows = tuple(
        tuple(_checked_multiplier(u, m, n) for u, m in zip(row, g.kernel))
        for row, n in zip(rows, g.top)
    )
    return replace(g, multipliers=rows)


def _fold_direct(parts: list[MetabelianGroup], cap: int) -> MetabelianGroup:
    """Block-diagonal fold of pairwise-coprime metabelian factors."""
    kernel = tuple(m for g in parts for m in g.kernel)
    rows: list[tuple[int, ...]] = []
    before = 0
    for g in parts:
        # A part's top acts on its own kernel factors and trivially on the rest.
        after = len(kernel) - before - len(g.kernel)
        rows.extend((1,) * before + row + (1,) * after for row in g.multipliers)
        before += len(g.kernel)
    return MetabelianGroup(
        kernel=kernel,
        top=tuple(n for g in parts for n in g.top),
        multipliers=tuple(rows),
        factors=tuple(parts),
        cap=cap,
    )


def evaluate(expr: GroupExpr, *, cap: int | None = None) -> MetabelianGroup | PermGroup:
    """Evaluate a construction tree to a concrete group.

    Direct products of structured children fold into one metabelian group
    (block-diagonal action) when the children's orders are pairwise
    coprime; any prime overlap, or any permutation child, routes the whole
    product through the permutation engine instead.  Every group built
    carries ``cap`` (default ``DEFAULT_ENUMERATION_CAP``), the bound on any
    enumeration of it.
    """
    if cap is None:
        cap = DEFAULT_ENUMERATION_CAP
    if isinstance(expr, Cyclic):
        if expr.n < 1:
            raise ExprError(f"cyclic order must be >= 1, got {expr.n}")
        return _abelian_group((expr.n,) if expr.n > 1 else (), cap)
    if isinstance(expr, Abelian):
        if any(n < 1 for n in expr.orders):
            raise ExprError(f"abelian orders must be >= 1, got {expr.orders}")
        return _abelian_group(tuple(expr.orders), cap)
    if isinstance(expr, Frobenius):
        return _frobenius_group(expr, cap)
    if isinstance(expr, Semidirect):
        return _semidirect_group(expr, cap)
    if isinstance(expr, Perm):
        try:
            gens = [Permutation(tuple(images)) for images in expr.generators]
        except ValueError as exc:
            raise ExprError(str(exc)) from exc
        if any(g.degree != expr.degree for g in gens):
            raise ExprError("generator degree does not match declared degree")
        return PermGroup(gens, cap=cap)
    if isinstance(expr, Direct):
        if not expr.factors:
            raise ExprError("direct product needs at least one factor")
        parts = [evaluate(child, cap=cap) for child in expr.factors]
        if len(parts) == 1:
            return parts[0]
        if all(isinstance(g, MetabelianGroup) for g in parts):
            orders = [g.order for g in parts]
            coprime = all(
                math.gcd(orders[i], orders[j]) == 1
                for i in range(len(orders))
                for j in range(i + 1, len(orders))
            )
            if coprime:
                flat: list[MetabelianGroup] = []
                for g in parts:
                    flat.extend(g.factors if g.factors else (g,))
                return _fold_direct(flat, cap)
        out = parts[0].to_permutation()
        for g in parts[1:]:
            out = out.direct_product(g.to_permutation())
        return out
    raise ExprError(f"unknown construction node {expr!r}")


# -- class sizes -------------------------------------------------------------


def is_frobenius_action(g: MetabelianGroup) -> bool:
    """True iff every nontrivial top element fixes only the zero kernel element.

    A unit u fixes a nonzero point of ``Z_m`` exactly when u = 1 mod some
    prime q dividing m.  For each kernel factor j and each such q, the map
    sending a top element l to its multiplier on factor j, mod q, is a
    homomorphism into the cyclic group (Z/q)*, so the action is
    fixed-point-free iff every one of these maps is injective.  An
    injective map needs a cyclic top, and on the cyclic top ⊕ Z_{n_i} (n_i
    pairwise coprime) it is injective iff each u_ij has order exactly n_i
    mod q; ``_checked_multiplier`` already makes that order divide n_i.
    """
    if not g.kernel or not g.top or math.lcm(*g.top) != math.prod(g.top):
        return False
    for n, row in zip(g.top, g.multipliers):
        n_primes = prime_factors(n)
        for u, m in zip(row, g.kernel):
            # Frobenius kernel entries are checked prime when the node is built.
            kernel_primes = (m,) if is_prime(m) else prime_factors(m)
            if not all(_has_order(u, n, q, n_primes) for q in kernel_primes):
                return False
    return True


def convolve_spectra(a: Counter[int], b: Counter[int]) -> Counter[int]:
    """Spectrum of a direct product: pairwise products with multiplicity."""
    out: Counter[int] = Counter()
    for s1, c1 in a.items():
        for s2, c2 in b.items():
            out[s1 * s2] += c1 * c2
    return out


def spectrum_total(spectrum: Counter[int]) -> int:
    """Sum of the multiset, i.e. the group order it came from."""
    return sum(size * count for size, count in spectrum.items())


# Module-level spellings of the shared group interface, for either kind of group.
def class_size_spectrum(group: MetabelianGroup | PermGroup) -> Counter[int]:
    return group.class_size_spectrum()


def to_permutation(group: MetabelianGroup | PermGroup, **kwargs) -> PermGroup:
    return group.to_permutation(**kwargs)
