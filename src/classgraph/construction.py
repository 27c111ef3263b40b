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

A spectrum with no closed form comes from the cached permutation
realization, which carries the group's enumeration ``cap``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

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
class AbelianGroup:
    """Direct sum of cyclic groups; elements are reduced residue tuples."""

    factor_orders: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factor_orders", tuple(int(n) for n in self.factor_orders))
        if any(n < 2 for n in self.factor_orders):
            raise ExprError(f"cyclic factor orders must be >= 2, got {self.factor_orders}")

    @property
    def order(self) -> int:
        return math.prod(self.factor_orders)

    def elements(self):
        return product(*(range(n) for n in self.factor_orders))


@dataclass(frozen=True)
class MultiplierAction:
    """Unit multipliers ``multipliers[i][j]`` of top generator i on kernel factor j."""

    multipliers: tuple[tuple[int, ...], ...]

    def multiplier_for(self, l: tuple[int, ...], j: int, modulus: int) -> int:
        m = 1
        for i, li in enumerate(l):
            if li:
                m = m * pow(self.multipliers[i][j], li, modulus) % modulus
        return m

    def is_trivial(self) -> bool:
        return all(u == 1 for row in self.multipliers for u in row)


@dataclass(frozen=True)
class MetabelianGroup:
    """Semidirect product kernel x| top, with optional product provenance.

    ``factors`` records the coprime direct-product parts a folded product
    was assembled from (enables the convolution spectrum).  ``cap`` bounds
    the enumeration of the permutation realization, as ``PermGroup.cap``
    does, and takes no part in equality.
    """

    kernel: AbelianGroup
    top: AbelianGroup
    action: MultiplierAction
    factors: tuple["MetabelianGroup", ...] | None = None
    cap: int = field(default=DEFAULT_ENUMERATION_CAP, compare=False)

    def __post_init__(self) -> None:
        rows = self.action.multipliers
        if len(rows) != len(self.top.factor_orders) or any(
            len(row) != len(self.kernel.factor_orders) for row in rows
        ):
            raise ExprError("action shape does not match kernel/top factors")

    @property
    def order(self) -> int:
        return self.kernel.order * self.top.order

    @cached_property
    def primes(self) -> tuple[int, ...]:
        """The primes of the group order, ascending, read off the cyclic factor orders."""
        out: set[int] = set()
        for n in self.kernel.factor_orders + self.top.factor_orders:
            # Frobenius kernel entries are checked prime when the node is built.
            out.update((n,) if is_prime(n) else prime_factors(n))
        return tuple(sorted(out))

    @property
    def is_abelian(self) -> bool:
        return self.action.is_trivial()

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
            kernel_order = self.kernel.order
            n = self.top.order
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
        kernel_orders = self.kernel.factor_orders
        top_orders = self.top.factor_orders
        blocks = list(kernel_orders) + list(top_orders)
        if not blocks:
            return PermGroup([Permutation.identity(1)], name="1", cap=self.cap)
        offsets = []
        off = 0
        for n in blocks:
            offsets.append(off)
            off += n
        degree = off
        gens = []
        for j, m in enumerate(kernel_orders):
            images = list(range(degree))
            base = offsets[j]
            for x in range(m):
                images[base + x] = base + (x + 1) % m
            gens.append(Permutation(tuple(images)))
        for i, n in enumerate(top_orders):
            images = list(range(degree))
            for j, m in enumerate(kernel_orders):
                base = offsets[j]
                u = self.action.multipliers[i][j]
                for x in range(m):
                    images[base + x] = base + (x * u) % m
            base = offsets[len(kernel_orders) + i]
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
    top = AbelianGroup(orders)
    return MetabelianGroup(
        kernel=AbelianGroup(()),
        top=top,
        action=MultiplierAction(tuple(() for _ in orders)),
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
        kernel=AbelianGroup(kernel),
        top=AbelianGroup((n,)),
        action=MultiplierAction((mults,)),
        cap=cap,
    )


def _semidirect_group(node: Semidirect, cap: int) -> MetabelianGroup:
    kernel = AbelianGroup(tuple(node.kernel))
    top = AbelianGroup(tuple(node.top))
    rows = tuple(tuple(int(u) for u in row) for row in node.multipliers)
    if len(rows) != len(top.factor_orders) or any(
        len(row) != len(kernel.factor_orders) for row in rows
    ):
        raise ExprError("multiplier matrix must be top-factors x kernel-factors")
    rows = tuple(
        tuple(_checked_multiplier(u, m, n) for u, m in zip(row, kernel.factor_orders))
        for row, n in zip(rows, top.factor_orders)
    )
    return MetabelianGroup(kernel=kernel, top=top, action=MultiplierAction(rows), cap=cap)


def _fold_direct(parts: list[MetabelianGroup], cap: int) -> MetabelianGroup:
    """Block-diagonal fold of pairwise-coprime metabelian factors."""
    kernel_orders: list[int] = []
    top_orders: list[int] = []
    k_offsets: list[int] = []
    for g in parts:
        k_offsets.append(len(kernel_orders))
        kernel_orders.extend(g.kernel.factor_orders)
        top_orders.extend(g.top.factor_orders)
    rows = []
    for idx, g in enumerate(parts):
        for row in g.action.multipliers:
            full = [1] * len(kernel_orders)
            for j, u in enumerate(row):
                full[k_offsets[idx] + j] = u
            rows.append(tuple(full))
    return MetabelianGroup(
        kernel=AbelianGroup(tuple(kernel_orders)),
        top=AbelianGroup(tuple(top_orders)),
        action=MultiplierAction(tuple(rows)),
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
        gens = [Permutation(tuple(images)) for images in expr.generators]
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

    The fixed points of ``phi_l`` on cyclic factor ``Z_m`` are the solutions
    of ``(u - 1) k = 0 (mod m)``, trivial exactly when ``gcd(u - 1, m) == 1``.
    """
    if g.kernel.order == 1 or g.top.order == 1:
        return False
    orders = g.kernel.factor_orders
    if len(g.top.factor_orders) == 1 and all(is_prime(m) for m in orders):
        # One cyclic top generator on prime factors: fixed-point-free iff
        # each multiplier has order exactly |top|.
        n = g.top.factor_orders[0]
        n_primes = prime_factors(n)
        return all(
            _has_order(u, n, p, n_primes) for u, p in zip(g.action.multipliers[0], orders)
        )
    for l in g.top.elements():
        if all(x == 0 for x in l):
            continue
        for j, m in enumerate(orders):
            u = g.action.multiplier_for(l, j, m)
            if math.gcd(u - 1, m) != 1:
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
