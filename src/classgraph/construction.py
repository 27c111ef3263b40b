"""Structured group constructions with fast class-size computation.

The groups built here are the ones the block-square theory actually needs:
abelian groups, semidirect products of two abelian groups where the top
acts by componentwise multipliers (metabelian), Frobenius groups with
squarefree cyclic kernel and cyclic complement, and direct products of
those and of permutation groups.  Each carries enough structure to compute
its conjugacy class-size spectrum without enumerating elements whenever a
fast path applies; the permutation engine (``to_permutation``) stays
available as the independent cross-check.  A :class:`MetabelianGroup` and a
:class:`DirectProduct` offer the same ``order``, ``primes``,
``class_size_spectrum()``, ``delta()``, ``pi_subgroup()`` and
``to_permutation()`` as a :class:`~classgraph.perm.PermGroup`.

A :class:`MetabelianGroup` is three tuples: kernel and top cyclic factor
orders and the unit multipliers of the action.  Whether that action is
fixed-point-free (Frobenius) is decided in closed form, without walking
the top: :func:`is_frobenius_action` checks multiplicative orders modulo
the primes of the kernel factors.  A spectrum with no closed form comes
from the cached permutation realization, which carries the group's
enumeration ``cap``.  Every ``direct`` node, and a ``perm`` node whose
generators split, evaluates to one :class:`DirectProduct` of leaf groups of
either kind, coprime or not, which reads every answer off its factors: the
cap bounds what a factor enumerates, never the product's order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import combinations

from .errors import (
    CapExceeded,
    CoprimalityViolation,
    ExprError,
    FaithfulnessFailure,
    InvalidMultiplier,
)
from .graph import PrimeGraph, delta_of, product_delta, product_spectrum
from .perm import DEFAULT_ENUMERATION_CAP, Permutation, PermGroup
from .primes import EXACT_BELOW, is_prime, prime_factors, valuation


@dataclass(frozen=True)
class MetabelianGroup:
    """Semidirect product kernel x| top.

    ``kernel`` and ``top`` are the orders of the cyclic factors, each at
    least 2, and top factor i multiplies kernel factor j by the unit
    ``multipliers[i][j]``.  ``cap`` bounds the enumeration of the
    permutation realization, as ``PermGroup.cap`` does, and takes no part
    in equality.
    """

    kernel: tuple[int, ...]
    top: tuple[int, ...]
    multipliers: tuple[tuple[int, ...], ...]
    cap: int = field(default=DEFAULT_ENUMERATION_CAP, compare=False)
    factors = ()  # not a field: a leaf, as for an unsplit ``PermGroup``

    def __post_init__(self) -> None:
        if any(n < 2 for n in self.kernel + self.top):
            raise ExprError(f"cyclic factor orders must be >= 2, got {self.kernel + self.top}")
        for n in self.kernel + self.top:
            _check_exact(n, "cyclic factor order")
        rows = self.multipliers
        if len(rows) != len(self.top) or any(len(row) != len(self.kernel) for row in rows):
            raise ExprError("multiplier matrix must be top-factors x kernel-factors")

    @property
    def order(self) -> int:
        return math.prod(self.kernel + self.top)

    @cached_property
    def primes(self) -> tuple[int, ...]:
        """The primes of the group order, ascending."""
        return tuple(sorted({q for n in self.kernel + self.top for q in prime_factors(n)}))

    @property
    def is_abelian(self) -> bool:
        return all(u == 1 for row in self.multipliers for u in row)

    @cached_property
    def frobenius(self) -> bool:
        """True iff the top acts fixed-point-freely (enables the closed-form spectrum)."""
        return is_frobenius_action(self)

    def class_size_spectrum(self) -> Counter[int]:
        """Full class-size multiset as {size: multiplicity}.

        Fast paths: trivial action (all singletons) and fixed-point-free
        action (three sizes in closed form).  Otherwise the classes of the
        cached permutation realization, which ``to_permutation`` gates on ``cap``.
        """
        if self.is_abelian:
            return Counter({1: self.order})
        if self.frobenius:
            kernel_order = math.prod(self.kernel)
            n = math.prod(self.top)
            return Counter({1: 1, n: (kernel_order - 1) // n, kernel_order: n - 1})
        return self.to_permutation().class_size_spectrum()

    def delta(self) -> PrimeGraph:
        """Δ of the class sizes: a Frobenius group's is two cliques, on the kernel's primes and
        the complement's; any other group reads its own spectrum with ``delta_of``."""
        if not self.frobenius:
            return delta_of(self.class_size_spectrum(), primes=self.primes)
        kernel_order = math.prod(self.kernel)
        sides = [[q for q in self.primes if (kernel_order % q == 0) == k] for k in (False, True)]
        edges = frozenset(e for side in sides for e in combinations(side, 2))
        return PrimeGraph._trusted(self.primes, edges)

    def pi_subgroup(self, pi: set[int] | frozenset[int]) -> MetabelianGroup | PermGroup | None:
        """The elements whose order has all its prime divisors in pi, as a subgroup.

        None when they do not form one; the group itself when pi covers its
        primes.  A group neither abelian nor Frobenius answers on its
        realization, which ``cap`` gates.  An abelian group's is its Hall
        π-part.

        In a Frobenius leaf K x| T (T cyclic) every element outside K lies
        in a conjugate of T, so the π-elements are K_π and those of the
        conjugates of T_π.  If T_π = 1, that is K_π.  Else for t != 1 in
        T_π, k -> [k, t] is injective on the abelian K, hence onto, so the
        K-conjugates of t are all of Kt and the π-elements generate
        [K, T_π]T_π = KT_π.  So they form a subgroup only when K is a
        π-group, and then it is the normal KT_π = K x| T_π, with top
        generator i raised to the power n_i / |T_π,i|.
        """
        if pi.issuperset(self.primes):
            return self
        if not (self.frobenius or self.is_abelian):
            return self.to_permutation().pi_subgroup(pi)
        top = tuple(_pi_part(n, pi) for n in self.top)
        if self.is_abelian or set(top) == {1}:
            return _abelian_group(tuple(_pi_part(n, pi) for n in self.kernel + self.top), self.cap)
        if any(_pi_part(m, pi) != m for m in self.kernel):
            return None
        kept = [(r, n, t) for r, n, t in zip(self.multipliers, self.top, top) if t > 1]
        rows = tuple(tuple(pow(u, n // t, m) for u, m in zip(r, self.kernel)) for r, n, t in kept)
        return MetabelianGroup(self.kernel, tuple(t for _, _, t in kept), rows, cap=self.cap)

    def to_permutation(self, *, verify_order: bool = True) -> PermGroup:
        """Faithful permutation realization, built once per group and cached.

        This is the one way into enumerating a structured group.  With
        ``verify_order``, an order above ``cap`` raises CapExceeded before
        the realization is built, and the enumerated order must equal the
        group order (FaithfulnessFailure otherwise).  Without it, the bare
        realization is returned, for callers that only read its generators.
        """
        if not verify_order:
            return self._realization
        if self.order > self.cap:
            raise CapExceeded(f"group of order {self.order} exceeds enumeration cap {self.cap}")
        group = self._realization
        if group.order != self.order:
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
            return PermGroup([Permutation.identity(1)], cap=self.cap)
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


@dataclass(frozen=True)
class DirectProduct:
    """The direct product of leaf groups of either kind, coprime or not, read off its factors.

    ``cap`` gates ``to_permutation`` alone; each factor's own cap bounds what it enumerates.
    """

    factors: tuple[MetabelianGroup | PermGroup, ...]
    cap: int = field(default=DEFAULT_ENUMERATION_CAP, compare=False)

    @property
    def order(self) -> int:
        return math.prod(f.order for f in self.factors)

    @cached_property
    def primes(self) -> tuple[int, ...]:
        return tuple(sorted({q for f in self.factors for q in f.primes}))

    @property
    def is_abelian(self) -> bool:
        return all(f.is_abelian for f in self.factors)

    def class_size_spectrum(self) -> Counter[int]:
        return product_spectrum(self.factors, self.order)

    def delta(self) -> PrimeGraph:
        return product_delta(self.factors)

    def pi_subgroup(self, pi: set[int] | frozenset[int]) -> Group | None:
        """The factors' π-subgroups, as (g, h) is a π-element exactly when g and h are; None
        when one is None, and the first factor's trivial one when pi misses every factor."""
        if pi.issuperset(self.primes):
            return self
        subs = [f.pi_subgroup(pi) for f in self.factors if not pi.isdisjoint(f.primes)]
        subs = subs or [self.factors[0].pi_subgroup(pi)]
        if any(sub is None for sub in subs):
            return None
        return subs[0] if len(subs) == 1 else DirectProduct(tuple(subs), self.cap)

    def to_permutation(self, *, verify_order: bool = True) -> PermGroup:
        """The factors' realizations on disjoint points; ``verify_order`` gates the order on ``cap``."""
        if verify_order and self.order > self.cap:
            raise CapExceeded(f"group of order {self.order} exceeds enumeration cap {self.cap}")
        parts = [f.to_permutation(verify_order=verify_order) for f in self.factors]
        return reduce(PermGroup.direct_product, parts)


Group = MetabelianGroup | PermGroup | DirectProduct


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
    automatically: modulo each kernel prime p, u^((p - 1)/complement) for
    the least u >= 2 that makes it a unit of order exactly ``complement``.
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


def auto_multiplier(p: int, n: int, n_primes: tuple[int, ...]) -> int:
    """u^((p - 1)/n) mod the prime p for the least u >= 2 of order exactly n, given n's primes."""
    if (p - 1) % n != 0:
        raise InvalidMultiplier(f"no unit of order {n} mod {p}: {n} does not divide {p - 1}")
    # The scan stops by the least primitive root.  h**n = u**(p - 1) = 1: test each h**(n/q).
    for u in range(2, p):
        h = pow(u, (p - 1) // n, p)
        if all(pow(h, n // q, p) != 1 for q in n_primes):
            return h
    raise InvalidMultiplier(f"no unit of order {n} mod {p}")  # pragma: no cover


def _checked_multiplier(u: int, m: int, n: int) -> int:
    """u reduced mod m, checked to be a unit whose order divides the top order n."""
    u %= m
    if math.gcd(u, m) != 1:
        raise InvalidMultiplier(f"{u} is not a unit mod {m}")
    # u's order divides n exactly when u^n = 1.
    if pow(u, n, m) != 1:
        raise InvalidMultiplier(f"{u} mod {m} has order not dividing top order {n}")
    return u


def _abelian_group(orders: tuple[int, ...], cap: int) -> MetabelianGroup:
    orders = tuple(n for n in orders if n > 1)
    return MetabelianGroup(
        kernel=(),
        top=orders,
        multipliers=tuple(() for _ in orders),
        cap=cap,
    )


def _pi_part(n: int, pi: set[int] | frozenset[int]) -> int:
    """The largest divisor of n whose primes all lie in pi."""
    return math.prod(q ** valuation(n, q) for q in pi if n % q == 0)


def _check_exact(n: int, what: str) -> None:
    """Factoring and primality are proven exact only below EXACT_BELOW."""
    if n >= EXACT_BELOW:
        raise ExprError(f"{what} {n} is not below the exact-primality limit {EXACT_BELOW}")


def _frobenius_group(node: Frobenius, cap: int) -> MetabelianGroup:
    kernel = tuple(node.kernel)
    n = node.complement
    if not kernel:
        raise ExprError("Frobenius node needs at least one kernel prime")
    if len(set(kernel)) != len(kernel):
        raise ExprError(f"kernel primes must be distinct, got {kernel}")
    for p in kernel:
        _check_exact(p, "kernel entry")
        if not is_prime(p):
            raise ExprError(f"kernel entry {p} is not prime")
    if n < 2:
        raise ExprError(f"complement order must be >= 2, got {n}")
    _check_exact(n, "complement order")
    if any(math.gcd(p, n) != 1 for p in kernel):
        raise CoprimalityViolation(
            f"complement order {n} shares a prime with kernel {kernel}"
        )
    n_primes = prime_factors(n)
    if node.multipliers is None:
        mults = tuple(auto_multiplier(p, n, n_primes) for p in kernel)
    else:
        if len(node.multipliers) != len(kernel):
            raise ExprError("one multiplier per kernel prime required")
        mults = tuple(_checked_multiplier(int(u), p, n) for u, p in zip(node.multipliers, kernel))
    group = MetabelianGroup(kernel=kernel, top=(n,), multipliers=(mults,), cap=cap)
    group.__dict__["primes"] = tuple(sorted(kernel + n_primes))  # kernel entries proven prime above
    if node.multipliers is None:  # each of order exactly n mod its prime: is_frobenius_action
        group.__dict__["frobenius"] = True
    return group


def _semidirect_group(node: Semidirect, cap: int) -> MetabelianGroup:
    # Building the group first checks the factor orders and the matrix shape.
    rows = tuple(tuple(int(u) for u in row) for row in node.multipliers)
    g = MetabelianGroup(tuple(node.kernel), tuple(node.top), rows, cap=cap)
    rows = tuple(
        tuple(_checked_multiplier(u, m, n) for u, m in zip(row, g.kernel))
        for row, n in zip(rows, g.top)
    )
    return replace(g, multipliers=rows)


def evaluate(expr: GroupExpr, *, cap: int | None = None) -> Group:
    """Evaluate a construction tree to a concrete group.

    A direct product is one :class:`DirectProduct` of its children's
    factors, flattened, whatever primes they share and whatever kind they
    are.  A permutation group whose generators split is the
    :class:`DirectProduct` of its :attr:`PermGroup.factors`, each walked on
    its own.  Every group built carries ``cap`` (default
    ``DEFAULT_ENUMERATION_CAP``), the bound on any enumeration of it.
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
        group = PermGroup(gens, cap=cap)
        return DirectProduct(group.factors, cap) if group.factors else group
    if isinstance(expr, Direct):
        if not expr.factors:
            raise ExprError("direct product needs at least one factor")
        groups = [evaluate(child, cap=cap) for child in expr.factors]
        parts = tuple(f for g in groups for f in g.factors or (g,))
        return parts[0] if len(parts) == 1 else DirectProduct(parts, cap)
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
        n_primes = [q for q in g.primes if n % q == 0]
        for u, m in zip(row, g.kernel):
            if not all(_has_order(u, n, q, n_primes) for q in g.primes if m % q == 0):
                return False
    return True


# Module-level spellings of the shared group interface, for either kind of group.
def class_size_spectrum(group: Group) -> Counter[int]:
    return group.class_size_spectrum()


def to_permutation(group: Group, **kwargs) -> PermGroup:
    return group.to_permutation(**kwargs)
