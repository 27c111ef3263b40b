"""Structured group constructions with class sizes read off the tree.

The groups built here are the ones the block-square theory actually needs:
abelian groups, semidirect products of two abelian groups where the top
acts by componentwise multipliers (metabelian), Frobenius groups with
squarefree cyclic kernel and cyclic complement, and direct products of
those and of permutation groups.  A :class:`MetabelianGroup` and a
:class:`DirectProduct` offer the same ``order``, ``primes``,
``class_size_spectrum()``, ``delta()`` and ``pi_subgroup()`` as a
:class:`~classgraph.perm.PermGroup`.

A :class:`MetabelianGroup` is three tuples: kernel and top cyclic factor
orders and the unit multipliers of the action.  It answers every query
off those tuples and never enumerates: whether the action is
fixed-point-free (Frobenius) by :func:`is_frobenius_action`, from
multiplicative orders modulo the primes of the kernel factors; its
spectrum by orbit-stabilizer over the image of the action, which its
``cap`` bounds; its π-subgroups by one rule.  Every ``direct`` node, and
a ``perm`` node whose generators split, evaluates to one
:class:`DirectProduct` of leaf groups of either kind, coprime or not,
which reads every answer off its factors: the cap bounds what a factor
enumerates, never the product's order.  :func:`to_permutation` builds a
faithful permutation realization of any group, which no query reads.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, combinations, product

from .errors import (
    CapExceeded,
    CoprimalityViolation,
    ExprError,
    InvalidMultiplier,
)
from .graph import PrimeGraph, delta_of, mask_components, product_delta, product_spectrum
from .perm import DEFAULT_ENUMERATION_CAP, Permutation, PermGroup
from .primes import EXACT_BELOW, factorize, is_prime, prime_factors, valuation


@dataclass(frozen=True)
class MetabelianGroup:
    """Semidirect product kernel x| top.

    ``kernel`` and ``top`` are the orders of the cyclic factors, each at
    least 2, and top factor i multiplies kernel factor j by the unit
    ``multipliers[i][j]``.  ``cap`` bounds the spectrum's work off the
    tree, |W| · ∏ τ(m_j) in ``class_size_spectrum``, and takes no part in
    equality.
    """

    kernel: tuple[int, ...]
    top: tuple[int, ...]
    multipliers: tuple[tuple[int, ...], ...]
    cap: int = field(default=DEFAULT_ENUMERATION_CAP, compare=False)
    factors = ()  # not a field: a leaf, as a ``PermGroup`` is

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

    @cached_property
    def is_abelian(self) -> bool:
        return all(u == 1 for row in self.multipliers for u in row)

    @cached_property
    def frobenius(self) -> bool:
        """True iff the top acts fixed-point-freely (enables the closed-form spectrum)."""
        return is_frobenius_action(self)

    def class_size_spectrum(self) -> Counter[int]:
        """Full class-size multiset as {size: multiplicity}, off the tree.

        Fixed-point-free action: three sizes.  Trivial action: all singletons.
        Otherwise orbit-stabilizer over W, the image of the action: top element
        t multiplies kernel factor j by w_j(t), and each w in W is w(t) for
        |T|/|W| elements t.  Conjugating (a, t) by (b, 1) gives
        (a + (1 - w(t))b, t) and by (0, s) gives (w(s)a, t), so the class of
        (a, t) is the W-orbit of a + [K, t] in K/[K, t] = ⊕ Z_{d_j}, lifted,
        with d_j = gcd(w_j - 1, m_j) and |[K, t]| = ∏ m_j/d_j.  v in W fixes
        a + [K, t] iff e_j | v_j - 1 for all j, e_j the order of a_j mod d_j,
        and φ(e_j) values of a_j have that order.  So each divisor tuple e | d
        gives |T|/|W| · ∏ φ(e_j) · |[K, t]| elements in classes of size
        |[K, t]| · |W| / |S(e)|, S(e) the v fixing it.  Divisors and φ come
        from factoring each m_j.  CapExceeded once |W| · ∏ τ(m_j), a bound
        on the work that never exceeds the order, passes ``cap``.
        """
        if self.frobenius:  # first: a cached flag, and the common leaf
            kernel_order = math.prod(self.kernel)
            n = math.prod(self.top)
            return Counter({1: 1, n: (kernel_order - 1) // n, kernel_order: n - 1})
        if self.is_abelian:
            return Counter({1: self.order})
        phis = [_divisor_phis(m) for m in self.kernel]
        tuples = math.prod(map(len, phis))
        images = [(1,) * len(self.kernel)]
        seen = set(images)
        for w in images:  # grows while it is walked
            if len(images) * tuples > self.cap:
                work = f"{len(images)} action images times {tuples} divisor tuples"
                raise CapExceeded(f"{work} exceed enumeration cap {self.cap}")
            for row in self.multipliers:
                v = tuple(x * u % m for x, u, m in zip(w, row, self.kernel))
                if v not in seen:
                    seen.add(v)
                    images.append(v)
        size_w, per_image = len(images), math.prod(self.top) // len(images)
        fixers: dict[tuple[int, ...], int] = {}
        out: Counter[int] = Counter()
        cosets = Counter(tuple(math.gcd(v - 1, m) for v, m in zip(w, self.kernel)) for w in images)
        for d, count in cosets.items():
            commutator = math.prod(m // dj for m, dj in zip(self.kernel, d))
            for e in product(*([x for x in ph if dj % x == 0] for ph, dj in zip(phis, d))):
                if e not in fixers:  # |S(e)|, one scan of W per divisor tuple
                    fixers[e] = sum(all((v - 1) % x == 0 for v, x in zip(w, e)) for w in images)
                phi = math.prod(ph[x] for ph, x in zip(phis, e))
                out[commutator * size_w // fixers[e]] += count * per_image * phi * fixers[e] // size_w
        return out

    def delta(self) -> PrimeGraph:
        """Δ of the class sizes: a Frobenius group's is two cliques, on the kernel's primes and
        the complement's; any other group reads its own spectrum with ``delta_of``."""
        if not self.frobenius:
            return delta_of(self.class_size_spectrum(), primes=self.primes)
        kernel_order = math.prod(self.kernel)
        sides = [[q for q in self.primes if (kernel_order % q == 0) == k] for k in (False, True)]
        edges = frozenset(e for side in sides for e in combinations(side, 2))
        return PrimeGraph._trusted(self.primes, edges)

    def pi_subgroup(self, pi: set[int] | frozenset[int]) -> MetabelianGroup | None:
        """The elements whose order has all its prime divisors in pi, as a subgroup.

        None when they do not form one; the group itself when pi covers its
        primes.  They form one iff T_π acts trivially on K_π′, and it is then
        K_π x| T_π: kernel factors cut to their π-parts, top generator i
        raised to n_i / |T_π,i|, trivial factors dropped.  If the π-elements
        form a subgroup S, it is a normal π-group holding the Hall subgroup
        K_π T_π, so S = K_π T_π.  Conjugating (a, t) by b in K_π′ adds
        (1 - w(t))b, which lies in K_π′, so K_π T_π is normal exactly when
        that is 0 for every t in T_π; then G, solvable, has every π-element
        in a conjugate of this Hall subgroup, which is the subgroup itself.
        """
        if pi.issuperset(self.primes):
            return self
        cut = [(m, _pi_part(m, pi)) for m in self.kernel]
        parts = [(_pi_part(n, pi), n, row) for n, row in zip(self.top, self.multipliers)]
        top = [(t, n // t, row) for t, n, row in parts if t > 1]
        if any(pow(u, k, m // c) != 1 for _, k, row in top for u, (m, c) in zip(row, cut) if c < m):
            return None
        cols = [j for j, (_, c) in enumerate(cut) if c > 1]
        return MetabelianGroup(
            tuple(cut[j][1] for j in cols),
            tuple(t for t, _, _ in top),
            tuple(tuple(pow(row[j], k, cut[j][1]) for j in cols) for _, k, row in top),
            cap=self.cap,
        )


@dataclass(frozen=True)
class DirectProduct:
    """The direct product of leaf groups of either kind, coprime or not, read off its factors.

    It has no cap of its own: each factor's cap bounds what that factor enumerates.
    """

    factors: tuple[MetabelianGroup | PermGroup, ...]

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
        return subs[0] if len(subs) == 1 else DirectProduct(tuple(subs))


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


def _divisor_phis(m: int) -> dict[int, int]:
    """{e: φ(e)} for every divisor e of m, from one factorisation of m."""
    out = {1: 1}
    for q, v in factorize(m).items():
        powers = [(1, 1)] + [(q**k, q**k - q ** (k - 1)) for k in range(1, v + 1)]
        out = {e * p: f * g for e, f in out.items() for p, g in powers}
    return out


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


def _perm_factors(group: PermGroup) -> tuple[PermGroup, ...]:
    """The direct factors of a permutation group, () for one: its generators grouped by the
    components of their links, as generators moving disjoint points commute."""
    moved = [{i for i, j in enumerate(g.images) if i != j} for g in group.generators]
    links = [sum(1 << k for k, b in enumerate(moved) if not a.isdisjoint(b)) for a in moved]
    parts = mask_components(links, sum(1 << k for k, a in enumerate(moved) if a))
    if len(parts) < 2:
        return ()
    gens = group.generators
    return tuple(
        PermGroup([g for k, g in enumerate(gens) if part >> k & 1], cap=group.cap) for part in parts
    )


def evaluate(expr: GroupExpr, *, cap: int | None = None) -> Group:
    """Evaluate a construction tree to a concrete group.

    A direct product is one :class:`DirectProduct` of its children's
    factors, flattened, whatever primes they share and whatever kind they
    are.  A permutation group whose generators split is the
    :class:`DirectProduct` of its ``_perm_factors``, each walked on its own.
    Every leaf built carries ``cap`` (default ``DEFAULT_ENUMERATION_CAP``),
    the bound on any enumeration of it.
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
        factors = _perm_factors(group)
        return DirectProduct(factors) if factors else group
    if isinstance(expr, Direct):
        if not expr.factors:
            raise ExprError("direct product needs at least one factor")
        groups = [evaluate(child, cap=cap) for child in expr.factors]
        parts = tuple(f for g in groups for f in g.factors or (g,))
        return parts[0] if len(parts) == 1 else DirectProduct(parts)
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


# A module-level spelling of the shared ``class_size_spectrum()``, for any kind of group.
def class_size_spectrum(group: Group) -> Counter[int]:
    return group.class_size_spectrum()


def to_permutation(group: Group) -> PermGroup:
    """A faithful permutation realization; no query of a group reads it.

    A :class:`~classgraph.perm.PermGroup` is its own.  Otherwise each leaf of
    ``group.factors or (group,)`` takes its own points, in factor order.  A
    permutation leaf puts its generators there.  A :class:`MetabelianGroup`
    leaf takes one block per cyclic factor: kernel generator j translates
    block j, then top generator i multiplies every kernel block by its unit
    and translates its own block, which makes the top part faithful.  A leaf
    with no blocks takes one fixed point, generated by the identity.  The
    leaves' ``cap`` bounds the result's walk, so CapExceeded comes from that.
    """
    if isinstance(group, PermGroup):
        return group
    leaves = group.factors or (group,)
    sizes = [f.degree if isinstance(f, PermGroup) else sum(f.kernel + f.top) or 1 for f in leaves]
    degree = sum(sizes)
    gens = []  # each generator as (first point, images on the block from it) pieces
    for leaf, off in zip(leaves, accumulate(sizes, initial=0)):
        if isinstance(leaf, PermGroup):
            gens += [[(off, g.images)] for g in leaf.generators]
            continue
        k, starts = len(leaf.kernel), list(accumulate(leaf.kernel + leaf.top, initial=off))
        gens += [[(base, (*range(1, m), 0))] for base, m in zip(starts, leaf.kernel)]
        for i, (n, row) in enumerate(zip(leaf.top, leaf.multipliers)):
            units = zip(starts, leaf.kernel, row)
            scaled = [(base, tuple(x * u % m for x in range(m))) for base, m, u in units]
            gens.append(scaled + [(starts[k + i], (*range(1, n), 0))])
        if not leaf.kernel + leaf.top:
            gens.append([])
    perms = []
    for pieces in gens:
        images = list(range(degree))
        for start, block in pieces:
            images[start : start + len(block)] = (start + x for x in block)
        perms.append(Permutation(tuple(images)))
    return PermGroup(perms, cap=max(f.cap for f in leaves))
