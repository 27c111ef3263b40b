"""Structure recognition: D-groups, central stripping, block-square splitting.

A D-group is a group whose class-size prime graph is disconnected.  By
Bertram, Herzog and Mann these are the groups G = AB with A normal
abelian, B abelian, A and B meeting trivially, Z(G) <= B, and G/Z(G)
Frobenius with kernel AZ(G)/Z(G); their class sizes are {1, |A|, |B:Z(G)|}.
|Z(G)| may share primes with |A|: C3 x S3 is a D-group with A = C3, B = C6.

Two independent recognizers are provided: a spectral one (count the
components of the graph) and a structural one, ``dgroup_witness``, for
any kind of group.  It applies the direct-product rule once over the
group's factors.  A structured leaf K x| T answers off its tree, from
|G'| = |[K, T]|, |Z| and its class sizes; a permutation group rejects
more than three class sizes, exhibits A = G', checks that it is abelian,
and takes B = C_G(x) for an element x whose class has size |A|: B has
order |G|/|A|, meets A trivially when no nontrivial element of A
commutes with x, and the class sizes must be the predicted ones.  The
block-square verifier combines them: a group whose graph is a block
square must split, up to central Sylow factors, as a direct product of
two coprime D-groups, one per non-adjacent block pair.  It takes the core
and both parts with ``pi_subgroup`` on any kind of group: a
:class:`~classgraph.construction.DirectProduct` takes its factors', and a
structured leaf, never enumerated, answers off its construction tree.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

from .blocks import BlockPartition, find_block_partitions
from .construction import Group, MetabelianGroup
from .errors import DecompositionFailure
from .graph import PrimeGraph
from .primes import valuation

VERIFIED = "VERIFIED"
COUNTEREXAMPLE_CANDIDATE = "COUNTEREXAMPLE_CANDIDATE"
NOT_BLOCK_SQUARE = "not a block square"


@dataclass(frozen=True)
class DGroupWitness:
    """Certificate that a group is a D-group, with the decomposition orders."""

    a_order: int
    b_order: int
    center_order: int
    class_sizes: frozenset[int]

    def to_json_obj(self) -> dict:
        return {
            "a_order": self.a_order,
            "b_order": self.b_order,
            "center_order": self.center_order,
            "class_sizes": sorted(self.class_sizes),
        }


@dataclass(frozen=True)
class CentralSplit:
    """G written as (core) x (central Hall part), prime set by prime set."""

    central_primes: tuple[int, ...]
    core: Group


@dataclass(frozen=True)
class DecompositionWitness:
    """Certificate aligning a block partition with a product of two D-groups."""

    central_primes: tuple[int, ...]
    a_order: int
    b_order: int
    a_witness: DGroupWitness
    b_witness: DGroupWitness
    partition: BlockPartition

    def to_json_obj(self) -> dict:
        return {
            "central_primes": list(self.central_primes),
            "a_order": self.a_order,
            "b_order": self.b_order,
            "a": self.a_witness.to_json_obj(),
            "b": self.b_witness.to_json_obj(),
            "partition": self.partition.to_json_obj(),
        }


@dataclass(frozen=True)
class DecompositionReport:
    status: str
    spectrum: Counter[int]
    graph: PrimeGraph
    partitions: tuple[BlockPartition, ...]
    witness: DecompositionWitness | None


# -- structural recognizer -------------------------------------------------------


def dgroup_witness(group: Group) -> DGroupWitness | None:
    """Structural D-group recognizer, for any kind of group.

    A direct product (``group.factors``) has as class sizes the products of
    one size from each factor.  With two nonabelian factors, a size above 1
    of one times any of the other joins each prime of either to each of the
    other's, so Δ is connected.  If one factor F is nonabelian and the
    product R of the others abelian, G = F x R has F's class sizes, G' = F'
    and Z(G) = Z(F) x R: G is a D-group exactly when F is, with F's
    witness, |B| and |Z| multiplied by |R|.  No nonabelian factor: abelian.

    A structured leaf K x| T answers off its tree.  [K, T] is spanned by
    the generators' (1 - u_i)K, as 1 - w(st) = (1 - w(s)) + w(s)(1 - w(t)):
    on kernel factor j it is gcd(m_j, g_j)Z_{m_j}, g_j = gcd_i(u_ij - 1).
    G/[K, T] = K/[K, T] x T is abelian, so G' = [K, T].  With |Z| the
    count of size-1 classes and b = |G|/(|G'||Z|), G is a D-group iff
    |G'| > 1, gcd(|G'|, b) = 1 and the sizes are {1, |G'|, b}; the witness
    is (|G'|, |G|/|G'|, |Z|).  If so, an x of class size |G'| has
    |C_G(x)| = |G|/|G'|, and C_G(x) holds Z and x, not in Z: b = |C_G(x):Z|
    > 1.  No size has primes of both |G'| and b, so Δ is disconnected.
    Conversely, in a D-group G/A = B is abelian, so G' <= A; for y in B
    outside Z, a -> [a, y] is injective on A (B/Z acts fixed-point-freely
    on A = AZ/Z), hence onto, and A <= G'.  So |A| = |G'|, |B:Z| = b, and
    |A| and |B:Z| are coprime, as Δ is disconnected.

    On a permutation group, the classes come first: a D-group has the three
    class sizes {1, |A|, |B:Z|}, so a group with more is rejected before
    any subgroup is walked.  A is the derived subgroup, which must be
    nontrivial and abelian.  B is C_G(x) for the representative x of the
    first class of size |A|; it is never enumerated.  By orbit-stabilizer
    |B| = |G|/|x^G| = |G|/|A|, and A meets B trivially exactly when no
    nontrivial element of A commutes with x.  Then B is abelian: B meets
    A = G' trivially, so G -> G/G' is injective on B, and G/G' is abelian.
    In a D-group, G/Z is Frobenius with kernel AZ/Z and abelian complement
    B/Z, and this B is always a complement:

    - for x in B outside Z, C_G(x) = B, so the class of x has size |A|;
    - a non-central element of AZ has class size |B:Z|, coprime to |A|
      and above 1, so never |A|;
    - every element of G/Z lies in the kernel or in a conjugate of the
      complement, so x lies in some B^g and C_G(x) = B^g.

    Conversely, B abelian, A and B meeting trivially and the class sizes
    {1, |A|, |B:Z|} make G a D-group.  Z <= C_G(x) = B, and |A||B| = |G|
    gives G = AB.  For a nontrivial a in A, a is not central (A meets
    B >= Z trivially), and its class is its B-orbit inside A minus 1, of
    size neither 1 nor |A|.  So that size is |B:Z|, and C_B(a), which
    contains Z, is Z: G/Z is Frobenius.
    """
    nonabelian = [f for f in group.factors or (group,) if not f.is_abelian]
    if len(nonabelian) != 1:
        return None
    f = nonabelian[0]
    if f is not group:
        w = dgroup_witness(f)
        if w is None:
            return None
        r = group.order // f.order
        return replace(w, b_order=w.b_order * r, center_order=w.center_order * r)
    spectrum = group.class_size_spectrum()
    if len(spectrum) > 3:  # more sizes than {1, |A|, |B:Z|}, read before G' is walked
        return None
    center_order = spectrum[1]  # the size-1 classes are the central elements
    if isinstance(group, MetabelianGroup):
        gcds = map(math.gcd, group.kernel, *[[u - 1 for u in row] for row in group.multipliers])
        a_order = math.prod(group.kernel) // math.prod(gcds)  # gcd(m_j, g_j) divides m_j
        if a_order == 1 or math.gcd(a_order, group.order // (a_order * center_order)) != 1:
            return None
    else:
        a = group.derived_subgroup()
        if a.order == 1 or not a.is_abelian:
            return None
        x = next((c.representative for c in group.conjugacy_classes() if c.size == a.order), None)
        if x is None or not a.meets_centralizer_trivially(x):
            return None
        a_order = a.order
    b_order = group.order // a_order
    sizes = frozenset(spectrum)
    if sizes != frozenset({1, a_order, b_order // center_order}):
        return None
    return DGroupWitness(a_order, b_order, center_order, sizes)


# perfbench/layers.py imports this name; ROADMAP item 8 deletes it.
structural_dgroup_witness = dgroup_witness


# -- central stripping ---------------------------------------------------------


def strip_central_sylows(group: Group) -> CentralSplit:
    """Split off the primes whose full Sylow subgroup is central.

    The remaining core is the subgroup of elements whose orders avoid the
    central primes (G itself when no prime is central); those elements
    must form a subgroup, and together with the central Hall part it
    multiplies back to |G|.
    """
    return _central_split(group, group.class_size_spectrum()[1])


def _central_split(group: Group, center_order: int) -> CentralSplit:
    """``strip_central_sylows`` with |Z(G)|, the count of size-1 classes, given."""
    order = group.order
    sylow_orders = {p: p ** valuation(order, p) for p in group.primes if center_order % p == 0}
    central = tuple(p for p, q in sylow_orders.items() if center_order % q == 0)
    core = group.pi_subgroup(set(group.primes).difference(central))
    if core is None:
        raise DecompositionFailure("elements of non-central order do not form a subgroup")
    central_part = math.prod(sylow_orders[p] for p in central)
    if core.order * central_part != order:
        raise DecompositionFailure(
            f"core order {core.order} times central part {central_part} "
            f"is not the group order {order}"
        )
    return CentralSplit(central, core)


# -- block-square decomposition verifier ---------------------------------------


def verify_decomposition(
    group: Group,
    *,
    spectrum: Counter[int] | None = None,
    graph: PrimeGraph | None = None,
    partitions: tuple[BlockPartition, ...] | None = None,
) -> DecompositionReport:
    """Check that a block-square graph forces the predicted product structure.

    When the graph is a block square, the group must split (after removing
    the central Sylow subgroups, read off |Z(G)| = ``spectrum[1]``) as A x B
    of D-groups of coprime orders on the non-adjacent block pairs: VERIFIED
    when a witness is found, COUNTEREXAMPLE_CANDIDATE (never expected) when
    not.  Conversely, two nonabelian ``group.factors`` of coprime orders,
    each with Δ disconnected, must yield a block square, so an empty
    partition list is also flagged for them.
    """
    if spectrum is None:
        spectrum = group.class_size_spectrum()
    if graph is None:
        graph = group.delta()
    if partitions is None:
        partitions = tuple(find_block_partitions(graph))
    if not partitions:
        nonabelian = [f for f in group.factors if not f.is_abelian]
        coprime_pair = len(nonabelian) == 2 and math.gcd(*(f.order for f in nonabelian)) == 1
        declared = coprime_pair and not any(f.delta().is_connected() for f in nonabelian)
        status = COUNTEREXAMPLE_CANDIDATE if declared else NOT_BLOCK_SQUARE
        return DecompositionReport(status, spectrum, graph, partitions, None)
    central = _central_split(group, spectrum[1])
    for partition in partitions:
        a = central.core.pi_subgroup({*partition.pi1, *partition.pi4})
        b = central.core.pi_subgroup({*partition.pi2, *partition.pi3})
        if a is None or b is None:
            continue
        if a.order * b.order != central.core.order or math.gcd(a.order, b.order) != 1:
            continue
        wa, wb = dgroup_witness(a), dgroup_witness(b)
        if wa is None or wb is None:
            continue
        witness = DecompositionWitness(central.central_primes, a.order, b.order, wa, wb, partition)
        return DecompositionReport(VERIFIED, spectrum, graph, partitions, witness)
    return DecompositionReport(COUNTEREXAMPLE_CANDIDATE, spectrum, graph, partitions, None)
