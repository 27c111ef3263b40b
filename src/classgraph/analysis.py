"""Structure recognition: D-groups, central stripping, block-square splitting.

A D-group is a group whose class-size prime graph is disconnected.  By
Bertram, Herzog and Mann these are the groups G = AB with A normal
abelian, B abelian, A and B meeting trivially, Z(G) <= B, and G/Z(G)
Frobenius with kernel AZ(G)/Z(G); their class sizes are {1, |A|, |B:Z(G)|}.
|Z(G)| may share primes with |A|: C3 x S3 is a D-group with A = C3, B = C6.

Two independent recognizers are provided: a spectral one (count the
components of the graph) and a structural one (exhibit A = G' and B, the
centralizer of an element whose class has size |A|, and check that they
are abelian, meet trivially and give the predicted class sizes).  The
block-square verifier combines them: a group whose graph is a block
square must split, up to central Sylow factors, as a direct product of
two coprime D-groups, one per non-adjacent block pair.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .blocks import BlockPartition, find_block_partitions
from .construction import MetabelianGroup
from .errors import DecompositionFailure
from .graph import PrimeGraph, delta_of
from .perm import PermGroup
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
    core: PermGroup


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


# -- structural recognizer, permutation route --------------------------------


def dgroup_witness(group: PermGroup) -> DGroupWitness | None:
    """Structural D-group recognizer on an enumerated permutation group.

    A is the derived subgroup, which must be nontrivial and abelian.  B is
    C_G(x) for the representative x of the first class of size |A|, so
    |B| = |G|/|A|.  In a D-group, G/Z is Frobenius with kernel AZ/Z and
    abelian complement B/Z, and this B is always a complement:

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
    a = group.derived_subgroup()
    if a.order == 1 or not a.is_abelian():
        return None
    x = next((c.representative for c in group.conjugacy_classes() if c.size == a.order), None)
    if x is None:
        return None
    b = group.centralizer(x)
    if not b.is_abelian() or any(y in b for y in a.elements() if not y.is_identity()):
        return None
    spectrum = group.class_size_spectrum()
    center_order = spectrum[1]  # the size-1 classes are the central elements
    sizes = frozenset(spectrum)
    if sizes != frozenset({1, a.order, b.order // center_order}):
        return None
    return DGroupWitness(
        a_order=a.order,
        b_order=b.order,
        center_order=center_order,
        class_sizes=sizes,
    )


# -- structural recognizer, construction route --------------------------------

_UNDECIDED = object()


_Split = tuple[list[MetabelianGroup], list[MetabelianGroup]]


def _structural_parts(group: MetabelianGroup | PermGroup) -> _Split | None:
    """Split a structured group into (abelian parts, Frobenius parts).

    Returns None for a permutation group, which carries no construction
    structure, and when some part is neither abelian nor Frobenius: those
    groups take the permutation route.
    """
    if not isinstance(group, MetabelianGroup):
        return None
    parts = group.factors if group.factors else (group,)
    abelian = [p for p in parts if p.is_abelian]
    frobenius = [p for p in parts if not p.is_abelian and p.frobenius]
    if len(abelian) + len(frobenius) != len(parts):
        return None
    return abelian, frobenius


def structural_dgroup_witness(g: MetabelianGroup):
    """D-group decision from construction structure, without enumerating.

    Returns a DGroupWitness, None (definitely not a D-group), or the
    _UNDECIDED sentinel when the structure does not determine the answer.
    """
    split = _structural_parts(g)
    return _UNDECIDED if split is None else _witness_from_parts(split)


def _witness_from_parts(split: _Split) -> DGroupWitness | None:
    abelian, frobenius = split
    if len(frobenius) != 1:
        return None
    frob = frobenius[0]
    central = math.prod(p.order for p in abelian)
    kernel_order = math.prod(frob.kernel)
    complement = math.prod(frob.top)
    return DGroupWitness(
        a_order=kernel_order,
        b_order=complement * central,
        center_order=central,
        class_sizes=frozenset({1, kernel_order, complement}),
    )


def dgroup_witness_of(group: MetabelianGroup | PermGroup) -> DGroupWitness | None:
    """Structural decision when the structure allows, else enumerate."""
    split = _structural_parts(group)
    if split is None:
        return dgroup_witness(group.to_permutation())
    return _witness_from_parts(split)


# -- central stripping ---------------------------------------------------------


def strip_central_sylows(group: PermGroup) -> CentralSplit:
    """Split off the primes whose full Sylow subgroup is central.

    The remaining core is the subgroup of elements whose orders avoid the
    central primes (G itself when no prime is central); those elements
    must form a subgroup, and together with the central Hall part it
    multiplies back to |G|.
    """
    order = group.order
    sylow_orders = {p: p ** valuation(order, p) for p in group.primes}
    center_order = group.class_size_spectrum()[1]
    central = tuple(p for p, q in sylow_orders.items() if center_order % q == 0)
    core = group.pi_subgroup(frozenset(group.primes) - frozenset(central))
    if core is None:
        raise DecompositionFailure(
            "elements of non-central order do not form a subgroup"
        )
    central_part = math.prod(sylow_orders[p] for p in central)
    if core.order * central_part != order:
        raise DecompositionFailure(
            f"core order {core.order} times central part {central_part} "
            f"is not the group order {order}"
        )
    return CentralSplit(central, core)


# -- block-square decomposition verifier ---------------------------------------


def _structural_decomposition(
    split: _Split, partitions: tuple[BlockPartition, ...]
) -> DecompositionWitness | None:
    abelian, frobenius = split
    if len(frobenius) != 2:
        return None
    fa, fb = frobenius
    if math.gcd(fa.order, fb.order) != 1:
        return None
    central_primes: set[int] = set()
    for part in abelian:
        central_primes.update(part.primes)
    for partition in partitions:
        sigma_a = frozenset(partition.pi1) | frozenset(partition.pi4)
        sigma_b = frozenset(partition.pi2) | frozenset(partition.pi3)
        for first, second in ((fa, fb), (fb, fa)):
            if (
                frozenset(first.primes) == sigma_a
                and frozenset(second.primes) == sigma_b
            ):
                wa = _witness_from_parts(([], [first]))
                wb = _witness_from_parts(([], [second]))
                assert wa is not None and wb is not None
                return DecompositionWitness(
                    central_primes=tuple(sorted(central_primes)),
                    a_order=first.order,
                    b_order=second.order,
                    a_witness=wa,
                    b_witness=wb,
                    partition=partition,
                )
    return None


def _permutation_decomposition(
    group: PermGroup, partitions: tuple[BlockPartition, ...]
) -> DecompositionWitness | None:
    split = strip_central_sylows(group)
    core = split.core
    core_order = core.order
    for partition in partitions:
        sigma_a = frozenset(partition.pi1) | frozenset(partition.pi4)
        sigma_b = frozenset(partition.pi2) | frozenset(partition.pi3)
        a_group = core.pi_subgroup(sigma_a)
        b_group = core.pi_subgroup(sigma_b)
        if a_group is None or b_group is None:
            continue
        a_order = a_group.order
        b_order = b_group.order
        if a_order * b_order != core_order or math.gcd(a_order, b_order) != 1:
            continue
        wa = dgroup_witness(a_group)
        wb = dgroup_witness(b_group)
        if wa is None or wb is None:
            continue
        return DecompositionWitness(
            central_primes=split.central_primes,
            a_order=a_order,
            b_order=b_order,
            a_witness=wa,
            b_witness=wb,
            partition=partition,
        )
    return None


def verify_decomposition(
    group: MetabelianGroup | PermGroup,
    *,
    spectrum: Counter[int] | None = None,
    graph: PrimeGraph | None = None,
    partitions: tuple[BlockPartition, ...] | None = None,
) -> DecompositionReport:
    """Check that a block-square graph forces the predicted product structure.

    When the graph is a block square, the group must split (after removing
    central Sylow subgroups) as A x B with A, B D-groups of coprime orders
    whose prime sets match the non-adjacent block pairs; the report status
    is VERIFIED when a witness is found and COUNTEREXAMPLE_CANDIDATE when
    not (the latter is never expected).  Conversely, a group built as a
    coprime product of two D-groups must yield a block square, so an empty
    partition list is also flagged for those inputs.
    """
    if spectrum is None:
        spectrum = group.class_size_spectrum()
    if graph is None:
        graph = delta_of(spectrum, primes=group.primes)
    if partitions is None:
        partitions = tuple(find_block_partitions(graph))
    split = _structural_parts(group)
    if not partitions:
        declared_product = split is not None and len(split[1]) == 2
        status = COUNTEREXAMPLE_CANDIDATE if declared_product else NOT_BLOCK_SQUARE
        return DecompositionReport(status, spectrum, graph, partitions, None)
    if split is not None:
        witness = _structural_decomposition(split, partitions)
    else:
        witness = _permutation_decomposition(group.to_permutation(), partitions)
    status = VERIFIED if witness is not None else COUNTEREXAMPLE_CANDIDATE
    return DecompositionReport(status, spectrum, graph, partitions, witness)
