from __future__ import annotations

import json
import math
import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classgraph import (
    Abelian,
    CapExceeded,
    CoprimalityViolation,
    Cyclic,
    Direct,
    DirectProduct,
    ExprError,
    Frobenius,
    InvalidMultiplier,
    MetabelianGroup,
    Perm,
    PermGroup,
    Permutation,
    PrimeGraph,
    Semidirect,
    class_size_spectrum,
    convolve_spectra,
    delta_of,
    dgroup_witness,
    evaluate,
    is_frobenius_action,
    parse_spec_text,
    symmetric_group,
    to_permutation,
)
from classgraph.construction import auto_multiplier
from classgraph.primes import prime_factors
from classgraph.reports import analyze_expr
from corpus import S3_PERM, S4_PERM, corpus_entries, random_perm_groups
from oracles import (
    auto_multiplier_by_scan,
    centralizer_by_scan,
    dgroup_witness_by_centralizer,
    fixed_point_free_by_scan,
    full_scan_class_sizes,
    pairwise_centralizers_central,
    pairwise_is_abelian,
    semidirect_class_sizes,
    sieve_primes,
)


# -- evaluate -----------------------------------------------------------------


def test_evaluate_cyclic6():
    g = evaluate(Cyclic(6))
    assert isinstance(g, MetabelianGroup)
    assert g.order == 6
    assert g.is_abelian


def test_evaluate_frobenius_auto_multiplier_policy():
    g = evaluate(Frobenius((7,), 3))
    # 2**((7 - 1) / 3) = 4 has order 3 mod 7, so u = 2 gives the multiplier.
    assert g.multipliers == ((4,),)
    assert auto_multiplier(7, 3, prime_factors(3)) == 4
    # 2**2 = 4 has order 5 mod 11 (3 is the smallest unit of that order).
    assert auto_multiplier(11, 5, prime_factors(5)) == 4
    # 2**3 = 1 mod 7, so u = 3 gives 3**3 = 6, the unit of order 2.
    assert auto_multiplier(7, 2, prime_factors(2)) == 6
    # 2**10 = 1 mod 31, so u = 3 gives 3**10 = 25 (5 is the smallest of order 3).
    assert auto_multiplier(31, 3, prime_factors(3)) == 25


def test_evaluate_frobenius_bad_multiplier():
    with pytest.raises(InvalidMultiplier, match="3 mod 7 has order not dividing top order 3"):
        evaluate(Frobenius((7,), 3, multipliers=(3,)))


def test_evaluate_frobenius_explicit_valid_multiplier():
    g = evaluate(Frobenius((7,), 3, multipliers=(4,)))
    assert g.frobenius
    assert sorted(class_size_spectrum(g).elements()) == [1, 3, 3, 7, 7]


def test_evaluate_frobenius_no_unit_of_right_order():
    with pytest.raises(InvalidMultiplier, match="does not divide"):
        evaluate(Frobenius((7,), 5))


def test_evaluate_frobenius_rejects_shared_prime():
    with pytest.raises(CoprimalityViolation):
        evaluate(Frobenius((3, 7), 3))


def test_evaluate_frobenius_rejects_repeated_or_composite_kernel():
    with pytest.raises(ExprError):
        evaluate(Frobenius((7, 7), 3))
    with pytest.raises(ExprError):
        evaluate(Frobenius((9,), 3))


def test_evaluate_semidirect_validation():
    g = evaluate(Semidirect((7,), (9,), ((2,),)))
    assert g.order == 63
    assert not g.frobenius
    with pytest.raises(InvalidMultiplier):
        evaluate(Semidirect((7,), (9,), ((3,),)))  # order 6 does not divide 9
    with pytest.raises(InvalidMultiplier):
        evaluate(Semidirect((9,), (3,), ((3,),)))  # 3 is not a unit mod 9


def test_evaluate_deterministic():
    a = evaluate(Frobenius((7, 13), 3))
    b = evaluate(Frobenius((7, 13), 3))
    assert a == b


def test_evaluate_direct_coprime_folds():
    # The children fold into one product that keeps them as its factors.
    f21, f55 = evaluate(Frobenius((7,), 3)), evaluate(Frobenius((11,), 5))
    g = evaluate(Direct((Frobenius((7,), 3), Frobenius((11,), 5))))
    assert isinstance(g, DirectProduct)
    assert g.factors == (f21, f55)
    assert g.order == 1155
    assert g.primes == (3, 5, 7, 11)
    assert not g.is_abelian


def test_evaluate_direct_non_coprime_goes_through_permutations():
    # A shared prime makes no other type: only the realization of the
    # product is a permutation group, and it answers as the product does.
    g = evaluate(Direct((Frobenius((7,), 3), Cyclic(3))))
    assert isinstance(g, DirectProduct)
    assert g.order == 63 and g.primes == (3, 7)
    perm = g.to_permutation()
    assert isinstance(perm, PermGroup) and perm.degree == 13
    assert g.class_size_spectrum() == perm.class_size_spectrum() == {1: 3, 3: 6, 7: 6}
    assert g.delta() == perm.delta()
    assert dgroup_witness(g) == dgroup_witness(perm)


def test_evaluate_direct_with_perm_child():
    g = evaluate(Direct((S3_PERM, Cyclic(2))))
    assert isinstance(g, DirectProduct)
    assert [type(f) for f in g.factors] == [PermGroup, MetabelianGroup]
    assert g.order == 12
    # A perm child whose generators split joins the product as its own factors.
    split = Perm(5, ((1, 2, 0, 3, 4), (0, 1, 2, 4, 3)))
    g = evaluate(Direct((split, Cyclic(5))))
    assert [f.order for f in g.factors] == [3, 2, 5]
    # Nested products flatten into one.
    nested = evaluate(Direct((Direct((S3_PERM, Cyclic(2))), Frobenius((7,), 3))))
    assert [f.order for f in nested.factors] == [6, 2, 21]


def test_evaluate_trivial_and_nested():
    assert evaluate(Cyclic(1)).order == 1
    assert evaluate(Abelian((2, 3))).order == 6
    nested = evaluate(Direct((Direct((Frobenius((7,), 3), Cyclic(5))), Frobenius((11,), 2))))
    assert nested.order == 21 * 5 * 22


def test_evaluate_perm_node():
    g = evaluate(Perm(degree=3, generators=((1, 2, 0),)))
    assert isinstance(g, PermGroup)
    assert g.order == 3


# -- is_frobenius_action ---------------------------------------------------------


def test_trivial_action_is_not_frobenius():
    g = evaluate(Abelian((6,)))
    assert not is_frobenius_action(g)


def test_f21_action_is_frobenius():
    assert is_frobenius_action(evaluate(Frobenius((7,), 3)))


def test_partially_trivial_action_is_not_frobenius():
    g = evaluate(Semidirect((7, 13), (3,), ((2, 1),)))
    assert not is_frobenius_action(g)


def test_non_prime_kernel_fixed_points():
    # x -> 4x on Z9 fixes 3 and 6: gcd(4 - 1, 9) != 1.
    g = evaluate(Semidirect((9,), (3,), ((4,),)))
    assert not is_frobenius_action(g)


# Shapes beyond one top factor on prime kernel factors: (kernel, top, multipliers, Frobenius?).
_GENERAL_LOOP_SHAPES = [
    ((9,), (2,), ((8,),), True),  # x -> -x on Z9
    ((9,), (3,), ((4,),), False),  # x -> 4x fixes 3 and 6
    ((5, 9), (2,), ((4, 8),), True),
    ((7,), (2, 3), ((6,), (2,)), True),  # Z2 x Z3 = Z6 acting faithfully
    ((7,), (3, 3), ((2,), (4,)), False),  # (1, 1) acts by 8 = 1 mod 7
    ((7, 13), (2, 3), ((6, 12), (2, 3)), True),
]


def test_frobenius_action_general_loop_agrees_with_fixed_point_scan():
    for kernel, top, multipliers, expected in _GENERAL_LOOP_SHAPES:
        g = evaluate(Semidirect(kernel, top, multipliers))
        assert is_frobenius_action(g) == expected, kernel
        assert fixed_point_free_by_scan(g) == expected, kernel


def _order_mod(u: int, q: int) -> int:
    k, x = 1, u % q
    while x != 1:
        k, x = k + 1, x * u % q
    return k


@st.composite
def semidirect_nodes(draw):
    """Semidirect nodes with one or two top factors, coprime or not, on prime-power kernels.

    Half the multipliers, where some exist, have order exactly the top
    factor's modulo every prime of their kernel factor, so fixed-point-free
    actions and non-cyclic tops with such multipliers both occur.
    """
    kernel = tuple(
        draw(st.lists(st.sampled_from((3, 4, 5, 7, 8, 9, 13, 25, 27)), min_size=1, max_size=2))
    )
    top = tuple(draw(st.lists(st.sampled_from((2, 3, 4, 6)), min_size=1, max_size=2)))
    rows = []
    for n in top:
        row = []
        for m in kernel:
            units = [u for u in range(1, m) if math.gcd(u, m) == 1 and pow(u, n, m) == 1]
            primes = [q for q in sieve_primes(m) if m % q == 0]
            exact = [u for u in units if all(_order_mod(u, q) == n for q in primes)]
            row.append(draw(st.sampled_from(exact if exact and draw(st.booleans()) else units)))
        rows.append(tuple(row))
    return Semidirect(kernel, top, tuple(rows))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(semidirect_nodes())
@example(Semidirect((7,), (3, 3), ((2,), (4,))))  # exact orders on a non-cyclic top
@example(Semidirect((13,), (3, 4), ((3,), (5,))))  # Z3 x Z4 = Z12 acting faithfully
@example(Semidirect((5, 25), (4,), ((2, 7),)))  # 7 = 2 mod 5 has order 4
@example(Semidirect((25, 7), (2,), ((24, 6),)))
def test_frobenius_action_agrees_with_fixed_point_scan(node):
    g = evaluate(node)
    assert is_frobenius_action(g) == fixed_point_free_by_scan(g), node


# -- spectra ------------------------------------------------------------------------


def test_spectrum_z6():
    assert dict(class_size_spectrum(evaluate(Cyclic(6)))) == {1: 6}


def test_spectrum_f21():
    assert sorted(class_size_spectrum(evaluate(Frobenius((7,), 3))).elements()) == [
        1,
        3,
        3,
        7,
        7,
    ]


def test_spectrum_f273_three_class_sizes():
    spectrum = class_size_spectrum(evaluate(Frobenius((7, 13), 3)))
    assert dict(spectrum) == {1: 1, 3: 30, 91: 2}


def test_spectrum_product_size_set():
    g = evaluate(Direct((Frobenius((7,), 3), Frobenius((11,), 5))))
    assert set(class_size_spectrum(g)) == {1, 3, 7, 5, 11, 15, 35, 33, 77}


def test_three_class_size_law_for_frobenius_nodes():
    for kernel, n in [((7,), 3), ((11,), 5), ((5,), 2), ((7, 13), 3), ((7, 13), 6)]:
        g = evaluate(Frobenius(kernel, n))
        kernel_order = math.prod(g.kernel)
        expected = {1: 1, n: (kernel_order - 1) // n, kernel_order: n - 1}
        assert dict(class_size_spectrum(g)) == expected


def test_fixed_point_free_semidirect_is_frobenius():
    # The multipliers a frobenius node picks: 2**2 mod 7 and 2**4 mod 13.
    assert (auto_multiplier_by_scan(7, 3), auto_multiplier_by_scan(13, 3)) == (4, 3)
    g = evaluate(Semidirect((7, 13), (3,), ((4, 3),)))
    assert g.frobenius
    assert g == evaluate(Frobenius((7, 13), 3))
    assert g != evaluate(Semidirect((7, 13), (3,), ((2, 3),)))
    assert dict(g.class_size_spectrum()) == {1: 1, 3: 30, 91: 2}
    # Fixed points on the Z9 factor: 4 - 1 = 3 is not a unit mod 9.
    assert not evaluate(Semidirect((9,), (3,), ((4,),))).frobenius


def test_auto_multiplier_matches_order_definition():
    from classgraph.primes import sieve

    for p in sieve(3000)[1:]:
        for n in range(2, p):
            if (p - 1) % n == 0:
                assert auto_multiplier(p, n, prime_factors(n)) == auto_multiplier_by_scan(p, n), (p, n)


@st.composite
def auto_frobenius_nodes(draw):
    """Frobenius nodes with automatic multipliers: 1-3 kernel primes = 1 mod the complement."""
    n = draw(st.integers(min_value=2, max_value=40))
    primes = [p for p in sieve_primes(2000) if p % n == 1]
    kernel = draw(st.lists(st.sampled_from(primes), min_size=1, max_size=3, unique=True))
    return Frobenius(tuple(kernel), n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(auto_frobenius_nodes())
def test_seeded_frobenius_flag_is_the_closed_form_test(node):
    g = evaluate(node)
    assert g.__dict__["frobenius"] is True  # seeded by evaluate, not computed
    assert is_frobenius_action(g)
    n_primes = prime_factors(node.complement)
    for p, u in zip(node.kernel, g.multipliers[0]):
        assert u == auto_multiplier(p, node.complement, n_primes) == auto_multiplier_by_scan(
            p, node.complement
        )
    if g.order <= 2000:
        assert fixed_point_free_by_scan(g)


def test_explicit_multiplier_of_smaller_order_is_not_frobenius():
    # 2 has order 3 mod 7, so the top's element of order 2 centralizes the
    # kernel: no seed, and the spectrum comes from the realization.
    g = evaluate(Frobenius((7,), 6, (2,)))
    assert "frobenius" not in g.__dict__
    assert not g.frobenius and not is_frobenius_action(g)
    assert dict(g.class_size_spectrum()) == {1: 2, 3: 4, 7: 4}
    assert "_realization" in g.__dict__
    assert g.class_size_spectrum() == g.to_permutation().class_size_spectrum()


def test_frobenius_node_on_a_large_kernel_prime_is_analyzed_at_once():
    # The only unit of order 2 is p - 1: a scan of the units u = 2, 3, ...
    # meets it last, while u**((p - 1) / 2) gives it at the first non-residue.
    assert auto_multiplier(1_000_000_007, 2, prime_factors(2)) == 1_000_000_006
    spec = {"name": "big", "construct": {"op": "frobenius", "kernel": [1000000007], "complement": 2}}
    name, expr = parse_spec_text(json.dumps(spec))
    start = time.perf_counter()
    report = analyze_expr(name, expr)
    assert time.perf_counter() - start < 1.0
    assert report["spectrum"] == [[1, 1], [2, 500_000_003], [1_000_000_007, 1]]


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(st.integers(1, 50), st.integers(1, 5), min_size=1, max_size=6),
    st.dictionaries(st.integers(1, 50), st.integers(1, 5), min_size=1, max_size=6),
)
def test_convolution_is_commutative_and_sums_multiply(a, b):
    from collections import Counter

    ca, cb = Counter(a), Counter(b)
    prod = convolve_spectra(ca, cb)
    assert prod == convolve_spectra(cb, ca)
    assert sum(prod.values()) == sum(ca.values()) * sum(cb.values())


@st.composite
def small_semidirect_groups(draw, kernels=(3, 5, 7, 9), tops=(2, 3, 4, 6), max_kernel=2):
    kernel = draw(st.lists(st.sampled_from(kernels), min_size=1, max_size=max_kernel))
    top_order = draw(st.sampled_from(tops))
    mults = []
    for m in kernel:
        units = [
            u
            for u in range(1, m)
            if math.gcd(u, m) == 1 and pow(u, top_order, m) == 1
        ]
        mults.append(draw(st.sampled_from(units)))
    return evaluate(Semidirect(tuple(kernel), (top_order,), (tuple(mults),)))


@settings(max_examples=20, deadline=None)
@given(small_semidirect_groups())
def test_metabelian_spectrum_sums_to_order(g):
    spectrum = class_size_spectrum(g)
    assert sum(s * c for s, c in spectrum.items()) == g.order
    assert spectrum[1] >= 1


@st.composite
def coprime_semidirect_products(draw, max_kernel=2):
    """A x B for two small semidirect groups whose orders share no prime."""
    a = draw(small_semidirect_groups(kernels=(5,), tops=(2, 4), max_kernel=1))
    b = draw(small_semidirect_groups(kernels=(7,), tops=(3,), max_kernel=max_kernel))
    return evaluate(Direct((_as_expr(a), _as_expr(b))))


def _parts(g: MetabelianGroup):
    """Kernel orders, top orders and multipliers: a semidirect node's fields."""
    return g.kernel, g.top, g.multipliers


def _as_expr(g: MetabelianGroup) -> Semidirect:
    return Semidirect(*_parts(g))


def _witness_json(witness):
    return None if witness is None else witness.to_json_obj()


def _assert_routes_agree(g):
    perm = g.to_permutation()
    assert _witness_json(dgroup_witness(g)) == _witness_json(dgroup_witness(perm))
    spectrum = g.class_size_spectrum()
    assert spectrum == perm.class_size_spectrum()
    # A non-Frobenius group reads its spectrum off `perm`, so only the
    # oracle's own arithmetic checks that realization, factor by factor.
    for part in g.factors or (g,):
        assert part.class_size_spectrum() == semidirect_class_sizes(*_parts(part))


@settings(max_examples=30, deadline=None)
@given(small_semidirect_groups())
def test_structured_and_permutation_routes_agree(g):
    _assert_routes_agree(g)


@settings(max_examples=15, deadline=None)
@given(coprime_semidirect_products())
def test_structured_and_permutation_routes_agree_on_coprime_products(g):
    assert isinstance(g, DirectProduct) and len(g.factors) == 2
    _assert_routes_agree(g)


def small_perm_groups():
    """Semidirect groups, coprime products of two, and S4/S5, as permutation groups."""
    return st.one_of(
        small_semidirect_groups().map(to_permutation),
        # Orders up to 420: the oracles below are quadratic in the group order.
        coprime_semidirect_products(max_kernel=1).map(to_permutation),
        st.sampled_from([evaluate(S4_PERM), symmetric_group(5)]),
    )


def f21_times_c3_power(k: int) -> PermGroup:
    """F21 x C3^k as a permutation group; the shared prime 3 forces the permutation route."""
    f21 = Frobenius((7,), 3)
    return to_permutation(evaluate(Direct((f21, Abelian((3,) * k))) if k else f21))


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_perm_groups(), st.integers(0, 3).map(f21_times_c3_power)))
@example(f21_times_c3_power(3))
def test_dgroup_witness_exactly_when_delta_is_disconnected(group):
    # D-groups are exactly the groups with disconnected Delta, so the
    # structural recognizer must find its complement whenever the spectral
    # one says yes, overlap products such as F21 x C3^3 included.
    disconnected = not delta_of(group.class_size_spectrum()).is_connected()
    assert (dgroup_witness(group) is not None) == disconnected


@settings(max_examples=60, deadline=None)
@given(st.one_of(random_perm_groups(), small_perm_groups()))
def test_dgroup_witness_matches_the_scanned_centralizer_oracle(group):
    # dgroup_witness reads |B| off orbit-stabilizer and never enumerates
    # C_G(x); the oracle scans it and checks it is abelian.  Both must give
    # the same answer, None included.
    expected, b = dgroup_witness_by_centralizer(group)
    assert dgroup_witness(group) == expected
    if expected is not None:
        assert pairwise_is_abelian(b)
        assert len(b) == group.order // expected.a_order


def test_unchecked_graphs_equal_their_checked_copies():
    # delta() and delta_of build graphs without the public checks, from
    # vertices already known prime; each must be exactly what the checked
    # constructor would make, sorted vertices and ascending edges included.
    for entry in corpus_entries():
        group = evaluate(entry.expr)
        for graph in (group.delta(), delta_of(group.class_size_spectrum())):
            assert graph == PrimeGraph(graph.vertices, graph.edges), entry.name


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_semidirect_groups(), coprime_semidirect_products(), small_perm_groups()))
def test_group_primes_are_the_primes_of_the_order_and_give_the_same_delta(group):
    assert group.primes == prime_factors(group.order)
    spectrum = group.class_size_spectrum()
    assert delta_of(spectrum, primes=group.primes) == delta_of(spectrum)
    if isinstance(group, PermGroup):
        # A subgroup view finds its own primes, not its parent's.
        for p in group.primes:
            sub = group.pi_subgroup({p})
            if sub is not None:
                assert sub.primes == prime_factors(sub.order)


@st.composite
def groups_with_subgroup(draw):
    """A permutation group and the subgroup generated by one or two of its elements."""
    group = draw(small_perm_groups())
    elems = group.elements()
    picks = draw(st.lists(st.integers(0, len(elems) - 1), min_size=1, max_size=2))
    return group, PermGroup([elems[i] for i in picks])


@settings(max_examples=40, deadline=None)
@given(groups_with_subgroup())
def test_abelian_and_frobenius_checks_match_pairwise_oracles(case):
    group, sub = case
    derived = group.derived_subgroup()
    center = group.center()
    centralizer = PermGroup(sorted(centralizer_by_scan(group, max(sub.elements()))))
    for part in (sub, derived, center, centralizer):
        assert part.is_abelian == pairwise_is_abelian(part.elements())
    # G' holds the generators' commutators and is normal, by public products.
    gens = group.generators
    assert all(a.inverse() * b.inverse() * a * b in derived for a in gens for b in gens)
    assert all(g * d * g.inverse() in derived for g in gens for d in derived.elements())
    witness = dgroup_witness(group)
    if witness is not None:
        # The witness's B is the centralizer of the first class of size |A|.
        x = next(c.representative for c in group.conjugacy_classes() if c.size == derived.order)
        b_part = centralizer_by_scan(group, x)
        assert (witness.a_order, witness.b_order) == (derived.order, len(b_part))
        assert witness.center_order == center.order
        a_part, z_part = frozenset(derived.elements()), frozenset(center.elements())
        assert pairwise_centralizers_central(a_part, b_part, z_part)


def _is_closed_under_products(elements: list[Permutation]) -> bool:
    """A finite set is a subgroup iff it is closed under products; public products only."""
    members = set(elements)
    return all(x * y in members for x in elements for y in elements)


@settings(max_examples=25, deadline=None)
@given(small_perm_groups())
def test_pi_subgroup_matches_public_closure(group):
    primes = [p for p in sieve_primes(group.order) if group.order % p == 0]
    # Element orders divide the group order, so they factor over `primes`.
    primes_of = {x: {p for p in primes if x.order() % p == 0} for x in group.elements()}
    assert group.pi_subgroup(frozenset(primes)) is group
    for r in range(len(primes)):
        for sigma in combinations(primes, r):
            pi_elements = [x for x, ps in primes_of.items() if ps <= set(sigma)]
            sub = group.pi_subgroup(frozenset(sigma))
            if not _is_closed_under_products(pi_elements):
                assert sub is None, sigma
                continue
            assert sub is not None and set(sub.elements()) == set(pi_elements), sigma
            fresh = PermGroup(sub.generators)
            assert set(fresh.elements()) == set(pi_elements)
            assert sub.class_size_spectrum() == full_scan_class_sizes(fresh), sigma


# -- to_permutation --------------------------------------------------------------------


def test_to_permutation_cyclic5_regular():
    g = to_permutation(evaluate(Cyclic(5)))
    assert g.degree == 5
    assert g.order == 5


def test_to_permutation_f21():
    g = to_permutation(evaluate(Frobenius((7,), 3)))
    assert g.degree == 10
    assert g.order == 21


def test_to_permutation_product_degree():
    g = to_permutation(evaluate(Direct((Frobenius((7,), 3), Frobenius((11,), 5)))))
    assert g.degree == 26
    assert g.order == 1155


def test_to_permutation_preserves_order(corpus):
    for entry in corpus:
        if isinstance(entry.group, MetabelianGroup) and entry.order <= 2000:
            assert to_permutation(entry.group).order == entry.order


def test_module_functions_take_either_kind_of_group():
    for structured, perm in (
        (evaluate(Frobenius((7,), 3)), to_permutation(evaluate(Frobenius((7,), 3)))),
        (evaluate(Cyclic(6)), symmetric_group(3)),
    ):
        assert class_size_spectrum(structured) == structured.class_size_spectrum()
        assert class_size_spectrum(perm) == perm.class_size_spectrum()
        assert to_permutation(perm) is perm
        assert to_permutation(structured).order == structured.order
    assert dict(class_size_spectrum(symmetric_group(3))) == {1: 1, 2: 1, 3: 1}
    # Keyword arguments reach the group's own method.
    f21 = evaluate(Frobenius((7,), 3))
    assert to_permutation(f21, verify_order=False).order == 21
    s3 = symmetric_group(3)
    assert to_permutation(s3, verify_order=False) is s3
    # The cap comes from evaluate and is carried by the group and its
    # one cached realization.
    assert to_permutation(evaluate(Frobenius((7,), 3), cap=21)).cap == 21
    capped = evaluate(Semidirect((7,), (9,), ((2,),)), cap=62)
    assert capped.cap == 62 and capped == evaluate(Semidirect((7,), (9,), ((2,),)))
    with pytest.raises(CapExceeded):
        class_size_spectrum(capped)
    with pytest.raises(CapExceeded):
        dgroup_witness(capped)
    assert to_permutation(f21) is to_permutation(f21)


def test_overlapping_product_over_the_cap_raises_before_it_is_realized(monkeypatch):
    # C10 x C10 shares its primes.  Its factors answer without enumeration,
    # so the cap does not bound its order: at cap 99 it analyzes as at cap
    # 100, and only its realization, gated on the whole order, raises.
    import classgraph.perm as perm

    calls = []
    monkeypatch.setattr(perm, "cayley_table", lambda *a: calls.append(a))
    expr = Direct((Cyclic(10), Cyclic(10)))
    assert analyze_expr("c10_x_c10", expr, enumeration_cap=99) == analyze_expr(
        "c10_x_c10", expr, enumeration_cap=100
    )
    assert calls == []
    capped = evaluate(expr, cap=99)
    assert capped.order == 100
    with pytest.raises(CapExceeded, match="order 100 exceeds enumeration cap 99"):
        capped.to_permutation()
    assert calls == []
