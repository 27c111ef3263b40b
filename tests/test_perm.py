from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classgraph import (
    CapExceeded,
    Cyclic,
    Direct,
    DirectProduct,
    Frobenius,
    PermGroup,
    Permutation,
    Semidirect,
    evaluate,
    strip_central_sylows,
    to_permutation,
    trivial_group,
)
from classgraph.primes import prime_factors
from corpus import Q8_PERM, S3_PERM, S4_PERM, perm_spec, random_perm_groups
from oracles import (
    class_sizes_by_conjugation,
    conjugation_orbits,
    full_scan_class_sizes,
    order_by_powers,
    pairwise_center,
    pairwise_sylow_is_central,
)


def s3() -> PermGroup:
    return evaluate(S3_PERM)


def s4() -> PermGroup:
    return evaluate(S4_PERM)


def f21_perm() -> PermGroup:
    return to_permutation(evaluate(Frobenius((7,), 3)))


def z6_perm() -> PermGroup:
    return to_permutation(evaluate(Cyclic(6)))


# -- Permutation --------------------------------------------------------------


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((0, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-1, max_value=5), max_size=5))
def test_public_constructor_rejects_non_permutations(images):
    if sorted(images) == list(range(len(images))):
        assert Permutation(images).images == tuple(images)
    else:
        with pytest.raises(ValueError):
            Permutation(images)


def test_product_of_different_degrees_raises():
    a, b = Permutation((0, 1, 2)), Permutation((1, 0))
    with pytest.raises(ValueError, match="degrees 3 and 2"):
        a * b
    with pytest.raises(ValueError, match="degrees 2 and 3"):
        b * a


def test_products_of_degree_zero_and_one_stay_tuples():
    for degree in (0, 1):
        ident = Permutation.identity(degree)
        assert (ident * ident).images == ident.images == tuple(range(degree))
        assert ident.inverse().images == ident.images


def test_from_cycles_and_order():
    p = Permutation.from_cycles(5, [[0, 1, 2], [3, 4]])
    assert p.images == (1, 2, 0, 4, 3)
    assert p.order() == 6
    # The cycles (0 1 2) and (3 4): the cube fixes the first, the square the second.
    assert (p * p * p).images == (0, 1, 2, 4, 3)
    assert (p * p).images == (2, 0, 1, 3, 4)
    assert Permutation.identity(4).order() == 1


perm_strategy = st.permutations(list(range(5))).map(lambda xs: Permutation(tuple(xs)))


@settings(max_examples=100, deadline=None)
@given(perm_strategy, perm_strategy, perm_strategy)
def test_permutation_group_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    ident = Permutation.identity(5)
    assert a * ident == ident * a == a
    assert a * a.inverse() == ident
    for point in range(5):
        assert (a * b)(point) == a(b(point))
    # Products and inverses skip validation; they must still be permutations.
    for p in (a * b, a.inverse()):
        assert Permutation(p.images) == p


# -- enumeration --------------------------------------------------------------


def test_enumerate_trivial():
    g = trivial_group(1)
    assert g.elements() == (Permutation.identity(1),)
    assert g.order == 1


def test_enumerate_s3_closure():
    # Independent check: closure must equal the full composition table hull.
    g = s3()
    elems = set(g.elements())
    assert len(elems) == 6
    for a in elems:
        for b in elems:
            assert a * b in elems
        assert a.inverse() in elems
    assert g.identity() in elems


def test_enumerate_deterministic_sorted():
    g = s3()
    assert list(g.elements()) == sorted(g.elements())
    again = evaluate(S3_PERM)
    assert g.elements() == again.elements()


def test_enumerate_cap_exceeded():
    seven_cycle = Permutation(tuple(range(1, 7)) + (0,))
    g = PermGroup([seven_cycle], cap=5)
    with pytest.raises(CapExceeded):
        g.elements()


def test_orbit_stabilizer_identity_everywhere():
    for g in (s3(), s4(), f21_perm()):
        order = g.order
        size_of = class_sizes_by_conjugation(g)
        for p in g.elements():
            centralizer_order = sum(1 for h in g.elements() if h * p == p * h)
            assert size_of[p] * centralizer_order == order
        for c in g.conjugacy_classes():
            assert c.size == size_of[c.representative]


# -- class sizes --------------------------------------------------------------


def assert_classes_and_orders_match_oracles(group: PermGroup) -> None:
    orbits = conjugation_orbits(group)
    expected = [(min(orbit), len(orbit)) for orbit in orbits]
    assert [(c.representative, c.size) for c in group.conjugacy_classes()] == expected
    # Orders are kept by index in the group's Cayley graph.
    index = group._table[0]
    assert [group._orders[index[x.images]] for x in group.elements()] == [
        order_by_powers(x) for x in group.elements()
    ]


@settings(max_examples=40, deadline=None)
@given(random_perm_groups())
def test_classes_and_orders_match_conjugation_orbits_and_sympy(group):
    from sympy.combinatorics import Permutation as SymPermutation
    from sympy.combinatorics import PermutationGroup

    sym = PermutationGroup([SymPermutation(list(g.images)) for g in group.generators])
    assert group.order == sym.order()
    assert group.class_size_spectrum() == Counter(len(c) for c in sym.conjugacy_classes())
    # The centre is taken before the group has its orders, so it computes
    # its own; a pi-subgroup is taken after, so it reads its parent's.
    center = group.center()
    assert_classes_and_orders_match_oracles(group)
    assert "_orders" not in vars(center)
    assert_classes_and_orders_match_oracles(center)
    for p in group.primes:
        sub = group.pi_subgroup({p})
        if sub is not None:
            assert "_orders" in vars(sub)
            assert_classes_and_orders_match_oracles(sub)


def test_class_sizes_z6_all_singletons():
    assert dict(z6_perm().class_size_spectrum()) == {1: 6}


def test_class_sizes_s3():
    assert sorted(s3().class_size_spectrum().elements()) == [1, 2, 3]


def test_class_sizes_f21():
    assert sorted(f21_perm().class_size_spectrum().elements()) == [1, 3, 3, 7, 7]


def test_class_sizes_s4():
    assert sorted(s4().class_size_spectrum().elements()) == [1, 3, 6, 6, 8]


def test_class_sizes_match_full_scan_oracle():
    for g in (s3(), s4(), z6_perm(), f21_perm()):
        assert g.class_size_spectrum() == full_scan_class_sizes(g)


def test_class_sizes_sum_to_order_and_count_center(corpus):
    for entry in corpus:
        if entry.order > 2000:
            continue
        g = entry.perm
        spectrum = g.class_size_spectrum()
        assert sum(spectrum.elements()) == g.order
        # The centre, counted with public products: elements commuting
        # with every generator.
        central = [x for x in g.elements() if all(x * h == h * x for h in g.generators)]
        assert spectrum[1] == len(central)


# -- center / derived ----------------------------------------------------------


def test_center_abelian_is_whole_group():
    assert z6_perm().center().order == 6


def test_center_s3_trivial():
    assert s3().center().order == 1


def test_center_f21_x_z5_is_z5():
    g = to_permutation(evaluate(Direct((Frobenius((7,), 3), Cyclic(5)))))
    w = g.center()
    assert w.order == 5
    assert all(p.order() in (1, 5) for p in w.elements())


def test_center_matches_pairwise_oracle():
    for g in (s4(), f21_perm(), evaluate(Q8_PERM), z6_perm()):
        assert frozenset(g.center().elements()) == pairwise_center(g)


def test_derived_abelian_trivial():
    assert z6_perm().derived_subgroup().order == 1


def test_derived_s3():
    w = s3().derived_subgroup()
    assert w.order == 3
    assert all(p.order() in (1, 3) for p in w.elements())


def test_derived_f21():
    assert f21_perm().derived_subgroup().order == 7


def test_derived_s4_is_a4():
    assert s4().derived_subgroup().order == 12


# -- central Sylow subgroups ----------------------------------------------------


def test_sylow_central_z6():
    g = z6_perm()
    assert pairwise_sylow_is_central(g, 2)
    assert pairwise_sylow_is_central(g, 3)
    assert pairwise_sylow_is_central(g, 5)  # vacuous: 5 does not divide 6
    assert strip_central_sylows(g).central_primes == (2, 3)


def test_sylow_central_s3():
    assert not pairwise_sylow_is_central(s3(), 3)
    assert not pairwise_sylow_is_central(s3(), 2)
    assert strip_central_sylows(s3()).central_primes == ()


def test_sylow_central_f21_x_z5():
    g = to_permutation(evaluate(Direct((Frobenius((7,), 3), Cyclic(5)))))
    assert pairwise_sylow_is_central(g, 5)
    assert not pairwise_sylow_is_central(g, 7)
    assert not pairwise_sylow_is_central(g, 3)
    assert strip_central_sylows(g).central_primes == (5,)


# -- pi_subgroup -----------------------------------------------------------------


def test_pi_subgroup_empty_set_is_trivial():
    g = s3()
    r = g.pi_subgroup(frozenset())
    assert r is not None
    assert r.elements() == (g.identity(),)
    assert r.order == 1


def test_pi_subgroup_f21_order7():
    r = f21_perm().pi_subgroup(frozenset({7}))
    assert r is not None
    assert r.order == 7
    assert all(p.order() in (1, 7) for p in r.elements())


def test_pi_subgroup_s3_not_subgroup():
    # The identity and three transpositions do not form a subgroup.
    assert s3().pi_subgroup(frozenset({2})) is None


def test_pi_subgroup_whole_prime_set_is_the_group(corpus):
    for entry in corpus:
        g = entry.perm
        assert g.pi_subgroup(frozenset(prime_factors(g.order))) is g
        assert g.pi_subgroup(frozenset(prime_factors(g.order)) | {101}) is g


def test_pi_subgroup_of_a_split_group_comes_from_the_factors_pi_meets():
    # A split perm spec evaluates to the DirectProduct of its factors.
    expr = Direct((Frobenius((7,), 3), Frobenius((11,), 5)))
    g = evaluate(perm_spec(to_permutation(evaluate(expr))))
    assert isinstance(g, DirectProduct)
    f21, f55 = g.factors
    # Each factor is one component of the generators' links, so it is
    # built knowing it splits no further.
    assert vars(f21)["factors"] == vars(f55)["factors"] == ()
    # pi meets no factor: the first factor's trivial subgroup, with no
    # element order or class computed.
    trivial = g.pi_subgroup(frozenset({2}))
    assert trivial.order == 1
    assert all(gen in f21 for gen in trivial.generators)
    assert "_partition" not in vars(f21) and "_partition" not in vars(f55)
    # pi covers F21's primes and misses F55's: F21 itself.
    assert g.pi_subgroup(frozenset({3, 7})) is f21
    # pi meets F21 alone: a subgroup of F21, and F55's classes are never walked.
    sylow = g.pi_subgroup(frozenset({7}))
    assert sylow.order == 7
    assert all(gen in f21 for gen in sylow.generators)
    assert "_partition" not in vars(f55)
    both = g.pi_subgroup(frozenset({7, 11}))
    assert both.order == 77 and len(both.factors) == 2


# -- subgroup test ------------------------------------------------------------------


def test_subgroup_rejects_non_subgroups():
    g = s3()
    transpositions = {p.images for p in g.elements() if p.order() <= 2}
    assert g._subgroup(transpositions) is None
    # A subgroup of the symmetric group that is not inside this group.
    z6 = z6_perm()
    swap = Permutation((1, 0) + tuple(range(2, z6.degree)))
    assert swap not in z6
    assert z6._subgroup({z6.identity().images, swap.images}) is None
    three = {p.images for p in g.derived_subgroup().elements()}
    assert g._subgroup(three).order == 3


# -- direct products -----------------------------------------------------------------


def test_direct_product_with_trivial():
    g = s3().direct_product(trivial_group(1))
    assert g.order == 6
    assert g.class_size_spectrum() == s3().class_size_spectrum()


def test_direct_product_s3_z2():
    g = s3().direct_product(to_permutation(evaluate(Cyclic(2))))
    assert g.order == 12
    assert sorted(g.class_size_spectrum().elements()) == [1, 1, 2, 2, 3, 3]


def test_direct_product_spectrum_is_pairwise_products(corpus):
    small = [e.perm for e in corpus if e.order <= 60]
    for g1 in small[:4]:
        for g2 in small[:4]:
            prod = g1.direct_product(g2)
            expected = sorted(
                s1 * s2
                for s1 in g1.class_size_spectrum().elements()
                for s2 in g2.class_size_spectrum().elements()
            )
            assert sorted(prod.class_size_spectrum().elements()) == expected


def test_direct_product_f21_f55_class_size_set():
    g = f21_perm().direct_product(to_permutation(evaluate(Frobenius((11,), 5))))
    assert g.order == 1155
    assert set(g.class_size_spectrum()) == {1, 3, 7, 5, 11, 15, 35, 33, 77}


# -- helpers / subgroup views ----------------------------------------------------------


def test_symmetric_group_helper():
    from classgraph import symmetric_group

    assert symmetric_group(1).order == 1
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24
    assert sorted(symmetric_group(4).class_size_spectrum().elements()) == [1, 3, 6, 6, 8]


def test_pi_subgroup_is_a_view_of_its_parent():
    # z7 x| z6 with multiplier 2 is F21 x C2, but its realization's top
    # generator moves both blocks: one support component, so no factors.
    g = to_permutation(evaluate(Semidirect((7,), (6,), ((2,),))))
    assert g.factors == ()
    g.class_size_spectrum()
    orders = {x: g._orders[i] for x, i in g._table[0].items()}
    core = g.pi_subgroup(frozenset({3, 7}))
    assert core is not None
    # The view keeps the Cayley graph its subgroup test enumerated, and
    # reads its orders off its parent's, computing none of its own.
    assert "_table" in vars(core) and "_orders" in vars(core)
    assert core.order == 21
    assert core.degree == g.degree
    assert core.elements() == tuple(p for p in g.elements() if p in core)
    assert list(core._orders) == [orders[x] for x in core._table[0]]
    assert all(gen in core for gen in core.generators)
    assert sorted(core.class_size_spectrum().elements()) == [1, 3, 3, 7, 7]
