from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classgraph import (
    COUNTEREXAMPLE_CANDIDATE,
    NOT_BLOCK_SQUARE,
    VERIFIED,
    Abelian,
    CapExceeded,
    Cyclic,
    Direct,
    DirectProduct,
    Frobenius,
    MetabelianGroup,
    Perm,
    PermGroup,
    Permutation,
    Semidirect,
    delta_of,
    dgroup_witness,
    evaluate,
    strip_central_sylows,
    symmetric_group,
    to_permutation,
    verify_decomposition,
)
from classgraph.construction import _perm_factors
from corpus import A4_PERM, Q8_PERM, S3_PERM, S4_PERM, perm_spec, random_perm_groups
from oracles import (
    centralizer_by_scan,
    complete_vertices,
    orbits_under_conjugation,
    pairwise_is_abelian,
    whole_group_answers,
)


@pytest.fixture
def walks(monkeypatch) -> list[tuple[int, int]]:
    """(degree, elements) of each ``cayley_table`` walk the test makes, in order."""
    import classgraph.perm as perm

    recorded: list[tuple[int, int]] = []
    real = perm.cayley_table

    def record(generators, cap):
        index, right = real(generators, cap)
        recorded.append((len(generators[0]), len(index)))
        return index, right

    monkeypatch.setattr(perm, "cayley_table", record)
    return recorded


# -- spectral recognizer ---------------------------------------------------------


def test_spectral_f21():
    assert not delta_of([1, 3, 3, 7, 7]).is_connected()


def test_spectral_z6():
    assert delta_of([1, 1, 1, 1, 1, 1]).is_connected()


def test_spectral_s4():
    assert delta_of([1, 6, 8, 3, 6]).is_connected()


# -- structural recognizer (permutation route) --------------------------------------


def test_witness_s3():
    w = dgroup_witness(evaluate(S3_PERM))
    assert w is not None
    assert (w.a_order, w.b_order, w.center_order) == (3, 2, 1)
    assert w.class_sizes == frozenset({1, 2, 3})


def test_witness_f21():
    w = dgroup_witness(to_permutation(evaluate(Frobenius((7,), 3))))
    assert w is not None
    assert (w.a_order, w.b_order) == (7, 3)


def test_witness_absent_for_abelian():
    assert dgroup_witness(to_permutation(evaluate(Cyclic(6)))) is None


def test_witness_absent_for_s4():
    assert dgroup_witness(evaluate(S4_PERM)) is None


def test_witness_f21_x_z5_center_inside_b():
    w = dgroup_witness(to_permutation(evaluate(Direct((Frobenius((7,), 3), Cyclic(5))))))
    assert w is not None
    assert (w.a_order, w.b_order, w.center_order) == (7, 15, 5)
    assert w.class_sizes == frozenset({1, 7, 3})


def test_witness_c3_x_s3_center_shares_a_prime_with_a():
    # Z = C3 and A = C3: |A| divides |B| = 6, yet Delta is disconnected
    # (sizes 1, 2, 3), so C3 x S3 is a D-group.
    w = dgroup_witness(evaluate(Direct((Cyclic(3), S3_PERM))))
    assert w is not None
    assert (w.a_order, w.b_order, w.center_order) == (3, 6, 3)
    assert w.class_sizes == frozenset({1, 2, 3})


def test_witness_non_cyclic_complement():
    # S3 x Z2 needs B = Z2 x Z2 (not cyclic), S3 x Z2 x Z2 needs three generators.
    g = evaluate(Direct((S3_PERM, Cyclic(2))))
    w = dgroup_witness(g)
    assert w is not None
    assert (w.a_order, w.b_order, w.center_order) == (3, 4, 2)
    g3 = evaluate(Direct((S3_PERM, Cyclic(2), Cyclic(2))))
    w3 = dgroup_witness(g3)
    assert w3 is not None
    assert (w3.a_order, w3.b_order, w3.center_order) == (3, 8, 4)


def test_witness_semidirect_with_central_complement_part():
    w = dgroup_witness(to_permutation(evaluate(Semidirect((7,), (9,), ((2,),)))))
    assert w is not None
    assert (w.a_order, w.b_order, w.center_order) == (7, 9, 3)
    assert w.class_sizes == frozenset({1, 7, 3})


def test_witness_absent_for_f21_x_f55():
    g = to_permutation(evaluate(Direct((Frobenius((7,), 3), Frobenius((11,), 5)))))
    assert dgroup_witness(g) is None


def test_witness_rejected_by_class_sizes_alone():
    # C91 x| C6 with multiplier 3 on both kernel factors: A = C91 and B = C6
    # are abelian and meet trivially, but the order-2 element of the top
    # fixes Z13, so G/Z is not Frobenius and the class sizes show it.
    g = to_permutation(evaluate(Semidirect((7, 13), (6,), ((3, 3),))))
    a = g.derived_subgroup()
    x = next(c.representative for c in g.conjugacy_classes() if c.size == a.order)
    b = centralizer_by_scan(g, x)
    assert a.is_abelian and pairwise_is_abelian(b)
    assert set(a.elements()) & b == {g.identity()}
    assert frozenset(g.class_size_spectrum()) != {1, a.order, len(b) // g.center().order}
    assert dgroup_witness(g) is None


def test_capped_group_raises_before_any_normal_closure(monkeypatch):
    # The only work allowed is the capped enumeration of the group.  Every
    # subgroup is generated and tested by cayley_table too, on generators
    # of its own, so each call must be on the group's generators.
    import classgraph.perm as perm

    calls = []
    real = perm.cayley_table

    def recorded(generators, cap):
        calls.append((list(generators), cap))
        return real(generators, cap)

    monkeypatch.setattr(perm, "cayley_table", recorded)
    g = PermGroup(list(symmetric_group(7).generators), cap=100)
    with pytest.raises(CapExceeded):
        g.derived_subgroup()
    with pytest.raises(CapExceeded):
        dgroup_witness(g)
    own = [p.images for p in g.generators]
    assert calls == [(own, 100), (own, 100)]


def test_over_cap_structured_group_analyzes_with_no_closure(monkeypatch):
    # z7 x| z6 is neither abelian nor Frobenius, but its spectrum and
    # pi-subgroups come off its tree, so at cap 2309 the product of order
    # 2310 verifies as it does uncapped, with no walk.  The D-group
    # recognizer needs no enumeration: the product has two nonabelian
    # factors.  Only the walk of the realization of the whole product
    # raises, and building it walks nothing.
    import classgraph.perm as perm

    expr = Direct((Semidirect((7,), (6,), ((2,),)), Frobenius((11,), 5)))
    report = verify_decomposition(evaluate(expr))
    assert report.status == VERIFIED
    capped = evaluate(expr, cap=2309)
    calls = []
    real = perm.cayley_table
    monkeypatch.setattr(perm, "cayley_table", lambda *a: calls.append(1) or real(*a))
    assert dgroup_witness(capped) is None
    assert calls == []
    assert verify_decomposition(
        capped, spectrum=report.spectrum, graph=report.graph, partitions=report.partitions
    ) == report
    assert calls == []
    realization = to_permutation(capped)
    assert realization.degree == 29 and calls == []
    with pytest.raises(CapExceeded, match="group closure exceeded cap 2309"):
        realization.order
    assert len(calls) == 1


# -- structural recognizer (structured groups) ----------------------------------------


def test_structural_witness_frobenius():
    w = dgroup_witness(evaluate(Frobenius((7, 13), 3)))
    assert w is not None
    assert (w.a_order, w.b_order, w.center_order) == (91, 3, 1)
    assert w.class_sizes == frozenset({1, 3, 91})


def test_structural_witness_with_central_factor():
    w = dgroup_witness(evaluate(Direct((Frobenius((7,), 3), Cyclic(5)))))
    assert w is not None
    assert (w.a_order, w.b_order, w.center_order) == (7, 15, 5)


def test_structural_none_for_two_frobenius_factors():
    g = evaluate(Direct((Frobenius((7,), 3), Frobenius((11,), 5))))
    assert dgroup_witness(g) is None


def test_structural_undecided_falls_back(walks):
    # Not Frobenius, yet decided off the tree: no realization is built or walked.
    g = evaluate(Semidirect((7,), (9,), ((2,),)))
    assert isinstance(g, MetabelianGroup)
    w = dgroup_witness(g)
    assert w is not None and (w.a_order, w.b_order) == (7, 9)
    assert walks == []


def test_witness_enumerates_only_the_factor_with_no_closed_form(walks):
    # z7 x| z9 (multiplier 2) x C5, of order 315.  The semidirect factor is
    # not Frobenius, but its spectrum and witness come off its tree, so
    # nothing is enumerated and a cap of 300 changes nothing.
    from classgraph.reports import analyze_expr

    expr = Direct((Semidirect((7,), (9,), ((2,),)), Cyclic(5)))
    report = analyze_expr("z7_rtimes_z9_x_c5", expr)
    assert walks == []
    assert report["dgroup"]["witness"] == {
        "a_order": 7, "b_order": 45, "center_order": 15, "class_sizes": [1, 3, 7]
    }
    assert analyze_expr("z7_rtimes_z9_x_c5", expr, enumeration_cap=300) == report


def test_both_routes_agree_on_corpus(corpus):
    for entry in corpus:
        spectral = not delta_of(entry.spectrum).is_connected()
        witness = dgroup_witness(entry.group)
        assert spectral == (witness is not None), entry.name
        perm_witness = dgroup_witness(entry.perm)
        assert (perm_witness is not None) == spectral, entry.name
        if witness is not None and perm_witness is not None:
            assert (witness.a_order, witness.b_order, witness.center_order) == (
                perm_witness.a_order,
                perm_witness.b_order,
                perm_witness.center_order,
            ), entry.name


def test_dgroup_spectrum_law(corpus):
    for entry in corpus:
        witness = dgroup_witness(entry.group)
        if witness is None:
            continue
        expected = {1, witness.a_order, witness.b_order // witness.center_order}
        assert set(entry.spectrum) == expected, entry.name


# -- strip_central_sylows ----------------------------------------------------------


def test_strip_f21_x_z5():
    split = strip_central_sylows(to_permutation(evaluate(Direct((Frobenius((7,), 3), Cyclic(5))))))
    assert split.central_primes == (5,)
    assert split.core.order == 21


def test_strip_s3_nothing_central():
    split = strip_central_sylows(evaluate(S3_PERM))
    assert split.central_primes == ()
    assert split.core.order == 6


def test_strip_abelian_everything_central():
    split = strip_central_sylows(to_permutation(evaluate(Cyclic(6))))
    assert split.central_primes == (2, 3)
    assert split.core.order == 1


def test_strip_order_identity(corpus):
    import math

    from classgraph.primes import valuation

    for entry in corpus:
        if entry.order > 2000:
            continue
        split = strip_central_sylows(entry.perm)
        central_part = math.prod(
            p ** valuation(entry.order, p) for p in split.central_primes
        ) if split.central_primes else 1
        assert split.core.order * central_part == entry.order, entry.name


# -- verify_decomposition -------------------------------------------------------------


def test_verify_f21_x_f55_structured():
    g = evaluate(Direct((Frobenius((7,), 3), Frobenius((11,), 5))))
    report = verify_decomposition(g)
    assert report.status == VERIFIED
    assert report.witness is not None
    assert (report.witness.a_order, report.witness.b_order) == (21, 55)
    assert report.witness.central_primes == ()


def test_verify_f21_x_f55_permutation_route():
    g = to_permutation(evaluate(Direct((Frobenius((7,), 3), Frobenius((11,), 5)))))
    report = verify_decomposition(g)
    assert report.status == VERIFIED
    assert (report.witness.a_order, report.witness.b_order) == (21, 55)
    assert (report.witness.a_witness.a_order, report.witness.a_witness.b_order) == (7, 3)
    assert (report.witness.b_witness.a_order, report.witness.b_witness.b_order) == (11, 5)


def test_verify_not_block_square():
    assert verify_decomposition(evaluate(S4_PERM)).status == NOT_BLOCK_SQUARE
    assert verify_decomposition(evaluate(Cyclic(6))).status == NOT_BLOCK_SQUARE
    assert verify_decomposition(evaluate(Frobenius((7,), 3))).status == NOT_BLOCK_SQUARE


def test_verify_with_central_factor():
    g = evaluate(Direct((Frobenius((7,), 3), Cyclic(13), Frobenius((11,), 5))))
    report = verify_decomposition(g)
    assert report.status == VERIFIED
    assert report.witness.central_primes == (13,)
    perm_report = verify_decomposition(to_permutation(g))
    assert perm_report.status == VERIFIED
    assert perm_report.witness.central_primes == (13,)
    assert (perm_report.witness.a_order, perm_report.witness.b_order) == (21, 55)
    assert report.witness == perm_report.witness


def test_dgroup_witness_computes_no_element_order_and_verify_computes_each_once(monkeypatch):
    # dgroup_witness reads B off the classes, so it needs no element order.
    # The realization's generators split into three factors, F21, F55 and
    # C2, so its perm spec evaluates to their DirectProduct.  The verifier's
    # pi-subgroups, the core on {3, 5, 7, 11} and A and B on {3, 7} and
    # {5, 11}, each cover every prime of the factors they meet, so each is
    # those factors themselves, and no element order is computed.  A
    # pi-subgroup that needs them computes the orders of a factor once per
    # class, and later ones read those.
    import classgraph.perm as perm

    expr = Direct((Frobenius((7,), 3), Frobenius((11,), 5), Cyclic(2)))
    g = evaluate(perm_spec(to_permutation(evaluate(expr))))
    assert isinstance(g, DirectProduct)
    assert [f.order for f in g.factors] == [21, 55, 2]
    calls = []
    real = perm._order_of_images
    monkeypatch.setattr(perm, "_order_of_images", lambda images: calls.append(1) or real(images))
    assert dgroup_witness(g) is None
    assert len(calls) == 0
    report = verify_decomposition(g)
    assert report.status == VERIFIED
    assert report.witness.central_primes == (2,)
    assert (report.witness.a_order, report.witness.b_order) == (21, 55)
    assert len(calls) == 0
    f21 = g.factors[0]
    assert g.pi_subgroup(frozenset({7})).order == 7
    assert g.pi_subgroup(frozenset({2, 7})).order == 14
    # Conjugates share an order, so it is computed once per class of F21.
    assert len(calls) == len(f21.conjugacy_classes()) == 5


def test_analyze_enumerates_a_structured_group_with_no_closed_form_once(walks):
    # The semidirect factor is not Frobenius, but its spectrum and the
    # verifier's pi-subgroups of it come off its tree, and F55 answers in
    # closed form: analyze walks no group at all.
    from classgraph.reports import analyze_expr

    expr = Direct((Semidirect((7,), (6,), ((2,),)), Frobenius((11,), 5)))
    report = analyze_expr("z7_rtimes_z6_x_f55", expr)
    assert report["order"] == 2310
    assert report["decomposition"]["status"] == VERIFIED
    assert walks == []


def test_a_product_enumerates_only_its_permutation_factor(walks):
    # F3000009 x S3 is 18 times the cap, and its factors share the prime 3.
    # F3000009 answers in closed form, so the one walk is S3's 6 elements.
    from classgraph.reports import analyze_expr

    report = analyze_expr("f3000009_x_s3", Direct((Frobenius((1000003,), 3), S3_PERM)))
    assert report["order"] == 18_000_054
    assert report["graph"] == {"vertices": [2, 3, 1000003], "edges": [[2, 3], [2, 1000003], [3, 1000003]]}
    assert report["decomposition"]["status"] == NOT_BLOCK_SQUARE
    assert walks == [(3, 6)]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_dgroup_witness_rejects_a_symmetric_group_on_its_classes_alone(n, walks):
    # S4, S5 and S6 have 4, 6 and 7 distinct class sizes, more than the
    # three of a D-group, so no subgroup is walked after the group itself.
    g = symmetric_group(n)
    assert len(g.class_size_spectrum()) == {4: 4, 5: 6, 6: 7}[n]
    assert dgroup_witness(g) is None
    assert walks == [(n, math.factorial(n))]


def test_analysis_of_a_split_perm_spec_walks_each_factor_and_its_derived_subgroup(walks):
    # A perm spec of F21 x F205 splits into its two Frobenius factors, and
    # the verifier's A and B are those factors themselves.  The walks are
    # the two factors and their derived subgroups: 274 elements in all,
    # where the product has 4,305.  README quotes these figures.
    from classgraph.reports import analyze_expr

    g = to_permutation(evaluate(Direct((Frobenius((7,), 3), Frobenius((41,), 5)))))
    walks.clear()
    report = analyze_expr("f21_x_f205", perm_spec(g))
    assert report["order"] == 4305
    assert report["decomposition"]["status"] == VERIFIED
    assert walks == [(56, 21), (56, 205), (56, 7), (56, 41)]
    assert sum(size for _, size in walks) == 274


def test_analysis_of_a_split_perm_spec_convolves_its_factor_spectra_once(monkeypatch):
    # A split perm spec evaluates to the DirectProduct of its factors.  Δ of
    # a product joins its factors' Δ (graph.product_delta), so the report's
    # spectrum is the only convolution of the factors' spectra.
    import classgraph.construction as construction
    from classgraph.reports import analyze_expr

    calls: list[int] = []
    real = construction.product_spectrum
    monkeypatch.setattr(
        construction,
        "product_spectrum",
        lambda fs, order: calls.append(len(fs)) or real(fs, order),
    )
    g = to_permutation(evaluate(Direct((Frobenius((7,), 3), Frobenius((41,), 5)))))
    report = analyze_expr("f21_x_f205", perm_spec(g))
    assert calls == [2]
    spectrum = Counter(dict(map(tuple, report["spectrum"])))
    assert report["graph"] == delta_of(spectrum).to_json_obj()


def test_dgroup_witness_reads_the_order_of_a_split_derived_subgroup_off_its_walk(walks):
    # The realization of z(7*13) x| z3 is one support component, but its G'
    # = C7 x C13 is generated by commutators on the two kernel blocks, so
    # its generators split.  Its order is read off the walk that generated
    # it, not off a walk of each factor.
    g = to_permutation(evaluate(Semidirect((7, 13), (3,), ((2, 3),))))
    witness = dgroup_witness(g)
    assert (witness.a_order, witness.b_order, witness.center_order) == (91, 3, 1)
    assert walks == [(23, 273), (23, 91)]
    assert len(_perm_factors(g.derived_subgroup())) == 2


def test_analyze_enumerates_no_abelian_or_frobenius_part(monkeypatch):
    # Order 330,000,990, 330 times the cap: the spectrum, Delta, the D-group
    # rule and every pi-subgroup the verifier takes come off the tree.
    import classgraph.perm as perm
    from classgraph.reports import analyze_expr

    calls = []
    monkeypatch.setattr(perm, "cayley_table", lambda *a: calls.append(a))
    expr = Direct((Frobenius((1000003,), 3), Frobenius((11,), 5), Cyclic(2)))
    report = analyze_expr("f3000009_x_f55_x_c2", expr)
    assert report["order"] == 330_000_990 > 330 * evaluate(expr).factors[0].cap
    assert report["decomposition"]["status"] == VERIFIED
    assert report["decomposition"]["witness"]["central_primes"] == [2]
    assert calls == []


def test_converse_flag_on_two_coprime_nonabelian_dgroup_factors():
    # With no block partition given, the verifier flags a direct product of
    # exactly two nonabelian factors of coprime orders, each with Delta
    # disconnected, whichever kind its factors are.  Only a DirectProduct
    # lists factors: the split perm spec of F21 x F55 evaluates to one, and
    # the same group built by hand as one PermGroup is a leaf.
    f21, f55 = Frobenius((7,), 3), Frobenius((11,), 5)
    realization = to_permutation(evaluate(Direct((f21, f55))))
    flagged = (
        evaluate(Direct((f21, f55))),
        evaluate(Direct((f21, f55, Cyclic(2)))),
        evaluate(perm_spec(realization)),
        evaluate(Direct((Semidirect((7,), (6,), ((2,),)), f55))),
    )
    for g in flagged:
        assert verify_decomposition(g, partitions=()).status == COUNTEREXAMPLE_CANDIDATE, g
    assert verify_decomposition(realization, partitions=()).status == NOT_BLOCK_SQUARE
    f21_x_f21 = evaluate(Direct((f21, f21)))
    assert isinstance(f21_x_f21, DirectProduct) and len(f21_x_f21.factors) == 2
    # Not coprime; one nonabelian factor; S4, whose Delta is connected.
    not_flagged = (
        f21_x_f21,
        to_permutation(evaluate(Direct((f21, Cyclic(5))))),
        evaluate(Direct((S4_PERM, f55))),
    )
    for g in not_flagged:
        assert verify_decomposition(g, partitions=()).status == NOT_BLOCK_SQUARE, g


def test_verify_c3_x_s3_x_f55():
    # The Sylow 3-subgroup of C3 x S3 is not central, so nothing is
    # stripped: the A factor is the D-group C3 x S3 itself.
    g = evaluate(Direct((Cyclic(3), S3_PERM, Frobenius((11,), 5))))
    report = verify_decomposition(g)
    assert report.status == VERIFIED
    assert report.witness.central_primes == ()
    assert (report.witness.a_order, report.witness.b_order) == (18, 55)


def test_verify_product_of_dgroups_with_centers():
    # Both factors D-groups with nontrivial centers; centers become central Sylows.
    a = Direct((Frobenius((7,), 3), Cyclic(5)))
    b = Direct((Frobenius((23,), 11), Cyclic(2)))
    g = evaluate(Direct((a, b)))
    report = verify_decomposition(g)
    assert report.status == VERIFIED
    assert report.witness.central_primes == (2, 5)
    assert {report.witness.a_order, report.witness.b_order} == {21, 253}


def test_no_complete_vertex_forces_abelian_coprime_derived_subgroup(corpus):
    # When the graph is nonempty with no complete vertex, the derived
    # subgroup must be abelian, of order coprime to its index, and must
    # meet the center trivially.  Single-vertex and single-edge graphs
    # (q8, s4) have complete vertices and are rightly excluded.
    import math

    checked = set()
    for entry in corpus:
        if entry.order > 2000:
            continue
        graph = delta_of(entry.spectrum)
        if not graph.vertices or complete_vertices(graph):
            continue
        g = entry.perm
        derived = g.derived_subgroup()
        a_part = frozenset(derived.elements())
        assert all(a * b == b * a for a in a_part for b in a_part), entry.name
        assert math.gcd(derived.order, g.order // derived.order) == 1, entry.name
        assert a_part & frozenset(g.center().elements()) == {g.identity()}, entry.name
        checked.add(entry.name)
    assert {"f21", "a4", "f21_x_f55", "s3_x_z2", "z7_rtimes_z9"} <= checked


def test_corpus_block_squares_are_admissible(corpus):
    from classgraph import find_block_partitions, is_admissible_block_square

    found_any = False
    for entry in corpus:
        graph = delta_of(entry.spectrum)
        for part in find_block_partitions(graph):
            assert is_admissible_block_square(graph, part), entry.name
            found_any = True
    assert found_any


def test_verify_statuses_on_corpus(corpus):
    for entry in corpus:
        report = verify_decomposition(entry.group)
        if report.partitions:
            assert report.status == VERIFIED, entry.name
        else:
            assert report.status == NOT_BLOCK_SQUARE, entry.name
        assert report.status != COUNTEREXAMPLE_CANDIDATE, entry.name


# -- direct factors of a permutation group ------------------------------------------

# D-groups, mixed into the products below: S3, A4, D10, F21 and F55.
S3, A4, D10, F21, F55 = (
    to_permutation(evaluate(expr))
    for expr in (S3_PERM, A4_PERM, Frobenius((5,), 2), Frobenius((7,), 3), Frobenius((11,), 5))
)
# Coprime pairs of them, whose products have block squares.
SQUARES = ((S3, F55), (A4, F55), (D10, F21))


def _relabelled(images: tuple[int, ...], sigma: list[int]) -> tuple[int, ...]:
    """The permutation that sends sigma[i] to sigma[images[i]]."""
    out = [0] * len(images)
    for i, j in enumerate(images):
        out[sigma[i]] = sigma[j]
    return tuple(out)


@st.composite
def split_products(draw):
    """A direct product on relabelled points with shuffled generators, and its factors.

    Two or three factors, each a random permutation group or a D-group, or
    a coprime pair of D-groups with at most one more factor on two points.
    Three factors come from fewer points and smaller D-groups, so that the
    whole product, which the oracle enumerates, stays under 3,100 elements.
    """
    k = draw(st.integers(2, 4))
    if k < 4:
        factor = st.one_of(
            random_perm_groups(min_degree=2, max_degree=6 - k),
            st.sampled_from((S3, A4, D10, F21, F55)[: 11 - 3 * k]),
        )
        parts = draw(st.lists(factor, min_size=k, max_size=k))
    else:
        parts = list(draw(st.sampled_from(SQUARES)))
        parts += draw(st.lists(random_perm_groups(max_degree=2), max_size=1))
    product = to_permutation(DirectProduct(tuple(parts)))
    sigma = draw(st.permutations(range(product.degree)))
    gens = [Permutation(_relabelled(g.images, sigma)) for g in product.generators]
    return PermGroup(draw(st.permutations(gens))), parts


@settings(max_examples=200, deadline=None, derandomize=True)
@given(split_products())
def test_factor_route_agrees_with_the_whole_group_enumerated(case):
    # The product's perm spec evaluates to the DirectProduct of its factors.
    # Every answer read off the factors must be the one the whole product
    # gives when it is enumerated at once, down to the order and spectrum
    # of the pi-subgroup for every set pi of its primes.
    whole, parts = case
    group = evaluate(perm_spec(whole))
    nontrivial = sum(part.order > 1 for part in parts)
    assert len(group.factors) >= nontrivial or nontrivial < 2
    expected = whole_group_answers(whole)
    assert group.order == expected["order"]
    assert group.class_size_spectrum() == expected["spectrum"]
    delta = group.delta()
    assert (delta.vertices, delta.edges) == expected["delta"]
    assert dgroup_witness(group) == expected["witness"]
    for pi, order in expected["pi_orders"].items():
        sub = group.pi_subgroup(pi)
        assert (None if sub is None else sub.order) == order, sorted(pi)
        if sub is not None:
            part = expected["pi_parts"][pi]
            spectrum = Counter(map(len, orbits_under_conjugation(*part)))
            assert sub.class_size_spectrum() == spectrum, sorted(pi)
    split = strip_central_sylows(group)
    assert split.central_primes == expected["central_primes"]
    assert split.core.order == expected["core_order"]
    assert verify_decomposition(group).status == expected["status"]


def test_a_split_perm_spec_evaluates_to_the_direct_product_of_its_factors():
    # evaluate does the splitting: a perm spec whose generators split is the
    # DirectProduct of its PermGroup leaves, and one that does not split is
    # a PermGroup.  A split PermGroup built by hand is enumerated whole, and
    # must answer as that DirectProduct does.
    assert type(evaluate(S3_PERM)) is PermGroup
    seen: Counter[str] = Counter()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(split_products())
    def check(case):
        hand, _ = case
        group = evaluate(perm_spec(hand))
        if not _perm_factors(hand):
            assert type(group) is PermGroup
            seen["unsplit"] += 1
            return
        assert isinstance(group, DirectProduct)
        assert [f.generators for f in group.factors] == [f.generators for f in _perm_factors(hand)]
        assert all(type(f) is PermGroup and f.frobenius is False for f in group.factors)
        assert hand.order == group.order
        assert hand.class_size_spectrum() == group.class_size_spectrum()
        delta, expected = hand.delta(), group.delta()
        assert (delta.vertices, delta.edges) == (expected.vertices, expected.edges)
        for r in range(len(hand.primes) + 1):
            for pi in map(frozenset, combinations(hand.primes, r)):
                subs = hand.pi_subgroup(pi), group.pi_subgroup(pi)
                orders = [None if sub is None else sub.order for sub in subs]
                assert orders[0] == orders[1], sorted(pi)
        # The hand-built group was walked whole, and none of its factors was.
        assert "_table" in vars(hand)
        assert not any("_table" in vars(f) for f in _perm_factors(hand))
        seen["split"] += 1

    check()
    assert seen["split"] >= 30 and seen["unsplit"] > 0, seen


# -- direct products of structured and permutation leaves ---------------------------

# Leaves of either kind whose primes overlap: abelian, Frobenius, semidirect
# nodes that are neither (each decided on its own realization), and perm
# specs, the last one on two disjoint cycles, so it splits into C2 x C3.
_PRODUCT_LEAVES = (
    Cyclic(1),
    Cyclic(2),
    Cyclic(3),
    Cyclic(4),
    Cyclic(6),
    Abelian((2, 2)),
    Abelian((3, 3)),
    Frobenius((3,), 2),
    Frobenius((5,), 2),
    Frobenius((5,), 4),
    Frobenius((7,), 3),
    Frobenius((7,), 6),
    Frobenius((11,), 5),
    Frobenius((13,), 3),
    Semidirect((3,), (4,), ((2,),)),
    Semidirect((5,), (4,), ((4,),)),
    Semidirect((7,), (6,), ((2,),)),
    Semidirect((7,), (9,), ((2,),)),
    S3_PERM,
    A4_PERM,
    S4_PERM,
    Q8_PERM,
    Perm(5, ((1, 0, 2, 3, 4), (0, 1, 3, 4, 2))),
)
_PRODUCT_LEAF_ORDERS = tuple(evaluate(leaf).order for leaf in _PRODUCT_LEAVES)


@st.composite
def mixed_products(draw, budget: int = 1000):
    """A direct node of two or three leaves, of order at most ``budget`` together."""
    leaves, order = [], 1
    for _ in range(draw(st.integers(2, 3))):
        fits = [i for i, n in enumerate(_PRODUCT_LEAF_ORDERS) if order * n <= budget]
        i = draw(st.sampled_from(fits))
        leaves.append(_PRODUCT_LEAVES[i])
        order *= _PRODUCT_LEAF_ORDERS[i]
    return Direct(tuple(leaves))


def test_direct_products_agree_with_the_whole_group_enumerated():
    # A direct node of any leaves, coprime or not, is one DirectProduct, and
    # every answer it reads off its factors must be the one its realization
    # gives when it is enumerated at once.
    seen: Counter[str] = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mixed_products())
    def check(expr):
        group = evaluate(expr)
        assert isinstance(group, DirectProduct), expr
        expected = whole_group_answers(to_permutation(group))
        assert group.order == expected["order"], expr
        assert group.primes == tuple(p for p in (2, 3, 5, 7, 11, 13) if group.order % p == 0)
        assert group.class_size_spectrum() == expected["spectrum"], expr
        delta = group.delta()
        assert (delta.vertices, delta.edges) == expected["delta"], expr
        assert group.is_abelian == (set(expected["spectrum"]) == {1}), expr
        assert dgroup_witness(group) == expected["witness"], expr
        for pi, order in expected["pi_orders"].items():
            sub = group.pi_subgroup(pi)
            assert (None if sub is None else sub.order) == order, (expr, sorted(pi))
        split = strip_central_sylows(group)
        assert split.central_primes == expected["central_primes"], expr
        assert split.core.order == expected["core_order"], expr
        assert verify_decomposition(group).status == expected["status"], expr
        seen["examples"] += 1
        seen["overlapping"] += math.lcm(*(f.order for f in group.factors)) < group.order
        seen["perm factor"] += any(isinstance(f, PermGroup) for f in group.factors)
        seen["neither abelian nor Frobenius"] += any(
            not (f.is_abelian or f.frobenius) for f in group.factors if isinstance(f, MetabelianGroup)
        )
        seen["D-group"] += expected["witness"] is not None
        seen["verified"] += expected["status"] == VERIFIED
        seen["pi-subgroup is None"] += None in expected["pi_orders"].values()

    check()
    assert seen["examples"] >= 200
    assert min(seen.values()) > 0, seen
