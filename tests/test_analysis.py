from __future__ import annotations

import pytest

from classgraph import (
    COUNTEREXAMPLE_CANDIDATE,
    NOT_BLOCK_SQUARE,
    VERIFIED,
    CapExceeded,
    Cyclic,
    Direct,
    Frobenius,
    MetabelianGroup,
    PermGroup,
    Semidirect,
    delta_of,
    dgroup_witness,
    dgroup_witness_of,
    evaluate,
    strip_central_sylows,
    structural_dgroup_witness,
    symmetric_group,
    to_permutation,
    verify_decomposition,
)
from corpus import S3_PERM, S4_PERM
from oracles import complete_vertices


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
    b = g.centralizer(x)
    assert a.is_abelian() and b.is_abelian()
    assert set(a.elements()) & set(b.elements()) == {g.identity()}
    assert frozenset(g.class_size_spectrum()) != {1, a.order, b.order // g.center().order}
    assert dgroup_witness(g) is None


def test_capped_group_raises_before_any_normal_closure(monkeypatch):
    # The only closures allowed are the capped enumerations of the group.
    import classgraph.perm as perm

    limits = []
    real = perm.closure

    def recorded(*args, **kwargs):
        limits.append(kwargs.get("limit"))
        return real(*args, **kwargs)

    monkeypatch.setattr(perm, "closure", recorded)
    g = PermGroup(list(symmetric_group(7).generators), cap=100)
    with pytest.raises(CapExceeded):
        g.derived_subgroup()
    with pytest.raises(CapExceeded):
        dgroup_witness(g)
    assert limits == [100, 100]


# -- structural recognizer (construction route) ---------------------------------------


def test_structural_witness_frobenius():
    w = structural_dgroup_witness(evaluate(Frobenius((7, 13), 3)))
    assert w is not None
    assert (w.a_order, w.b_order, w.center_order) == (91, 3, 1)
    assert w.class_sizes == frozenset({1, 3, 91})


def test_structural_witness_with_central_factor():
    w = structural_dgroup_witness(evaluate(Direct((Frobenius((7,), 3), Cyclic(5)))))
    assert w is not None
    assert (w.a_order, w.b_order, w.center_order) == (7, 15, 5)


def test_structural_none_for_two_frobenius_factors():
    g = evaluate(Direct((Frobenius((7,), 3), Frobenius((11,), 5))))
    assert structural_dgroup_witness(g) is None


def test_structural_undecided_falls_back(corpus):
    g = evaluate(Semidirect((7,), (9,), ((2,),)))
    assert isinstance(g, MetabelianGroup)
    w = dgroup_witness_of(g)
    assert w is not None and (w.a_order, w.b_order) == (7, 9)


def test_both_routes_agree_on_corpus(corpus):
    for entry in corpus:
        spectral = not delta_of(entry.spectrum).is_connected()
        witness = dgroup_witness_of(entry.group)
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
        witness = dgroup_witness_of(entry.group)
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


def test_dgroup_witness_computes_no_element_order_and_verify_computes_each_once(monkeypatch):
    # dgroup_witness reads B off the classes, so it needs no element order.
    # The verifier computes each order once, on the whole group; the core
    # and both Hall subgroups read those orders and compute none.
    import classgraph.perm as perm

    g = to_permutation(evaluate(Direct((Frobenius((7,), 3), Frobenius((11,), 5), Cyclic(2)))))
    calls = []
    real = perm._order_of_images
    monkeypatch.setattr(perm, "_order_of_images", lambda images: calls.append(1) or real(images))
    assert dgroup_witness(g) is None
    assert len(calls) == 0
    report = verify_decomposition(g)
    assert report.status == VERIFIED
    assert report.witness.central_primes == (2,)
    assert (report.witness.a_order, report.witness.b_order) == (21, 55)
    assert len(calls) == g.order


def test_analyze_enumerates_a_structured_group_with_no_closed_form_once(monkeypatch):
    # The semidirect factor is not Frobenius, so neither the D-group
    # recognizer nor the verifier can decide from structure; both use the
    # one cached realization of the whole group (degree 7+6+11+5 = 29).
    from classgraph.reports import analyze_expr

    degrees = []
    elements = PermGroup.elements

    def recorded(self):
        if self._elements is None:
            degrees.append(self.degree)
        return elements(self)

    monkeypatch.setattr(PermGroup, "elements", recorded)
    expr = Direct((Semidirect((7,), (6,), ((2,),)), Frobenius((11,), 5)))
    report = analyze_expr("z7_rtimes_z6_x_f55", expr)
    assert report["order"] == 2310
    assert report["decomposition"]["status"] == VERIFIED
    assert degrees.count(29) == 1


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
