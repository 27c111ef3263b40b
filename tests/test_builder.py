from __future__ import annotations

from itertools import product

import pytest

from classgraph import (
    VERIFIED,
    construct_block_square_group,
    delta_of,
    evaluate,
    find_block_partitions,
    is_admissible_block_square,
    is_block_square_partition,
    parse_spec_text,
    serialize_spec,
    verify_decomposition,
)
from classgraph.reports import analyze_expr
from oracles import canonical_partition


def test_unit_square_is_the_classic_realization():
    result = construct_block_square_group(1, 1, 1, 1)
    assert result.factor_a.kernel == (7,)
    assert result.factor_a.complement == 3
    assert result.factor_b.kernel == (11,)
    assert result.factor_b.complement == 5
    assert result.order == 1155
    assert result.graph.to_json_obj() == {
        "vertices": [3, 5, 7, 11],
        "edges": [[3, 5], [3, 11], [5, 7], [7, 11]],
    }
    assert result.partition.blocks() == ((7,), (11,), (5,), (3,))


def test_rejects_zero_block():
    with pytest.raises(ValueError):
        construct_block_square_group(0, 1, 1, 1)


def test_two_kernel_primes():
    result = construct_block_square_group(2, 1, 1, 1)
    assert result.factor_a.kernel == (7, 13)
    assert result.factor_a.complement == 3
    assert result.order == 273 * 55
    # The kernel clique edge {7,13} comes from the complement-part class size 91.
    assert result.graph.has_edge(7, 13)
    assert not result.graph.has_edge(3, 7)
    assert not result.graph.has_edge(3, 13)


def test_avoid_excludes_primes_deterministically():
    result = construct_block_square_group(1, 1, 1, 1, avoid=(3,))
    assert 3 not in set(result.graph.vertices)
    # Policy: smallest odd complement primes excluding 3 are 5 then 7.
    assert result.factor_a.complement == 5
    assert result.factor_a.kernel == (11,)
    assert result.factor_b.complement == 7
    assert result.factor_b.kernel == (29,)
    again = construct_block_square_group(1, 1, 1, 1, avoid=(3,))
    assert again.expr == result.expr


def test_partition_is_admissible_and_detected():
    result = construct_block_square_group(1, 2, 1, 1)
    assert is_block_square_partition(result.graph, result.partition)
    assert is_admissible_block_square(result.graph, result.partition)
    found = find_block_partitions(result.graph)
    assert canonical_partition(result.graph, result.partition) in found


def test_verification_pass_matches_computed_graph():
    result = construct_block_square_group(2, 2, 1, 1)
    group = evaluate(result.expr)
    assert delta_of(group.class_size_spectrum()) == result.graph
    report = verify_decomposition(group)
    assert report.status == VERIFIED


def test_construct_and_analyze_factor_only_cyclic_factor_orders(monkeypatch):
    # Class sizes are read against the group's primes, which come from the
    # cyclic factor orders, so nothing else is ever factored: the kernel
    # primes are checked by is_prime alone, a complement order is trial
    # divided by small primes, and Pollard rho never runs.  Every tuple of
    # total <= 12 runs.  Among them are (2, 1, 1, 6) and (1, 2, 5, 2), whose
    # class sizes include a product of two kernel primes above 10**6, which
    # only rho could split, and (1, 1, 8, 1), whose kernel prime of B is
    # 95504995301.
    import classgraph.primes as primes

    factored: list[int] = []
    rho: list[int] = []
    real_factorize, real_rho = primes.factorize, primes._pollard_rho
    monkeypatch.setattr(primes, "factorize", lambda n: factored.append(n) or real_factorize(n))
    monkeypatch.setattr(primes, "_pollard_rho", lambda n: rho.append(n) or real_rho(n))
    factor_orders: set[int] = set()
    tuples = [m for m in product(range(1, 10), repeat=4) if sum(m) <= 12]
    assert len(tuples) == 495
    for m in tuples:
        built = construct_block_square_group(*m)
        name, expr = parse_spec_text(serialize_spec("built", built.expr))
        report = analyze_expr(name, expr)
        assert report["decomposition"]["status"] == VERIFIED, m
        for factor in (built.factor_a, built.factor_b):
            factor_orders.update(factor.kernel)
            factor_orders.add(factor.complement)
    assert factored, "the complement orders are factored"
    assert set(factored) <= factor_orders
    assert rho == []


def test_prime_sets_disjoint_and_coprime_orders():
    import math

    result = construct_block_square_group(2, 1, 2, 1)
    blocks = result.partition.blocks()
    union = set()
    for b in blocks:
        assert not (union & set(b))
        union.update(b)
    a, b = evaluate(result.expr).factors
    assert math.gcd(a.order, b.order) == 1
    assert a.frobenius and b.frobenius


def test_prediction_mismatch_aborts(monkeypatch):
    # If the computed graph were ever not the admissible square on the
    # chosen blocks, the constructor must abort rather than return silently.
    import classgraph.builder as builder
    from classgraph import PredictionMismatch, PrimeGraph

    def edgeless(spectrum, primes):
        return PrimeGraph(primes, frozenset())

    monkeypatch.setattr(builder, "delta_of", edgeless)
    with pytest.raises(PredictionMismatch):
        construct_block_square_group(1, 1, 1, 1)


def test_a_wrong_automatic_multiplier_is_caught(monkeypatch):
    # evaluate seeds the Frobenius flag of an automatic-multiplier node, so
    # the builder must recompute the action's orders.  Here the multiplier
    # search tests only the first prime of the complement order, and for
    # (1, 2, 2, 1) the B factor's complement 3 * 5 gets a multiplier that is
    # not of order exactly 15, so the built group is not the predicted one.
    import classgraph.construction as construction
    from classgraph import PredictionMismatch

    real = construction.auto_multiplier
    monkeypatch.setattr(
        construction, "auto_multiplier", lambda p, n, n_primes: real(p, n, n_primes[:1])
    )
    with pytest.raises(PredictionMismatch, match="lost their Frobenius structure"):
        construct_block_square_group(1, 2, 2, 1)


def test_bound_exhausted_past_term_budget(monkeypatch):
    import classgraph.dirichlet as dirichlet
    from classgraph import BoundExhausted

    # B's kernel prime = 1 (mod 55) is 331, the seventh term of 1, 56, 111, ...
    monkeypatch.setattr(dirichlet, "TERMS_PER_PRIME", 6)
    with pytest.raises(BoundExhausted, match=r"1 \(mod 55\) in the 6 terms allowed"):
        construct_block_square_group(1, 1, 2, 1)
    monkeypatch.setattr(dirichlet, "TERMS_PER_PRIME", 7)
    assert construct_block_square_group(1, 1, 2, 1).factor_b.kernel == (331,)


def test_complement_product_past_bound_is_exhausted(monkeypatch):
    import classgraph.dirichlet as dirichlet
    from classgraph import BoundExhausted

    # pi3 = eight odd primes, product 4775249765; B's kernel prime is the
    # 21st term of its progression.
    result = construct_block_square_group(1, 1, 8, 1)
    assert result.factor_b.complement == 4775249765
    assert result.factor_b.kernel == (95504995301,)
    # Seventeen odd primes multiply past the exact-primality limit, so B's
    # search tests no term; only A's, 1 (mod 3), tests 4 and 7.
    tested: list[int] = []
    real_is_prime = dirichlet.is_prime
    monkeypatch.setattr(dirichlet, "is_prime", lambda n: tested.append(n) or real_is_prime(n))
    with pytest.raises(
        BoundExhausted, match=r"\(mod 13284305479207118118271795\) in the 1 terms allowed by the exact"
    ):
        construct_block_square_group(1, 1, 17, 1)
    assert tested == [4, 7]


def test_frozen_golden_values_small_grid():
    # Deterministic policy outputs, frozen after one verified pipeline run.
    expected = {
        (1, 1, 1, 1): ((7,), 3, (11,), 5),
        (2, 1, 1, 1): ((7, 13), 3, (11,), 5),
        (1, 2, 1, 1): ((7,), 3, (11, 31), 5),
        (1, 1, 2, 1): ((7,), 3, (331,), 55),
        (1, 1, 1, 2): ((31,), 15, (29,), 7),
    }
    for blocks, (k_a, n_a, k_b, n_b) in expected.items():
        result = construct_block_square_group(*blocks)
        assert result.factor_a.kernel == k_a, blocks
        assert result.factor_a.complement == n_a, blocks
        assert result.factor_b.kernel == k_b, blocks
        assert result.factor_b.complement == n_b, blocks
