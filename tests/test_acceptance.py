"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines; each test also prints an ``ACCEPTANCE ... PASS`` line
with its measured time (visible with ``-s`` or in the captured output).
All comparisons are exact integer arithmetic; the only tolerances are the
stated wall-clock budgets.
"""

from __future__ import annotations

import math
import random
import time
from itertools import product

from classgraph import (
    NOT_BLOCK_SQUARE,
    VERIFIED,
    BlockPartition,
    Direct,
    Frobenius,
    MetabelianGroup,
    class_size_spectrum,
    construct_block_square_group,
    delta_of,
    dgroup_witness,
    evaluate,
    find_block_partitions,
    is_admissible_block_square,
    strip_central_sylows,
    to_permutation,
    verify_decomposition,
)
from classgraph.primes import prime_factors
from corpus import corpus_entries
from oracles import (
    admissible_square,
    canonical_partition,
    class_sizes_by_conjugation,
    fast_block_square_exists,
    is_clique,
    non_neighbors,
    semidirect_class_sizes,
)
from test_blocks import adjacency_bitmasks, graph_from_bits


def _report(label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{label} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_dgroup_spectrum_law_f21():
    t0 = time.perf_counter()
    g = evaluate(Frobenius((7,), 3))
    spectrum = class_size_spectrum(g)
    assert dict(spectrum) == {1: 1, 3: 2, 7: 2}
    assert set(spectrum) == {1, 3, 7}
    witness = dgroup_witness(to_permutation(g))
    assert witness is not None
    assert (witness.a_order, witness.b_order, witness.center_order) == (7, 3, 1)
    assert set(spectrum) == {1, witness.a_order, witness.b_order // witness.center_order}
    _report("d-group spectrum law (F21)", t0, 1.0)


def test_disconnected_iff_dgroup_full_corpus():
    t0 = time.perf_counter()
    entries = corpus_entries()
    assert len(entries) >= 12
    for entry in entries:
        group = evaluate(entry.expr)
        spectrum = group.class_size_spectrum()
        spectral = not delta_of(spectrum).is_connected()
        perm = group.to_permutation()
        structural = dgroup_witness(perm)
        assert spectral == (structural is not None), entry.name
    _report("disconnected iff D-group (full corpus)", t0, 30.0)


def test_block_square_forward_f21_x_f55():
    t0 = time.perf_counter()
    g = evaluate(Direct((Frobenius((7,), 3), Frobenius((11,), 5))))
    assert g.order == 1155
    graph = delta_of(class_size_spectrum(g))
    assert graph.vertices == (3, 5, 7, 11)
    assert graph.edges == frozenset({(3, 5), (3, 11), (5, 7), (7, 11)})
    partitions = find_block_partitions(graph)
    assert partitions == [BlockPartition((3,), (5,), (11,), (7,))]
    _report("block square forward (F21xF55)", t0, 5.0)


def test_block_square_backward_verifier():
    t0 = time.perf_counter()
    g = to_permutation(evaluate(Direct((Frobenius((7,), 3), Frobenius((11,), 5)))))
    report = verify_decomposition(g)
    assert report.status == VERIFIED
    assert report.witness is not None
    assert report.witness.a_order == 21
    assert report.witness.b_order == 55
    s4 = next(e for e in corpus_entries() if e.name == "s4")
    z6 = next(e for e in corpus_entries() if e.name == "z6")
    assert verify_decomposition(evaluate(s4.expr)).status == NOT_BLOCK_SQUARE
    assert verify_decomposition(evaluate(z6.expr)).status == NOT_BLOCK_SQUARE
    _report("block square backward (verifier)", t0, 30.0)


def test_realizability_all_block_tuples():
    t0 = time.perf_counter()
    tuples = [
        (m1, m2, m3, m4)
        for m1, m2, m3, m4 in product(range(1, 6), repeat=4)
        if m1 + m2 + m3 + m4 <= 8
    ]
    assert len(tuples) == 70
    for blocks in tuples:
        result = construct_block_square_group(*blocks)
        group = evaluate(result.expr)
        computed = delta_of(class_size_spectrum(group))
        assert computed == result.graph, blocks
        assert result.graph == admissible_square(*result.partition.blocks()), blocks
        assert is_admissible_block_square(computed, result.partition), blocks
        found = find_block_partitions(computed)
        assert canonical_partition(computed, result.partition) in found, blocks
        report = verify_decomposition(
            group, spectrum=class_size_spectrum(group), graph=computed,
            partitions=tuple(found),
        )
        assert report.status == VERIFIED, blocks
    _report("realizability for all block tuples (sum <= 8)", t0, 120.0)


def test_structured_vs_oracle_spectra():
    t0 = time.perf_counter()
    checked = 0
    for entry in corpus_entries():
        if entry.order > 5000:
            continue
        group = evaluate(entry.expr)
        parts = [f for f in group.factors or (group,) if isinstance(f, MetabelianGroup)]
        if not parts:
            continue
        structured = class_size_spectrum(group)
        oracle = to_permutation(group).class_size_spectrum()
        assert structured == oracle, entry.name
        for part in parts:
            pairs = semidirect_class_sizes(part.kernel, part.top, part.multipliers)
            assert class_size_spectrum(part) == pairs, entry.name
        checked += 1
    assert checked >= 7
    _report("structured vs permutation and pair-arithmetic oracle spectra", t0, 60.0)


def test_detector_vs_partition_oracle():
    t0 = time.perf_counter()
    disagreements = 0
    total = 0
    for n in range(7):
        for bits in range(1 << (n * (n - 1) // 2)):
            g = graph_from_bits(n, bits)
            adj = adjacency_bitmasks(g)
            found = bool(find_block_partitions(g))
            if found != fast_block_square_exists(adj, n):
                disagreements += 1
            total += 1
    rng = random.Random(20240817)
    for _ in range(1000):
        g = graph_from_bits(7, rng.getrandbits(21))
        adj = adjacency_bitmasks(g)
        if bool(find_block_partitions(g)) != fast_block_square_exists(adj, 7):
            disagreements += 1
        total += 1
    assert total == 34868
    assert disagreements == 0
    _report("detector vs set-partition oracle", t0, 60.0)


def test_commuting_coprime_pairs_and_central_sylows():
    t0 = time.perf_counter()
    rng = random.Random(42)
    total_pairs = 0
    for entry in corpus_entries():
        group = evaluate(entry.expr)
        perm = group.to_permutation()
        spectrum = group.class_size_spectrum()
        vertices = set(delta_of(spectrum).vertices)
        # (b): a prime leaves the graph exactly when its Sylow subgroup is central.
        central = strip_central_sylows(perm).central_primes
        for p in prime_factors(entry.order):
            assert (p not in vertices) == (p in central), (entry.name, p)
        # (a): commuting coprime-order pairs multiply their class-size prime sets in.
        if entry.order > 2000:
            continue
        elements = perm.elements()
        size_of = class_sizes_by_conjugation(perm)
        orders = {x.images: x.order() for x in elements}
        found = 0
        attempts = 0
        while found < 1500 and attempts < 120_000:
            attempts += 1
            x = elements[rng.randrange(len(elements))]
            y = elements[rng.randrange(len(elements))]
            if math.gcd(orders[x.images], orders[y.images]) != 1:
                continue
            xy = x * y
            if (y * x).images != xy.images:
                continue
            found += 1
            lhs = set(prime_factors(size_of[x])) | set(prime_factors(size_of[y]))
            assert lhs <= set(prime_factors(size_of[xy])), entry.name
        total_pairs += found
    assert total_pairs >= 10_000, total_pairs
    _report(f"commuting coprime pairs ({total_pairs}) and central Sylows", t0, 120.0)


def test_non_neighborhood_cliques():
    t0 = time.perf_counter()
    for entry in corpus_entries():
        graph = delta_of(evaluate(entry.expr).class_size_spectrum())
        for v in graph.vertices:
            assert is_clique(graph, non_neighbors(graph, v)), (entry.name, v)
        # Dolfi, Pacifici, Sanus and Sotomayor: the complement is bipartite.
        assert graph.complement_coloring is not None, entry.name
    _report("non-neighborhood cliques on corpus graphs", t0, 60.0)
