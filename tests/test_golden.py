"""Golden reports: the full pipeline output, pinned byte for byte.

Each case's ``report_to_json(analyze_expr(...))`` is stored under
``tests/golden/``.  The cases are the spec files in ``specs/``, Frobenius
groups written as fixed-point-free ``semidirect`` nodes (with the same
multipliers a ``frobenius`` node would pick), and the construction round
trip for every block tuple with m1 + m2 + m3 + m4 <= 8, stored as one
SHA-256 digest per tuple.  A spec's report must also not depend on how its
group is presented: its permutation realization, and a disguised copy of
that, give the same bytes.  So must Hypothesis-generated trees, under
reordered and re-associated direct factors, frobenius and semidirect
nodes swapped, and a disguised realization.  A structured group's Δ,
read off its construction tree, must equal ``delta_of`` on its spectrum,
and every generated group's Δ must obey the theorems on class-size graphs.
A generated structured group's π-subgroups, central split and verifier
answer must equal those of its permutation realization.

Regenerate after an intended report change with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from classgraph import (
    Abelian,
    Cyclic,
    Direct,
    Frobenius,
    Perm,
    PermGroup,
    Permutation,
    Semidirect,
    VERIFIED,
    construct_block_square_group,
    delta_of,
    evaluate,
    parse_spec_file,
    parse_spec_text,
    serialize_spec,
    strip_central_sylows,
    to_permutation,
    verify_decomposition,
)
from classgraph.primes import is_prime
from classgraph.reports import analyze_expr, report_to_json
from corpus import S3_PERM
from oracles import fixed_point_free_by_scan

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
GOLDEN = Path(__file__).resolve().parent / "golden"
ROUND_TRIP = GOLDEN / "round_trip_sha256.json"

# (kernel primes, top order, multipliers): each multiplier is the one
# ``auto_multiplier`` picks for kernel prime p and top order n, the power
# u**((p - 1) / n) mod p for the least u >= 2 that has order exactly n.
FIXED_POINT_FREE = {
    "sd21": ((7,), 3, (4,)),
    "sd55": ((11,), 5, (4,)),
    "sd93": ((31,), 3, (25,)),
    "sd155": ((31,), 5, (2,)),
    "sd203": ((29,), 7, (16,)),
    "sd301": ((43,), 7, (21,)),
    "sd273": ((7, 13), 3, (4, 3)),
}


def _semidirect(name: str) -> Semidirect:
    kernel, n, mults = FIXED_POINT_FREE[name]
    return Semidirect(kernel, (n,), (mults,))


def _frobenius(name: str) -> Frobenius:
    kernel, n, mults = FIXED_POINT_FREE[name]
    return Frobenius(kernel, n, mults)


def golden_cases() -> dict:
    cases = {path.stem: parse_spec_file(path)[1] for path in sorted(SPECS.glob("*.json"))}
    cases.update({name: _semidirect(name) for name in FIXED_POINT_FREE})
    cases["sd21_x_sd55"] = Direct((_semidirect("sd21"), _semidirect("sd55")))
    cases["sd21_x_z5"] = Direct((_semidirect("sd21"), Cyclic(5)))
    return cases


def round_trip_tuples() -> list[tuple[int, int, int, int]]:
    return [m for m in product(range(1, 6), repeat=4) if sum(m) <= 8]


def round_trip_report(m: tuple[int, int, int, int]) -> str:
    """Construct, serialize, parse back and analyze one block tuple."""
    built = construct_block_square_group(*m)
    name = "built_" + "_".join(map(str, m))
    name, expr = parse_spec_text(serialize_spec(name, built.expr))
    return report_to_json(analyze_expr(name, expr))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_report_matches_golden(name):
    expected = (GOLDEN / f"{name}.report.json").read_text(encoding="utf-8")
    assert report_to_json(analyze_expr(name, golden_cases()[name])) == expected


def test_round_trip_reports_match_golden():
    expected = json.loads(ROUND_TRIP.read_text(encoding="utf-8"))
    got = {",".join(map(str, m)): _digest(round_trip_report(m)) for m in round_trip_tuples()}
    assert got == expected


@pytest.mark.parametrize("name", sorted(FIXED_POINT_FREE))
def test_fixed_point_free_semidirect_reports_as_frobenius(name):
    kernel, n, _ = FIXED_POINT_FREE[name]
    assert evaluate(_semidirect(name)) == evaluate(Frobenius(kernel, n))
    assert report_to_json(analyze_expr(name, _semidirect(name))) == report_to_json(
        analyze_expr(name, _frobenius(name))
    )


def _perm_node(group: PermGroup) -> Perm:
    """The group's permutation realization, written out as a ``perm`` spec node."""
    node = Perm(group.degree, tuple(g.images for g in group.generators))
    return parse_spec_text(serialize_spec("perm", node))[1]


def _disguised(group: PermGroup, rng: random.Random) -> Perm:
    """The same group on relabelled points, generated otherwise.

    The points are permuted at random; one redundant generator, a product
    of two others, is added; and three Nielsen moves g_i <- g_i g_j each
    replace a generator without changing the group generated.
    """
    points = list(range(group.degree))
    rng.shuffle(points)
    relabel = Permutation(tuple(points))
    gens = [relabel.inverse() * g * relabel for g in group.generators]
    gens.append(gens[0] * gens[-1])
    for _ in range(3):
        i, j = rng.sample(range(len(gens)), 2)
        gens[i] = gens[i] * gens[j]
    return Perm(group.degree, tuple(g.images for g in gens))


def test_spec_reports_do_not_depend_on_the_presentation():
    checked = 0
    for path in sorted(SPECS.glob("*.json")):
        name, expr = parse_spec_file(path)
        group = evaluate(expr)
        if group.order > 20_000:
            continue
        realization = to_permutation(group)
        presentations = (expr, _perm_node(realization), _disguised(realization, random.Random(name)))
        reports = [report_to_json(analyze_expr(name, e)) for e in presentations]
        assert reports[1] == reports[0], name
        assert reports[2] == reports[0], name
        checked += 1
    assert checked == 16


# Leaves of the generated trees, by kind: every single-factor semidirect
# node on a kernel of order 3, 5, 7 or 9 and a top of order 2, 3, 4 or 6
# (trivial, fixed-point-free and neither) and some on two kernel primes;
# Frobenius nodes; cyclic and abelian nodes.
_LEAVES = {
    "semidirect": [
        Semidirect((m,), (n,), ((u,),))
        for m in (3, 5, 7, 9)
        for n in (2, 3, 4, 6)
        for u in range(1, m)
        if math.gcd(u, m) == 1 and pow(u, n, m) == 1
    ]
    + [Semidirect((7, 13), (3,), (row,)) for row in ((2, 9), (4, 3), (1, 3))],
    "frobenius": [
        Frobenius(kernel, n)
        for kernel, n in (
            ((3,), 2), ((5,), 2), ((5,), 4), ((7,), 2), ((7,), 3), ((7,), 6), ((11,), 5),
            ((13,), 3), ((13,), 4), ((7, 13), 3), ((7, 13), 6), ((31,), 5),
        )
    ],
    "cyclic": [Cyclic(n) for n in range(1, 13)],
    "abelian": [Abelian(orders) for orders in ((2, 2), (2, 3), (3, 3), (2, 4), (2, 2, 2), (5, 5))],
    # Coprime products of two Frobenius groups, whose graphs are block squares.
    "square": [
        Direct((Frobenius(ka, na), Frobenius(kb, nb)))
        for (ka, na), (kb, nb) in (
            (((5,), 4), ((7,), 3)), (((3,), 2), ((11,), 5)), (((5,), 2), ((7,), 3)),
            (((13,), 4), ((7,), 3)), (((7,), 3), ((11,), 5)), (((7,), 2), ((13,), 3)),
        )
    ],
}


def _enumerated(group) -> bool:
    """True when some part of a structured group is neither abelian nor Frobenius.

    The pipeline then analyses the group by enumerating its realization.
    """
    return any(not (part.is_abelian or part.frobenius) for part in group.factors or (group,))


def _overlapping(group) -> bool:
    """True for a product whose factors share a prime."""
    return bool(group.factors) and math.lcm(*(f.order for f in group.factors)) < group.order


# (order, enumerated) of each leaf, aligned with ``_LEAVES``.
_LEAF_FACTS = {
    kind: [(g.order, _enumerated(g)) for g in map(evaluate, leaves)]
    for kind, leaves in _LEAVES.items()
}


@st.composite
def _trees(draw, budget: int = 3000, depth: int = 2) -> tuple:
    """A construction tree of order at most ``budget``, its order, and whether it is enumerated.

    A tree is a leaf, or a direct product of two or three subtrees, each
    drawn within what the earlier ones leave of the budget.  A product is
    marked enumerated when a factor is, or when two factors share a prime,
    and a factor that would mark it so above order 1,000 ends it.  Products
    now answer factor by factor, so the mark overstates what the pipeline
    enumerates; the rule stays so that the derandomized draws stay the
    same.  A leaf's kind is drawn first, then a leaf of that kind that fits.
    """
    if depth and budget >= 4 and draw(st.booleans()):
        factors, order, enumerated = [], 1, False
        for _ in range(draw(st.integers(2, 3))):
            child, n, flag = draw(_trees(budget // order, depth - 1))
            joined = enumerated or flag or math.gcd(order, n) != 1
            if factors and joined and order * n > 1000:
                break
            factors.append(child)
            order, enumerated = order * n, joined
        return Direct(tuple(factors)), order, enumerated
    kind = draw(st.sampled_from(sorted(k for k in _LEAVES if min(_LEAF_FACTS[k])[0] <= budget)))
    fits = [i for i, (n, _) in enumerate(_LEAF_FACTS[kind]) if n <= budget]
    i = draw(st.sampled_from(fits))
    return (_LEAVES[kind][i], *_LEAF_FACTS[kind][i])


def _reassociated(expr, rng: random.Random):
    """The same group, every direct product's factors flattened, shuffled and regrouped."""
    if not isinstance(expr, Direct):
        return expr
    factors = []
    for child in expr.factors:
        child = _reassociated(child, rng)
        factors.extend(child.factors if isinstance(child, Direct) else (child,))
    rng.shuffle(factors)
    while len(factors) > 2 and rng.random() < 0.7:
        i = rng.randrange(len(factors) - 1)
        factors[i : i + 2] = [Direct((factors[i], factors[i + 1]))]
    return Direct(tuple(factors))


def _swapped(expr):
    """Each frobenius node as the equal semidirect node, and back where the kernel is prime."""
    if isinstance(expr, Direct):
        return Direct(tuple(_swapped(child) for child in expr.factors))
    if isinstance(expr, Frobenius):
        g = evaluate(expr)
        return Semidirect(g.kernel, g.top, g.multipliers)
    if (
        isinstance(expr, Semidirect)
        and len(expr.top) == 1
        and all(is_prime(m) for m in expr.kernel)
        and evaluate(expr).frobenius
    ):
        return Frobenius(expr.kernel, expr.top[0], expr.multipliers[0])
    return expr


def test_generated_tree_reports_do_not_depend_on_the_presentation():
    # Every move keeps the group, so it must keep the report: reordered and
    # re-associated direct factors, frobenius and fixed-point-free semidirect
    # nodes swapped, and the realization on randomly relabelled points.
    seen: Counter[str] = Counter()

    # A block square with a central factor needs order 2,310 at least, so
    # two are given explicitly.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_trees(), st.integers(0, 2**32 - 1))
    @example((Direct((Frobenius((5,), 2), Frobenius((7,), 3), Cyclic(11))), 2310, False), 0)
    @example((Direct((Direct((Frobenius((7,), 3), Cyclic(2))), Frobenius((11,), 5))), 2310, False), 1)
    def check(tree, seed):
        expr, order, enumerated = tree
        rng = random.Random(seed)
        group = evaluate(expr)
        realization = to_permutation(group)
        presentations = (
            expr,
            _reassociated(expr, rng),
            _swapped(expr),
            _disguised(realization, rng),
        )
        # A move that leaves the tree as it was needs no second report.
        reports = {e: report_to_json(analyze_expr("tree", e)) for e in set(presentations)}
        for e in presentations:
            assert reports[e] == reports[expr], (expr, e)
        report = json.loads(reports[expr])
        assert report["order"] == order <= (1000 if enumerated else 3000)
        seen["examples"] += 1
        seen["reassociated"] += presentations[1] != expr
        seen["swapped"] += presentations[2] != expr
        seen["overlapping product"] += _overlapping(group)
        seen["enumerated"] += enumerated
        seen["block square"] += report["block_square"]["found"]
        seen["central factor"] += bool((report["decomposition"]["witness"] or {}).get("central_primes"))

    check()
    assert seen["examples"] >= 100 + 2  # drawn and given
    assert min(seen.values()) > 0, seen


def _frobenius_product(count: int) -> Direct:
    """Coprime Frobenius groups whose complements are the first ``count`` primes.

    Each kernel is the least prime 1 mod its complement not used before.
    """
    complements = [p for p in range(2, 100) if is_prime(p)][:count]
    used, factors = set(complements), []
    for n in complements:
        kernel = next(k for k in range(n + 1, 10**4, n) if is_prime(k) and k not in used)
        used.add(kernel)
        factors.append(Frobenius((kernel,), n))
    return Direct(tuple(factors))


def test_tree_delta_is_the_spectrum_delta():
    # The golden cases, the specs among them; a product of 8 coprime Frobenius
    # groups; and a product with a non-Frobenius semidirect part, which reads
    # its own spectrum.
    cases = [
        *golden_cases().values(),
        _frobenius_product(8),
        Direct((Semidirect((7,), (9,), ((2,),)), Frobenius((11,), 5))),
    ]
    for expr in cases:
        group = evaluate(expr)
        assert group.delta() == delta_of(group.class_size_spectrum()), expr


def _diameter_at_most(graph, steps: int) -> bool:
    """True when every two vertices are joined by a path of at most ``steps`` edges."""
    adj, full = graph.adjacency, (1 << len(graph.vertices)) - 1
    for i in range(len(adj)):
        reach = 1 << i
        for _ in range(steps):
            for j in [j for j in range(len(adj)) if reach >> j & 1]:
                reach |= adj[j]
        if reach != full:
            return False
    return True


def test_generated_tree_delta_obeys_the_class_size_graph_theorems():
    # Δ(G) has at most two components, each complete when there are two;
    # diameter at most 3 when connected; and a bipartite complement (Dolfi,
    # Pacifici, Sanus, Sotomayor, J. Algebra 2020).  The tree route must
    # also give the Δ that the spectrum gives.
    seen: Counter[str] = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_trees())
    def check(tree):
        group = evaluate(tree[0])
        graph = group.delta()
        assert graph == delta_of(group.class_size_spectrum()), tree
        components = graph.components()
        assert len(components) <= 2, tree
        if len(components) == 2:
            assert all(graph.has_edge(p, q) for c in components for p, q in combinations(c, 2))
        else:
            assert _diameter_at_most(graph, 3), tree
        assert graph.complement_coloring is not None, tree
        seen["examples"] += 1
        seen["disconnected"] += len(components) == 2
        seen["diameter 2 or more"] += not _diameter_at_most(graph, 1)
        seen["overlapping product"] += _overlapping(group)

    check()
    assert seen["examples"] >= 200
    assert min(seen.values()) > 0, seen


def test_structured_pi_subgroups_and_verifier_agree_with_the_realization():
    # A structured group reads the pi-subgroups of its abelian and Frobenius
    # parts off the tree, and the verifier strips central Sylow subgroups
    # and takes A and B with them.  Each answer must be the one its
    # permutation realization gives.  Two Frobenius groups are given: one
    # with kernel Z49, and one whose cyclic complement has two top factors.
    seen: Counter[str] = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_trees())
    @example((Semidirect((49,), (3,), ((18,),)), 147, False))
    @example((Semidirect((13,), (2, 3), ((12,), (3,))), 78, False))
    def check(tree):
        group = evaluate(tree[0])
        realization = to_permutation(group)
        for r in range(len(group.primes) + 1):
            for pi in map(frozenset, combinations(group.primes, r)):
                mine, theirs = group.pi_subgroup(pi), realization.pi_subgroup(pi)
                assert (mine is None) == (theirs is None), (tree, pi)
                if mine is not None:
                    assert mine.order == theirs.order, (tree, pi)
                    assert mine.class_size_spectrum() == theirs.class_size_spectrum(), (tree, pi)
                seen["pi-subgroups"] += mine is not None
                seen["not a subgroup"] += mine is None
        split, expected = strip_central_sylows(group), strip_central_sylows(realization)
        assert split.central_primes == expected.central_primes, tree
        assert split.core.order == expected.core.order, tree
        report, expected = verify_decomposition(group), verify_decomposition(realization)
        assert (report.status, report.witness) == (expected.status, expected.witness), tree
        seen["structured"] += 1
        seen["verified"] += report.status == VERIFIED
        seen["central primes"] += bool(split.central_primes)

    check()
    assert seen["structured"] >= 100
    assert min(seen.values()) > 0, seen


def test_realization_is_faithful_and_laid_out_leaf_by_leaf():
    # to_permutation gives each leaf its own points, in factor order: a
    # permutation leaf's generators as they are; a structured leaf's kernel
    # generators, then its top generators, one block per cyclic factor; one
    # fixed point for a leaf with no blocks.  fixed_point_free_by_scan reads
    # that layout.  The realization must have the group's order and spectrum.
    seen: Counter[str] = Counter()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_trees())
    @example((Direct((S3_PERM, Semidirect((7,), (9,), ((2,),)))), 378, True))
    @example((Cyclic(1), 1, False))
    def check(tree):
        group = evaluate(tree[0])
        realization = to_permutation(group)
        assert realization.order == group.order, tree
        assert realization.class_size_spectrum() == group.class_size_spectrum(), tree
        gens, off = realization.generators, 0
        for leaf in group.factors or (group,):
            if isinstance(leaf, PermGroup):
                size, count = leaf.degree, len(leaf.generators)
                placed = [tuple(off + x for x in g.images) for g in leaf.generators]
                assert [g.images[off : off + size] for g in gens[:count]] == placed, tree
                seen["permutation leaf"] += 1
            else:
                k, blocks = len(leaf.kernel), leaf.kernel + leaf.top
                size, count = sum(blocks) or 1, len(blocks) or 1
                if k:
                    assert PermGroup(gens[:k]).order == math.prod(leaf.kernel), tree
                if leaf.top:
                    assert PermGroup(gens[k:count]).order == math.prod(leaf.top), tree
                if k and leaf.top:
                    assert fixed_point_free_by_scan(leaf) == leaf.frobenius, tree
                seen["no blocks"] += not blocks
                seen["non-Frobenius semidirect"] += not (leaf.is_abelian or leaf.frobenius)
            outside = [i for i in range(realization.degree) if not off <= i < off + size]
            assert all(g.images[i] == i for g in gens[:count] for i in outside), tree
            gens, off = gens[count:], off + size
        assert gens == () and realization.degree == off, tree
        seen["examples"] += 1
        seen["product"] += bool(group.factors)

    check()
    assert seen["examples"] >= 100 + 2  # drawn and given
    assert min(seen.values()) > 0, seen


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, expr in golden_cases().items():
        text = report_to_json(analyze_expr(name, expr))
        (GOLDEN / f"{name}.report.json").write_text(text, encoding="utf-8")
    digests = {",".join(map(str, m)): _digest(round_trip_report(m)) for m in round_trip_tuples()}
    ROUND_TRIP.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
