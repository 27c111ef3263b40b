"""Golden reports: the full pipeline output, pinned byte for byte.

Each case's ``report_to_json(analyze_expr(...))`` is stored under
``tests/golden/``.  The cases are the spec files in ``specs/``, Frobenius
groups written as fixed-point-free ``semidirect`` nodes (with the same
multipliers a ``frobenius`` node would pick), and the construction round
trip for every block tuple with m1 + m2 + m3 + m4 <= 8, stored as one
SHA-256 digest per tuple.  A spec's report must also not depend on how its
group is presented: its permutation realization, and a disguised copy of
that, give the same bytes.

Regenerate after an intended report change with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import product
from pathlib import Path

import pytest

from classgraph import (
    Cyclic,
    Direct,
    Frobenius,
    Perm,
    PermGroup,
    Permutation,
    Semidirect,
    construct_block_square_group,
    evaluate,
    parse_spec_file,
    parse_spec_text,
    serialize_spec,
)
from classgraph.reports import analyze_expr, report_to_json

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
GOLDEN = Path(__file__).resolve().parent / "golden"
ROUND_TRIP = GOLDEN / "round_trip_sha256.json"

# (kernel primes, top order, multipliers): each multiplier is the smallest
# unit of order exactly the top order, as ``auto_multiplier`` picks it.
FIXED_POINT_FREE = {
    "sd21": ((7,), 3, (2,)),
    "sd55": ((11,), 5, (3,)),
    "sd93": ((31,), 3, (5,)),
    "sd155": ((31,), 5, (2,)),
    "sd203": ((29,), 7, (7,)),
    "sd301": ((43,), 7, (4,)),
    "sd273": ((7, 13), 3, (2, 3)),
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
        realization = group.to_permutation()
        presentations = (expr, _perm_node(realization), _disguised(realization, random.Random(name)))
        reports = [report_to_json(analyze_expr(name, e)) for e in presentations]
        assert reports[1] == reports[0], name
        assert reports[2] == reports[0], name
        checked += 1
    assert checked == 16


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, expr in golden_cases().items():
        text = report_to_json(analyze_expr(name, expr))
        (GOLDEN / f"{name}.report.json").write_text(text, encoding="utf-8")
    digests = {",".join(map(str, m)): _digest(round_trip_report(m)) for m in round_trip_tuples()}
    ROUND_TRIP.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
