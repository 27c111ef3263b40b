"""The benchmark's own tests: checkers reject wrong answers, workloads run.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import detector
import independent
import perm_route
import program
import realize
from layers import LAYER_METRICS, Trace

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _answered(workload, items):
    return [(item, workload.run(item)) for item in items]


@pytest.fixture(scope="module")
def realize_answers():
    return _answered(realize, realize.items(random.Random(1))[:12])


@pytest.fixture(scope="module")
def perm_answers():
    items = perm_route.items(random.Random(1))
    light = [i for i in items if sum(s * c for s, c in i.spectrum.items()) < 1000]
    return _answered(perm_route, light[::4])  # every kind of group


@pytest.fixture(scope="module")
def detector_answers():
    return _answered(detector, detector.items(random.Random(1))[:40])


def _with_report(output: str, change) -> str:
    report = json.loads(output)
    change(report)
    return json.dumps(report)


# -- the answers of a smoke pass are right -------------------------------------


def test_realize_answers_pass(realize_answers):
    for item, out in realize_answers:
        assert realize.check(item, out) == []


def test_perm_route_answers_pass(perm_answers):
    for item, out in perm_answers:
        assert perm_route.check(item, out) == []


def test_detector_answers_pass(detector_answers):
    assert any(out for _, out in detector_answers)
    for graph, out in detector_answers:
        assert detector.check(graph, out) == []


# -- corrupted answers are rejected ----------------------------------------------


def test_dropped_partition_is_rejected(detector_answers):
    graph, out = next((g, o) for g, o in detector_answers if len(o) > 1)
    assert detector.check(graph, out[1:])


def test_duplicated_orbit_is_rejected(detector_answers):
    graph, out = next((g, o) for g, o in detector_answers if o)
    assert detector.check(graph, list(out) + [out[0]])


def test_wrong_spectrum_entry_is_rejected(realize_answers, perm_answers):
    def bump(report):
        report["spectrum"][-1][1] += 1

    blocks, text = realize_answers[0][1]
    assert realize.check(realize_answers[0][0], (blocks, _with_report(text, bump)))
    item, text = perm_answers[0]
    assert perm_route.check(item, _with_report(text, bump))


def test_wrong_status_is_rejected(realize_answers, perm_answers):
    def flip(report):
        status = report["decomposition"]["status"]
        report["decomposition"]["status"] = (
            "not a block square" if status == "VERIFIED" else "VERIFIED"
        )

    blocks, text = realize_answers[0][1]
    assert realize.check(realize_answers[0][0], (blocks, _with_report(text, flip)))
    for item, text in perm_answers[:5]:
        assert perm_route.check(item, _with_report(text, flip))


def test_wrong_dgroup_witness_is_rejected(perm_answers):
    item, text = next((i, t) for i, t in perm_answers if i.dgroup)

    def drop(report):
        report["dgroup"]["witness"] = None

    assert perm_route.check(item, _with_report(text, drop))


def test_wrong_prime_block_is_rejected(realize_answers):
    item, (blocks, text) = realize_answers[0]
    pi1, pi2, pi3, pi4 = blocks
    assert realize.check(item, (((pi1[0] + 2,) + pi1[1:], pi2, pi3, pi4), text))


# -- the independent answers themselves -----------------------------------------


def test_closed_forms():
    assert independent.symmetric_spectrum(4) == Counter({1: 1, 3: 1, 6: 2, 8: 1})
    assert independent.frobenius_spectrum(7, 3) == Counter({1: 1, 3: 2, 7: 2})
    assert independent.units_of_order(3, 7) == [2, 4]


def test_generators_match_sympy():
    """The benchmark's own permutation specs give the closed-form spectra."""
    from sympy.combinatorics import Permutation, PermutationGroup

    rng = random.Random(5)
    item = perm_route._perm_item("t", (perm_route.F((5,), 2), perm_route.F((7,), 3)), rng)
    node = json.loads(item.text)["construct"]
    group = PermutationGroup([Permutation(g) for g in node["generators"]])
    sizes = Counter(len(c) for c in group.conjugacy_classes())
    assert sizes == item.spectrum


def test_orbit_enumeration_finds_the_square():
    vertices = [3, 5, 7, 11]
    edges = [[3, 5], [3, 11], [5, 7], [7, 11]]
    orbits = independent.block_square_orbits(vertices, edges)
    assert orbits == {independent.orbit_key(((3,), (5,), (11,), (7,)))}


# -- traced replays and the bypasses ----------------------------------------------


def test_realize_never_enumerates_a_permutation_group(realize_answers):
    trace = Trace()
    for item, out in realize_answers:
        assert realize.traced(item, trace, out)
    assert trace.counts["perm.elements"] == 0
    assert not any(layer.startswith("perm.") for layer in trace.busy)
    assert trace.counts["dirichlet.terms_scanned"] > 0


def test_detector_touches_only_the_blocks_layer(detector_answers):
    trace = Trace()
    for graph, out in detector_answers:
        assert detector.traced(graph, trace, out)
    assert set(trace.busy) == {"blocks.find_block_partitions"}


def test_perm_route_replay_agrees(perm_answers):
    trace = Trace()
    for item, out in perm_answers:
        assert perm_route.traced(item, trace, out)
    assert trace.counts["perm.elements"] > 0
    assert trace.busy["construction.spectrum.orbit_partition"] > 0


# -- the benchmark from its command line ------------------------------------------


def test_benchmark_json_names_every_metric():
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(program.WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert names == ["items_per_s", "item_p50_ms", "item_p90_ms", "peak_rss_mb", "setup_s"]


def test_run_prints_the_result_line():
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "detector"]
    cmd += ["--seed", "3", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 100
    for metric in BENCHMARK["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "realize"]
    cmd += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
