from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from classgraph import serialize_spec
from classgraph.cli import main
from classgraph.specfile import MAX_NESTING
from corpus import S3_PERM, S4_PERM, corpus_entries

CLI = [sys.executable, "-m", "classgraph.cli"]


def run_cli(args, **kwargs):
    env = dict(os.environ)
    env.update(kwargs.pop("env", {}))
    return subprocess.run(CLI + args, capture_output=True, text=True, env=env, **kwargs)


def entry_by_name(name: str):
    return next(e for e in corpus_entries() if e.name == name)


def write_spec(directory: Path, name: str, expr) -> Path:
    path = directory / f"{name}.json"
    path.write_text(serialize_spec(name, expr), encoding="utf-8")
    return path


@pytest.fixture()
def f21_spec(tmp_path: Path) -> Path:
    return write_spec(tmp_path, "f21", entry_by_name("f21").expr)


def test_analyze_f21(f21_spec):
    proc = run_cli(["analyze", str(f21_spec)])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["order"] == 21
    assert report["spectrum"] == [[1, 1], [3, 2], [7, 2]]
    assert report["dgroup"]["spectral"] is True
    assert report["dgroup"]["witness"]["a_order"] == 7
    assert report["decomposition"]["status"] == "not a block square"


def test_analyze_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    proc = run_cli(["analyze", str(bad)])
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_analyze_missing_file_exits_2(tmp_path):
    proc = run_cli(["analyze", str(tmp_path / "absent.json")])
    assert proc.returncode == 2


def test_analyze_directory_exits_2(tmp_path):
    proc = run_cli(["analyze", str(tmp_path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_analyze_s4_not_block_square(tmp_path):
    spec = write_spec(tmp_path, "s4", S4_PERM)
    proc = run_cli(["analyze", str(spec)])
    report = json.loads(proc.stdout)
    assert report["block_square"]["found"] is False
    assert report["graph"] == {"vertices": [2, 3], "edges": [[2, 3]]}


def test_analyze_cap_env_exits_3(tmp_path):
    spec = write_spec(tmp_path, "s4", S4_PERM)
    proc = run_cli(["analyze", str(spec)], env={"CLASSGRAPH_CAP": "5"})
    assert proc.returncode == 3


def test_analyze_dot_output(tmp_path, f21_spec):
    dot = tmp_path / "graph.dot"
    proc = run_cli(["analyze", str(f21_spec), "--dot", str(dot)])
    assert proc.returncode == 0
    text = dot.read_text(encoding="utf-8")
    assert text == "graph delta {\n  3;\n  7;\n}\n"


def test_analyze_unwritable_dot_exits_2_with_no_report(tmp_path, f21_spec):
    proc = run_cli(["analyze", str(f21_spec), "--dot", str(tmp_path / "missing" / "x.dot")])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")


def test_analyze_reports_byte_stable(f21_spec):
    a = run_cli(["analyze", str(f21_spec)]).stdout
    b = run_cli(["analyze", str(f21_spec)]).stdout
    assert a == b


def test_export_dot_exits_4_when_a_class_size_escapes_the_group_primes(
    f21_spec, monkeypatch, capsys
):
    from classgraph import MetabelianGroup

    monkeypatch.setattr(MetabelianGroup, "primes", (3,))
    assert main(["export-dot", str(f21_spec)]) == 4
    assert "outside the group's primes" in capsys.readouterr().err


def test_analyze_exits_4_without_searching_when_the_complement_is_not_bipartite(
    f21_spec, monkeypatch, capsys
):
    from classgraph import PrimeGraph, reports

    # The 5-cycle is its own complement, an odd cycle.
    c5 = PrimeGraph((2, 3, 5, 7, 11), frozenset({(2, 3), (3, 5), (5, 7), (7, 11), (2, 11)}))
    searched = []
    monkeypatch.setattr(reports, "delta_of", lambda spectrum, primes=None: c5)
    monkeypatch.setattr(reports, "find_block_partitions", lambda *a, **k: searched.append(a))
    assert main(["analyze", str(f21_spec)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "not bipartite" in err and "Dolfi" in err
    assert "Traceback" not in err
    assert searched == []


def test_vertex_bound_exits_3(f21_spec, monkeypatch, capsys):
    from classgraph import TooManyVertices, reports

    def too_many(graph):
        raise TooManyVertices("21 vertices exceeds search bound 20")

    monkeypatch.setattr(reports, "find_block_partitions", too_many)
    assert main(["analyze", str(f21_spec)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: 21 vertices exceeds search bound 20\n"


def test_builtin_value_error_is_not_an_input_error(f21_spec, monkeypatch):
    from classgraph import reports

    def broken(spectrum, primes=None):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(reports, "delta_of", broken)
    with pytest.raises(ValueError, match="a bug, not bad input"):
        main(["analyze", str(f21_spec)])


def test_non_utf8_spec_exits_2(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_bytes(b"\xff\xfe{")
    assert main(["analyze", str(spec)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: spec file is not UTF-8")


def test_bad_perm_images_exit_2(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(
        '{"name": "bad", "construct": {"op": "perm", "degree": 3, "generators": [[0, 0, 1]]}}',
        encoding="utf-8",
    )
    assert main(["analyze", str(spec)]) == 2
    assert capsys.readouterr().err.startswith("error: not a permutation")


def test_export_dot(tmp_path):
    spec = write_spec(tmp_path, "s4", S4_PERM)
    proc = run_cli(["export-dot", str(spec)])
    assert proc.returncode == 0
    assert proc.stdout == "graph delta {\n  2;\n  3;\n  2 -- 3;\n}\n"


def test_cap_env_bounds_export_dot_like_analyze(tmp_path):
    # z7 x| z9 (order 63) has no closed-form spectrum, so both commands
    # enumerate its permutation realization, which the cap stops.
    spec = write_spec(tmp_path, "z7_rtimes_z9", entry_by_name("z7_rtimes_z9").expr)
    for command in ("analyze", "export-dot"):
        proc = run_cli([command, str(spec)], env={"CLASSGRAPH_CAP": "62"})
        assert proc.returncode == 3, (command, proc.stderr)
        assert proc.stdout == ""
        proc = run_cli([command, str(spec)], env={"CLASSGRAPH_CAP": "63"})
        assert proc.returncode == 0, (command, proc.stderr)


def test_construct_writes_and_verifies(tmp_path):
    proc = run_cli(["construct", "--blocks", "1,1,1,1", "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    spec_path = tmp_path / "block_square_1_1_1_1.json"
    pred_path = tmp_path / "block_square_1_1_1_1.prediction.json"
    assert spec_path.exists() and pred_path.exists()
    prediction = json.loads(pred_path.read_text(encoding="utf-8"))
    assert prediction["order"] == 1155
    assert prediction["verified"] is True
    assert prediction["factors"]["a"] == {"op": "frobenius", "kernel": [7], "complement": 3}
    # The emitted spec analyzes cleanly and shows the predicted graph.
    analyzed = json.loads(run_cli(["analyze", str(spec_path)]).stdout)
    assert analyzed["graph"] == prediction["graph"]
    assert analyzed["decomposition"]["status"] == "VERIFIED"


def test_construct_avoid_flag(tmp_path):
    proc = run_cli(
        ["construct", "--blocks", "1,1,1,1", "--avoid", "3", "--out", str(tmp_path)]
    )
    assert proc.returncode == 0, proc.stderr
    prediction = json.loads(
        (tmp_path / "block_square_1_1_1_1.prediction.json").read_text(encoding="utf-8")
    )
    assert 3 not in prediction["graph"]["vertices"]
    assert prediction["factors"]["a"] == {"op": "frobenius", "kernel": [11], "complement": 5}


def test_construct_usage_errors(tmp_path):
    proc = run_cli(["construct", "--blocks", "0,1,1,1", "--out", str(tmp_path)])
    assert proc.returncode == 2
    proc = run_cli(["construct", "--blocks", "1,1,1", "--out", str(tmp_path)])
    assert proc.returncode == 2
    proc = run_cli(["construct", "--blocks", "a,b,c,d", "--out", str(tmp_path)])
    assert proc.returncode == 2


def test_construct_out_is_an_existing_file_exits_2(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    proc = run_cli(["construct", "--blocks", "1,1,1,1", "--out", str(taken)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_construct_complement_past_bound_exits_5(tmp_path):
    # pi3 = nine odd primes, product 3234846615, past the doubled 10**9 bound.
    proc = run_cli(["construct", "--blocks", "1,1,1,9", "--out", str(tmp_path)])
    assert proc.returncode == 5
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_corpus_runs_clean(tmp_path):
    for entry in corpus_entries():
        if entry.order <= 1200:
            write_spec(tmp_path, entry.name, entry.expr)
    proc = run_cli(["corpus", str(tmp_path)])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l and not l.startswith(("name", "-"))]
    assert len(lines) == sum(1 for e in corpus_entries() if e.order <= 1200)
    names = [l.split()[0] for l in lines]
    assert names == sorted(names)


def test_corpus_empty_directory(tmp_path):
    proc = run_cli(["corpus", str(tmp_path)])
    assert proc.returncode == 0


def test_corpus_collects_errors(tmp_path):
    write_spec(tmp_path, "s3", S3_PERM)
    (tmp_path / "broken.json").write_text("{", encoding="utf-8")
    big = write_spec(tmp_path, "big", entry_by_name("f21_x_f55").expr)
    proc = run_cli(["corpus", str(tmp_path)], env={"CLASSGRAPH_CAP": "100"})
    assert proc.returncode != 0
    assert "ERROR" in proc.stdout
    assert "s3" in proc.stdout
    del big


def test_corpus_rejects_non_directory(tmp_path):
    proc = run_cli(["corpus", str(tmp_path / "nowhere")])
    assert proc.returncode == 2


def _nested_direct_spec(depth: int) -> str:
    """A spec whose construct is `depth` levels of one-factor direct nodes."""
    head = '{"op": "direct", "factors": [' * (depth - 1)
    tail = "]}" * (depth - 1)
    return '{"name": "deep", "construct": ' + head + '{"op": "cyclic", "n": 6}' + tail + "}"


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1200])
def test_analyze_deeply_nested_spec_exits_2(tmp_path, depth):
    spec = tmp_path / "deep.json"
    spec.write_text(_nested_direct_spec(depth), encoding="utf-8")
    proc = run_cli(["analyze", str(spec)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("depth", [50, MAX_NESTING])
def test_analyze_nested_spec_within_limit(tmp_path, depth):
    spec = tmp_path / "deep.json"
    spec.write_text(_nested_direct_spec(depth), encoding="utf-8")
    proc = run_cli(["analyze", str(spec)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["order"] == 6


# -- fuzzing ------------------------------------------------------------------

_SMALL = st.integers(-3, 60)
_INTS = st.lists(_SMALL, max_size=4)
# A value of the wrong type or shape for whichever field it lands in.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    _SMALL,
    _INTS,
    st.lists(_INTS, max_size=2),
    st.dictionaries(st.text(max_size=2), _SMALL, max_size=2),
)
_FIELDS = ("n", "orders", "kernel", "complement", "multipliers", "top", "factors")


@st.composite
def _perm_nodes(draw) -> dict:
    """Perm nodes whose generators are permutations, or images that are not."""
    degree = draw(st.integers(0, 8))
    perms = st.permutations(range(degree)).map(list)
    images = st.lists(_SMALL, max_size=degree + 1)
    gens = draw(st.lists(st.one_of(perms, images), min_size=1, max_size=3))
    if draw(st.integers(0, 9)) == 9:
        degree = draw(_SMALL)
    return {"op": "perm", "degree": degree, "generators": gens}


_GOOD_LEAVES = (
    st.fixed_dictionaries({"op": st.just("cyclic"), "n": _SMALL}),
    st.fixed_dictionaries({"op": st.just("abelian"), "orders": _INTS}),
    st.fixed_dictionaries(
        {"op": st.just("frobenius"), "kernel": _INTS, "complement": _SMALL},
        optional={"multipliers": _INTS},
    ),
    st.fixed_dictionaries(
        {
            "op": st.just("semidirect"),
            "kernel": _INTS,
            "top": _INTS,
            "multipliers": st.lists(_INTS, max_size=3),
        }
    ),
    _perm_nodes(),
)
# Wrong shapes: a known or unknown op with fields of any type, or no object at all.
_BAD_LEAVES = (
    st.fixed_dictionaries(
        {"op": st.sampled_from(("cyclic", "frobenius", "semidirect", "direct", "perm", "x"))},
        optional={field: _JUNK for field in _FIELDS},
    ),
    _JUNK,
)
# Each kind of well-shaped leaf is drawn three times as often as each badly shaped one.
_LEAVES = st.sampled_from(_GOOD_LEAVES * 3 + _BAD_LEAVES).flatmap(lambda leaf: leaf)
_NODES = st.recursive(
    _LEAVES,
    lambda children: st.fixed_dictionaries(
        {"op": st.just("direct"), "factors": st.lists(children, min_size=1, max_size=3)}
    ),
    max_leaves=4,
)


@st.composite
def _spec_bytes(draw) -> bytes:
    """A spec file's bytes: well-formed, truncated, junk-prefixed or not UTF-8."""
    doc = {"name": "fuzz", "construct": draw(_NODES)}
    # Six intact documents to each damaged one of every kind.
    damage = draw(st.sampled_from(("none",) * 6 + ("name", "key", "cut", "prefix", "bytes")))
    if damage == "name":
        doc["name"] = draw(_JUNK)
    elif damage == "key":
        doc["extra"] = 1
    data = json.dumps(doc).encode("utf-8")
    if damage == "cut":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif damage == "prefix":
        data = draw(st.binary(min_size=1, max_size=4)) + data
    elif damage == "bytes":
        data = draw(st.sampled_from((b"\xff\xfe{", b"\x80", b'{"name": "\xc3"}')))
    return data


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=_spec_bytes())
def test_analyze_fuzz_exits_with_a_documented_code(tmp_path, monkeypatch, data):
    # The fixtures are set once for the whole run; each example rewrites the file.
    monkeypatch.setenv("CLASSGRAPH_CAP", "2000")
    spec = tmp_path / "fuzz.json"
    spec.write_bytes(data)
    assert main(["analyze", str(spec)]) in {0, 2, 3, 4, 5}
