"""Command-line interface.

Commands: ``analyze``, ``construct``, ``corpus``, ``export-dot``.  Exit
codes: 0 success, 2 parse/usage error, 3 enumeration cap or detector
vertex bound exceeded, 4 internal invariant failure, 5 prime search budget
exhausted.  An error exits with its class's ``exit_code``, an unreadable
file with 2.  The environment variable ``CLASSGRAPH_CAP`` overrides the
enumeration cap.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .builder import CONGRUENCE_NOTE, construct_block_square_group
from .construction import evaluate
from .errors import ClassGraphError, InternalInvariantError, SpecFileError
from .graph import PrimeGraph
from .reports import analyze_expr, report_invariant_violations, report_to_json
from .specfile import expr_to_node, json_text, parse_spec_file, write_spec_file

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 4


def _enumeration_cap() -> int | None:
    raw = os.environ.get("CLASSGRAPH_CAP")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError as exc:
        raise SpecFileError(f"CLASSGRAPH_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise SpecFileError(f"CLASSGRAPH_CAP must be >= 1, got {cap}")
    return cap


def _cmd_analyze(args: argparse.Namespace) -> int:
    name, expr = parse_spec_file(args.spec)
    report = analyze_expr(
        name,
        expr,
        enumeration_cap=_enumeration_cap(),
    )
    violations = report_invariant_violations(report)
    if args.dot:
        # Written first, so a run that cannot write it prints no report.
        graph = PrimeGraph(
            tuple(report["graph"]["vertices"]),
            frozenset(tuple(e) for e in report["graph"]["edges"]),
        )
        Path(args.dot).write_text(graph.to_dot(), encoding="utf-8")
    sys.stdout.write(report_to_json(report))
    if violations:
        for v in violations:
            print(f"invariant violation: {v}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _cmd_construct(args: argparse.Namespace) -> int:
    try:
        blocks = tuple(int(x) for x in args.blocks.split(","))
    except ValueError:
        print(f"--blocks must be four integers, got {args.blocks!r}", file=sys.stderr)
        return EXIT_PARSE
    if len(blocks) != 4 or any(m < 1 for m in blocks):
        print(f"--blocks must be four positive integers, got {args.blocks!r}", file=sys.stderr)
        return EXIT_PARSE
    avoid: tuple[int, ...] = ()
    if args.avoid:
        try:
            avoid = tuple(int(x) for x in args.avoid.split(","))
        except ValueError:
            print(f"--avoid must be a comma list of primes, got {args.avoid!r}", file=sys.stderr)
            return EXIT_PARSE
    result = construct_block_square_group(*blocks, avoid=avoid)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = "block_square_" + "_".join(str(m) for m in blocks)
    spec_path = out_dir / f"{name}.json"
    report_path = out_dir / f"{name}.prediction.json"
    write_spec_file(spec_path, name, result.expr)
    prediction = {
        "name": name,
        "note": CONGRUENCE_NOTE,
        "blocks": list(blocks),
        "order": result.order,
        "factors": {
            "a": expr_to_node(result.factor_a),
            "b": expr_to_node(result.factor_b),
        },
        "partition": result.partition.to_json_obj(),
        "graph": result.graph.to_json_obj(),
        "verified": True,
    }
    report_path.write_text(json_text(prediction) + "\n", encoding="utf-8")
    print(f"wrote {spec_path} and {report_path}")
    return EXIT_OK


def _corpus_row(path: Path) -> tuple[str, dict | None, str | None]:
    try:
        name, expr = parse_spec_file(path)
        report = analyze_expr(name, expr, enumeration_cap=_enumeration_cap())
        return name, report, None
    except Exception as exc:  # collected per file, not fail-fast
        return path.stem, None, f"{type(exc).__name__}: {exc}"


def _cmd_corpus(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"not a directory: {directory}", file=sys.stderr)
        return EXIT_PARSE
    rows = sorted((_corpus_row(path) for path in directory.glob("*.json")), key=lambda r: r[0])
    failed = False
    header = f"{'name':24} {'order':>12} {'graph':16} {'dgroup':6} {'square':6} status"
    print(header)
    print("-" * len(header))
    for name, report, error in rows:
        if error is not None:
            failed = True
            print(f"{name:24} {'-':>12} {'-':16} {'-':6} {'-':6} ERROR: {error}")
            continue
        violations = report_invariant_violations(report)
        if violations:
            failed = True
        graph = report["graph"]
        summary = f"V={len(graph['vertices'])} E={len(graph['edges'])}"
        dgroup = "yes" if report["dgroup"]["witness"] is not None else "no"
        square = "yes" if report["block_square"]["found"] else "no"
        status = report["decomposition"]["status"]
        if violations:
            status += " [INVARIANT: " + "; ".join(violations) + "]"
        print(f"{name:24} {report['order']:>12} {summary:16} {dgroup:6} {square:6} {status}")
    return EXIT_INVARIANT if failed else EXIT_OK


def _cmd_export_dot(args: argparse.Namespace) -> int:
    _, expr = parse_spec_file(args.spec)
    sys.stdout.write(evaluate(expr, cap=_enumeration_cap()).delta().to_dot())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classgraph",
        description="Prime graphs on conjugacy class sizes: analysis and construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a group spec file")
    p_analyze.add_argument("spec", help="path to a group spec JSON file")
    p_analyze.add_argument("--dot", help="also write the graph as DOT to this file")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_construct = sub.add_parser(
        "construct", help="realize a block square with the given block sizes"
    )
    p_construct.add_argument("--blocks", required=True, help="four sizes: m1,m2,m3,m4")
    p_construct.add_argument("--avoid", help="comma list of primes to avoid")
    p_construct.add_argument("--out", default=".", help="output directory")
    p_construct.set_defaults(func=_cmd_construct)

    p_corpus = sub.add_parser("corpus", help="analyze every spec file in a directory")
    p_corpus.add_argument("dir", help="directory of *.json spec files")
    p_corpus.set_defaults(func=_cmd_corpus)

    p_dot = sub.add_parser("export-dot", help="print a spec's prime graph as DOT")
    p_dot.add_argument("spec", help="path to a group spec JSON file")
    p_dot.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ClassGraphError as exc:
        internal = isinstance(exc, InternalInvariantError)
        print(f"{'internal invariant failure' if internal else 'error'}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
