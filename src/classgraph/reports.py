"""Analysis reports: the full pipeline on one group, as plain JSON data.

Report shape::

    {
      "name": ...,
      "order": ...,
      "spectrum": [[size, multiplicity], ...],      # ascending by size
      "graph": {"vertices": [...], "edges": [[p, q], ...]},
      "connected": bool,
      "dgroup": {"spectral": bool, "witness": {...} | null},
      "block_square": {"found": bool, "partitions": [...], "admissible": bool},
      "decomposition": {"status": ..., "witness": {...} | null}
    }

Reports are deterministic: identical inputs produce byte-identical JSON.
"""

from __future__ import annotations

import json

from .analysis import NOT_BLOCK_SQUARE, VERIFIED, dgroup_witness_of, verify_decomposition
from .blocks import find_block_partitions, is_admissible_block_square
from .construction import GroupExpr, evaluate
from .errors import InternalInvariantError
from .graph import delta_of


def analyze_expr(
    name: str,
    expr: GroupExpr,
    *,
    enumeration_cap: int | None = None,
) -> dict:
    """Run the whole pipeline on a construction tree and assemble the report."""
    group = evaluate(expr, cap=enumeration_cap)
    spectrum = group.class_size_spectrum()
    graph = delta_of(spectrum, primes=group.primes)
    if graph.complement_coloring is None:
        raise InternalInvariantError(
            "the class-size graph's complement is not bipartite, against Dolfi et al. 2020"
        )
    partitions = tuple(find_block_partitions(graph))
    witness = dgroup_witness_of(group)
    decomposition = verify_decomposition(
        group,
        spectrum=spectrum,
        graph=graph,
        partitions=partitions,
    )
    return {
        "name": name,
        "order": group.order,
        "spectrum": [[size, count] for size, count in sorted(spectrum.items())],
        "graph": graph.to_json_obj(),
        "connected": graph.is_connected(),
        "dgroup": {
            "spectral": not graph.is_connected(),
            "witness": witness.to_json_obj() if witness is not None else None,
        },
        "block_square": {
            "found": bool(partitions),
            "partitions": [p.to_json_obj() for p in partitions],
            "admissible": any(
                is_admissible_block_square(graph, p)
                for p in partitions
            ),
        },
        "decomposition": {
            "status": decomposition.status,
            "witness": (
                decomposition.witness.to_json_obj()
                if decomposition.witness is not None
                else None
            ),
        },
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def report_invariant_violations(report: dict) -> list[str]:
    """Internal-consistency checks a finished report must satisfy."""
    out = []
    total = sum(size * count for size, count in report["spectrum"])
    if total != report["order"]:
        out.append(f"spectrum sums to {total}, order is {report['order']}")
    spectral = report["dgroup"]["spectral"]
    has_witness = report["dgroup"]["witness"] is not None
    if spectral != has_witness:
        out.append(
            f"dgroup recognizers disagree: spectral={spectral}, witness={has_witness}"
        )
    found = report["block_square"]["found"]
    status = report["decomposition"]["status"]
    if found and status != VERIFIED:
        out.append(f"block square found but decomposition status is {status}")
    if not found and status != NOT_BLOCK_SQUARE:
        out.append(f"no block square but decomposition status is {status}")
    if found and not report["block_square"]["admissible"]:
        out.append("group-derived block square is not admissible")
    return out
