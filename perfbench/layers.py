"""Per-layer timing from outside classgraph.

A traced item replays the stages of ``classgraph.reports.analyze_expr``
(and, for built groups, of the construction) one public call at a time and
adds each call's time to the busy time of the layer it belongs to.  Layers
are named by module, as listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from classgraph import (
    DGroupWitness,
    PermGroup,
    class_size_spectrum,
    convolve_spectra,
    delta_of,
    dgroup_witness,
    evaluate,
    find_block_partitions,
    structural_dgroup_witness,
    to_permutation,
    verify_decomposition,
)
from classgraph.reports import report_to_json

BUSY = (
    "builder.construct",
    "dirichlet.find_primes_in_ap",
    "specfile.parse",
    "construction.evaluate",
    "construction.spectrum.closed_form",
    "construction.spectrum.convolution",
    "construction.spectrum.orbit_partition",
    "construction.to_permutation",
    "perm.enumerate",
    "perm.classes",
    "graph.delta_of",
    "blocks.find_block_partitions",
    "analysis.dgroup_witness.structural",
    "analysis.dgroup_witness.permutation",
    "analysis.verify_decomposition",
    "reports.report_to_json",
)
COUNTS = (
    "dirichlet.terms_scanned",
    "perm.elements",
    "perm.classes",
    "graph.vertices",
    "graph.edges",
    "blocks.partitions",
)
OVERHEAD = "trace.overhead_pct"

# Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = (
    {f"{name}.busy_ms": "ms" for name in BUSY}
    | {name: "count" for name in COUNTS}
    | {OVERHEAD: "%"}
)


class Trace:
    """Busy seconds and counts per layer, summed over the traced calls."""

    def __init__(self) -> None:
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)

    def call(self, layer: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.busy[layer] += time.perf_counter() - t0

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n


def detect(graph, trace: Trace):
    """The block-square detector on one graph, with its input and output sizes."""
    trace.count("graph.vertices", len(graph.vertices))
    trace.count("graph.edges", len(graph.edges))
    partitions = tuple(trace.call("blocks.find_block_partitions", find_block_partitions, graph))
    trace.count("blocks.partitions", len(partitions))
    return partitions


def replay_analysis(expr, trace: Trace, report_text: str) -> bool:
    """Replay ``analyze_expr`` and ``report_to_json`` stage by stage.

    ``report_to_json`` gets the untraced report, read back from
    ``report_text``.  True when the replayed spectrum, partitions and
    decomposition status agree with that report.
    """
    group = trace.call("construction.evaluate", evaluate, expr)
    if isinstance(group, PermGroup):
        _enumerate(group, trace)
        classes = trace.call("perm.classes", group.conjugacy_classes)
        trace.count("perm.classes", len(classes))
        spectrum = group.class_size_spectrum()
    else:
        spectrum = _spectrum(group, trace)
    graph = trace.call("graph.delta_of", delta_of, spectrum)
    partitions = detect(graph, trace)
    if isinstance(group, PermGroup):
        trace.call("analysis.dgroup_witness.permutation", dgroup_witness, group)
    else:
        witness = trace.call(
            "analysis.dgroup_witness.structural", structural_dgroup_witness, group
        )
        if witness is not None and not isinstance(witness, DGroupWitness):
            # Structure left the verdict open: analyze_expr falls back to the
            # permutation route, whose conversion also enumerates the group.
            perm = trace.call(
                "construction.to_permutation", to_permutation, group, verify_order=False
            )
            if _enumerate(perm, trace) != group.order:
                raise AssertionError("permutation realization changed the order")
            trace.call("analysis.dgroup_witness.permutation", dgroup_witness, perm)
    decomposition = trace.call(
        "analysis.verify_decomposition",
        verify_decomposition,
        group,
        spectrum=spectrum,
        graph=graph,
        partitions=partitions,
    )
    report = json.loads(report_text)
    trace.call("reports.report_to_json", report_to_json, report)
    return (
        report["spectrum"] == [[size, count] for size, count in sorted(spectrum.items())]
        and report["block_square"]["partitions"] == [p.to_json_obj() for p in partitions]
        and report["decomposition"]["status"] == decomposition.status
    )


def _spectrum(group, trace: Trace) -> Counter:
    """``class_size_spectrum`` split by route: a coprime product convolves
    the spectra of its factors, each from its closed form or orbits."""
    if group.factors:
        spectrum = Counter({1: 1})
        for part in group.factors:
            spectrum = trace.call(
                "construction.spectrum.convolution",
                convolve_spectra,
                spectrum,
                _spectrum(part, trace),
            )
        return spectrum
    route = "closed_form" if group.is_abelian or group.frobenius else "orbit_partition"
    return trace.call(f"construction.spectrum.{route}", class_size_spectrum, group)


def _enumerate(group: PermGroup, trace: Trace) -> int:
    order = len(trace.call("perm.enumerate", group.elements))
    trace.count("perm.elements", order)
    return order
