"""Workload ``realize``: build a group for every block tuple and analyze it.

One item is a block tuple (m1, m2, m3, m4).  It runs
``construct_block_square_group`` and sends the result through the spec
round trip: ``serialize_spec`` -> ``parse_spec_text`` -> ``analyze_expr`` ->
``report_to_json``.  Every tuple with m1 + m2 + m3 + m4 <= MAX_TOTAL is an
item, except the two in ``LEFT_OUT``; the seed only shuffles their order.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from itertools import product

from classgraph import (
    BoundExhausted,
    PrimeRequest,
    construct_block_square_group,
    find_primes_in_ap,
    parse_spec_text,
    serialize_spec,
)
from classgraph.reports import analyze_expr, report_to_json

import independent
from layers import Trace, replay_analysis

MAX_TOTAL = 11

# Tuples that fail today, so they are not items:
# (2, 1, 7, 1) exhausts the doubled prime-search bound by design
# (BoundExhausted); (1, 1, 8, 1) needs a progression modulus above the fixed
# 10**9 bound, and PrimeRequest rejects it with ValueError.
LEFT_OUT = frozenset({(2, 1, 7, 1), (1, 1, 8, 1)})


def items(rng) -> list[tuple[int, int, int, int]]:
    out = [
        m
        for m in product(range(1, MAX_TOTAL - 2), repeat=4)
        if sum(m) <= MAX_TOTAL and m not in LEFT_OUT
    ]
    rng.shuffle(out)
    return out


def warmup_item() -> tuple[int, int, int, int]:
    """A tuple whose factorizations grow the trial-division table to full size."""
    return (1, 1, 1, 6)


def _name(m) -> str:
    return "built_" + "_".join(map(str, m))


def run(m):
    built = construct_block_square_group(*m)
    name, expr = parse_spec_text(serialize_spec(_name(m), built.expr))
    return built.partition.blocks(), report_to_json(analyze_expr(name, expr))


def traced(m, trace: Trace, output) -> bool:
    """Replay ``run`` stage by stage; True when it agrees with ``output``."""
    built = trace.call("builder.construct", construct_block_square_group, *m)
    pi1, pi2, pi3, pi4 = built.partition.blocks()
    # The builder's two progression searches, with the primes it had used;
    # like the builder, a search that exhausts its bound runs again with
    # the bound doubled.
    for count, residue_of, used, found in (
        (m[0], pi4, pi4, pi1),
        (m[1], pi3, pi4 + pi1 + pi3, pi2),
    ):
        modulus = math.prod(residue_of)
        request = PrimeRequest(count=count, modulus=modulus, residue=1, exclude=frozenset(used))
        try:
            primes = trace.call("dirichlet.find_primes_in_ap", find_primes_in_ap, request)
        except BoundExhausted:
            request = dataclasses.replace(request, bound=2 * request.bound)
            primes = trace.call("dirichlet.find_primes_in_ap", find_primes_in_ap, request)
        if tuple(primes) != found:
            return False
        trace.count("dirichlet.terms_scanned", (max(primes) - 1) // modulus + 1)
    text = serialize_spec(_name(m), built.expr)
    _, expr = trace.call("specfile.parse", parse_spec_text, text)
    return replay_analysis(expr, trace, output[1])


def check(m, output) -> list[str]:
    """Problems with one item's answer, found apart from classgraph."""
    # Imported here, after the timed work, so sympy's memory stays out of
    # the peak-RSS reading.
    from sympy import isprime

    blocks, text = output
    report = json.loads(text)
    pi1, pi2, pi3, pi4 = blocks
    problems = []
    if tuple(map(len, blocks)) != tuple(m):
        problems.append(f"block sizes {tuple(map(len, blocks))} differ from {m}")
    primes = pi1 + pi2 + pi3 + pi4
    if len(set(primes)) != len(primes):
        problems.append("blocks share a prime")
    if not all(isprime(p) for p in primes):
        problems.append(f"a block entry is not prime: {blocks}")
    if any(p % math.prod(pi4) != 1 for p in pi1):
        problems.append("pi1 is not 1 mod prod(pi4)")
    if any(p % math.prod(pi3) != 1 for p in pi2):
        problems.append("pi2 is not 1 mod prod(pi3)")
    vertices, edges = independent.admissible_square(blocks)
    if report["graph"] != {"vertices": vertices, "edges": edges}:
        problems.append("graph differs from the admissible square on the blocks")
    order_a = math.prod(pi1) * math.prod(pi4)
    order_b = math.prod(pi2) * math.prod(pi3)
    spectrum = independent.convolve(
        independent.frobenius_spectrum(math.prod(pi1), math.prod(pi4)),
        independent.frobenius_spectrum(math.prod(pi2), math.prod(pi3)),
    )
    if Counter(dict(map(tuple, report["spectrum"]))) != spectrum:
        problems.append("spectrum differs from the convolved Frobenius closed forms")
    if report["order"] != order_a * order_b:
        problems.append(f"order {report['order']} is not {order_a * order_b}")
    if report["connected"] is not True or report["dgroup"] != {"spectral": False, "witness": None}:
        problems.append("a block square is connected and not a D-group")
    partitions = report["block_square"]["partitions"]
    keys = [
        independent.orbit_key([p[k] for k in ("pi1", "pi2", "pi3", "pi4")]) for p in partitions
    ]
    if keys != [independent.orbit_key(blocks)] or not report["block_square"]["admissible"]:
        problems.append("block square is not exactly the built admissible one")
    decomposition = report["decomposition"]
    witness = decomposition["witness"] or {}
    if decomposition["status"] != "VERIFIED":
        problems.append(f"decomposition status {decomposition['status']}")
    elif {witness["a_order"], witness["b_order"]} != {order_a, order_b}:
        problems.append("decomposition orders are not the two factor orders")
    return problems
