"""Workload ``perm_route``: groups classgraph decides by permutation enumeration.

One item is a spec text run through ``parse_spec_text`` -> ``analyze_expr``
-> ``report_to_json``.  The make-up of a round is fixed by ``PRODUCTS``,
``SEMIDIRECTS`` and ``SYMMETRIC``, and so is their order; the seed picks
each Frobenius multiplier among the units of the right order, relabels the
points of every permutation spec and shuffles its generators.  Every group
is built here from its definition, not with classgraph.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass

from classgraph import parse_spec_text
from classgraph.reports import analyze_expr, report_to_json

import independent
from layers import Trace, replay_analysis

VERIFIED = "VERIFIED"
NOT_BLOCK_SQUARE = "not a block square"


def F(kernel: tuple[int, ...], n: int):
    """Frobenius factor: kernel primes, each 1 mod the cyclic complement order n."""
    return ("F", kernel, n)


def Z(c: int):
    """Central cyclic factor."""
    return ("Z", c)


def S(n: int):
    """Symmetric group factor."""
    return ("S", n)


# Direct products given as permutation specs: (factors, copies per round).
PRODUCTS = (
    # coprime products of two Frobenius groups, |G| from 210 to 4305; the
    # order-15015 product (about 11 s) is left out: one sample that long
    # made every run a single round whose figures moved by a tenth
    # (README.md)
    ((F((5,), 2), F((7,), 3)), 4),
    ((F((3,), 2), F((11,), 5)), 4),
    ((F((5,), 2), F((13,), 3)), 4),
    ((F((5,), 4), F((7,), 3)), 4),
    ((F((11,), 2), F((7,), 3)), 4),
    ((F((7,), 2), F((13,), 3)), 4),
    ((F((7,), 3), F((11,), 5)), 2),
    ((F((13,), 3), F((11,), 5)), 1),
    ((F((7,), 3), F((31,), 5)), 1),
    ((F((7,), 3), F((41,), 5)), 1),
    # the same times a central cyclic factor
    ((F((5,), 2), F((7,), 3), Z(11)), 1),
    ((F((3,), 2), F((11,), 5), Z(7)), 1),
    ((F((7,), 3), F((11,), 5), Z(2)), 1),
    # products whose primes overlap: no block square
    ((F((7,), 3), F((7,), 3)), 5),
    ((F((11,), 5), S(4)), 5),
    ((F((7,), 3), F((3,), 2)), 5),
    ((F((5,), 2), F((11,), 5)), 5),
    ((F((7,), 3), F((13,), 3)), 3),
)
# Frobenius groups written as fixed-point-free ``semidirect`` nodes, which
# carry no Frobenius provenance: (kernel primes, top order, copies).
SEMIDIRECTS = (
    ((7,), 3, 7),
    ((11,), 5, 7),
    ((31,), 3, 7),
    ((31,), 5, 7),
    ((29,), 7, 7),
    ((43,), 7, 7),
    ((7, 13), 3, 7),
)
# Symmetric groups as permutation specs: (degree, copies).
SYMMETRIC = ((4, 12), (5, 12), (6, 6))


@dataclass(frozen=True)
class Item:
    """A spec text and the answers known from how the group was built."""

    name: str
    text: str
    spectrum: Counter
    dgroup: tuple[int, int, int] | None  # (|A|, |B|, |Z|) when a D-group
    factor_orders: frozenset[int] | None  # the A x B orders when a block square
    central_primes: tuple[int, ...]


def _factor(spec, rng):
    """Generators, spectrum and order of one factor."""
    if spec[0] == "F":
        _, kernel, n = spec
        mults = tuple(rng.choice(independent.units_of_order(n, p)) for p in kernel)
        k = math.prod(kernel)
        gens = independent.frobenius_generators(kernel, mults, n)
        return gens, independent.frobenius_spectrum(k, n), k * n
    if spec[0] == "Z":
        return independent.cyclic_generators(spec[1]), Counter({1: spec[1]}), spec[1]
    n = spec[1]
    gens = independent.symmetric_generators(n)
    return gens, independent.symmetric_spectrum(n), math.factorial(n)


def _perm_item(name: str, factors, rng) -> Item:
    built = [_factor(spec, rng) for spec in factors]
    degree, gens = independent.direct_generators([gens for gens, _, _ in built])
    spectrum = Counter({1: 1})
    for _, part, _ in built:
        spectrum = independent.convolve(spectrum, part)
    orders = [order for _, _, order in built]
    frobenius = [order for spec, order in zip(factors, orders) if spec[0] == "F"]
    # Two Frobenius factors and central cyclic ones, all of coprime orders.
    square = (
        len(frobenius) == 2
        and all(spec[0] in "FZ" for spec in factors)
        and math.lcm(*orders) == math.prod(orders)
    )
    node = {"op": "perm", "degree": degree, "generators": independent.relabel(degree, gens, rng)}
    return Item(
        name=name,
        text=json.dumps({"name": name, "construct": node}),
        spectrum=spectrum,
        # Products of two nonabelian groups, and S_n for n >= 4, have a
        # connected prime graph: none is a D-group.
        dgroup=None,
        factor_orders=frozenset(frobenius) if square else None,
        central_primes=tuple(sorted(s[1] for s in factors if s[0] == "Z")) if square else (),
    )


def _semidirect_item(name: str, kernel, n: int, rng) -> Item:
    mults = [rng.choice(independent.units_of_order(n, p)) for p in kernel]
    node = {"op": "semidirect", "kernel": list(kernel), "top": [n], "multipliers": [mults]}
    k = math.prod(kernel)
    return Item(
        name=name,
        text=json.dumps({"name": name, "construct": node}),
        spectrum=independent.frobenius_spectrum(k, n),
        dgroup=(k, n, 1),
        factor_orders=None,
        central_primes=(),
    )


def _label(spec) -> str:
    if spec[0] == "F":
        return f"F{math.prod(spec[1]) * spec[2]}"
    return f"{spec[0]}{spec[1]}"


def items(rng) -> list[Item]:
    out = []
    for factors, copies in PRODUCTS:
        name = "x".join(map(_label, factors))
        out += [_perm_item(f"{name}_{i}", factors, rng) for i in range(copies)]
    for kernel, n, copies in SEMIDIRECTS:
        name = f"SD{math.prod(kernel) * n}"
        out += [_semidirect_item(f"{name}_{i}", kernel, n, rng) for i in range(copies)]
    for n, copies in SYMMETRIC:
        out += [_perm_item(f"S{n}_{i}", (S(n),), rng) for i in range(copies)]
    return out


def warmup_item() -> Item:
    """A small coprime product with fixed labels."""
    return _perm_item("warmup", (F((5,), 2), F((7,), 3)), random.Random(0))


def run(item: Item) -> str:
    name, expr = parse_spec_text(item.text)
    return report_to_json(analyze_expr(name, expr))


def traced(item: Item, trace: Trace, output: str) -> bool:
    """Replay ``run`` stage by stage; True when it agrees with ``output``."""
    _, expr = trace.call("specfile.parse", parse_spec_text, item.text)
    return replay_analysis(expr, trace, output)


def check(item: Item, output: str) -> list[str]:
    """Problems with one item's answer, found apart from classgraph."""
    report = json.loads(output)
    problems = []
    if Counter(dict(map(tuple, report["spectrum"]))) != item.spectrum:
        problems.append("spectrum differs from the closed forms")
    order = sum(size * count for size, count in item.spectrum.items())
    if report["order"] != order:
        problems.append(f"order {report['order']} is not {order}")
    vertices, edges = independent.prime_graph(item.spectrum)
    if report["graph"] != {"vertices": vertices, "edges": edges}:
        problems.append("graph differs from the prime graph of the closed-form spectrum")
    connected = independent.is_connected(vertices, edges)
    if report["connected"] != connected or report["dgroup"]["spectral"] != (not connected):
        problems.append("connectivity verdicts differ from the graph")
    witness = report["dgroup"]["witness"]
    got = None
    if witness is not None:
        got = (witness["a_order"], witness["b_order"], witness["center_order"])
    if got != item.dgroup:
        problems.append(f"D-group witness {got}, expected {item.dgroup}")
    problems += independent.check_partitions(vertices, edges, report["block_square"]["partitions"])
    decomposition = report["decomposition"]
    status = VERIFIED if item.factor_orders else NOT_BLOCK_SQUARE
    if decomposition["status"] != status:
        problems.append(f"decomposition status {decomposition['status']}, expected {status}")
    elif item.factor_orders:
        w = decomposition["witness"]
        if {w["a_order"], w["b_order"]} != item.factor_orders:
            problems.append("decomposition orders are not the two factor orders")
        if tuple(w["central_primes"]) != item.central_primes:
            problems.append(f"central primes {w['central_primes']}, not {item.central_primes}")
    return problems
