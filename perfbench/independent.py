"""Answers computed apart from classgraph, for checking its outputs.

Nothing here imports classgraph.  Spectra come from closed forms (the
Frobenius three-size law, cycle types for symmetric groups) and the
direct-product convolution; prime graphs from trial division; block squares
from the definition and from enumerating every 4-block set partition.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import combinations

# -- arithmetic -----------------------------------------------------------------


def small_prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n >= 1 by trial division (n is small here)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def units_of_order(n: int, p: int) -> list[int]:
    """Units of multiplicative order exactly n modulo the prime p, ascending."""
    out = []
    for u in range(2, p):
        x, k = u, 1
        while x != 1:
            x = x * u % p
            k += 1
        if k == n:
            out.append(u)
    return out


# -- spectra --------------------------------------------------------------------


def frobenius_spectrum(kernel_order: int, complement_order: int) -> Counter[int]:
    """Class sizes of a Frobenius group with abelian kernel and complement."""
    k, n = kernel_order, complement_order
    return Counter({1: 1, n: (k - 1) // n, k: n - 1})


def convolve(a: Counter[int], b: Counter[int]) -> Counter[int]:
    """Class sizes of a direct product."""
    out: Counter[int] = Counter()
    for s, c in a.items():
        for t, d in b.items():
            out[s * t] += c * d
    return out


def integer_partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in integer_partitions(n - first, first):
            yield (first,) + rest


def symmetric_spectrum(n: int) -> Counter[int]:
    """Class sizes of S_n: n! / z_lambda over cycle types lambda."""
    out: Counter[int] = Counter()
    for shape in integer_partitions(n):
        z = 1
        for length, mult in Counter(shape).items():
            z *= length**mult * math.factorial(mult)
        out[math.factorial(n) // z] += 1
    return out


def prime_graph(spectrum: Counter[int]) -> tuple[list[int], list[list[int]]]:
    """(vertices, edges) of the class-size prime graph, both ascending."""
    vertices: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for size in spectrum:
        ps = small_prime_factors(size)
        vertices.update(ps)
        edges.update(combinations(ps, 2))
    return sorted(vertices), [list(e) for e in sorted(edges)]


def neighbours(vertices, edges) -> dict[int, frozenset[int]]:
    nbrs: dict[int, set[int]] = {v: set() for v in vertices}
    for p, q in edges:
        nbrs[p].add(q)
        nbrs[q].add(p)
    return {v: frozenset(us) for v, us in nbrs.items()}


def is_connected(vertices: list[int], edges: list[list[int]]) -> bool:
    if not vertices:
        return True
    nbrs = neighbours(vertices, edges)
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for u in nbrs[stack.pop()] - seen:
            seen.add(u)
            stack.append(u)
    return len(seen) == len(vertices)


# -- block squares ----------------------------------------------------------------


def is_partition(vertices, blocks) -> bool:
    """Four nonempty disjoint blocks covering exactly the vertices."""
    union = [v for b in blocks for v in b]
    return all(blocks) and len(blocks) == 4 and sorted(union) == sorted(vertices)


def is_block_square(nbrs: dict[int, frozenset[int]], blocks) -> bool:
    """The definition, strict witness reading, on an ordered partition:
    no pi1-pi4 and no pi2-pi3 edges, and a vertex of pi1 and one of pi4
    each adjacent into both pi2 and pi3."""
    pi1, pi2, pi3, pi4 = (frozenset(b) for b in blocks)
    if any(nbrs[p] & pi4 for p in pi1) or any(nbrs[p] & pi3 for p in pi2):
        return False
    return all(any(nbrs[v] & pi2 and nbrs[v] & pi3 for v in ends) for ends in (pi1, pi4))


def orbit_key(blocks) -> frozenset:
    """What the 8 symmetries of the square keep: the two non-adjacent pairs."""
    pi1, pi2, pi3, pi4 = (frozenset(b) for b in blocks)
    return frozenset({frozenset({pi1, pi4}), frozenset({pi2, pi3})})


def square_images(blocks) -> list[tuple]:
    """The 8 images of an ordered partition under the square's symmetries."""
    pi1, pi2, pi3, pi4 = blocks
    out = []
    for (a, d), (b, c) in (((pi1, pi4), (pi2, pi3)), ((pi2, pi3), (pi1, pi4))):
        for x, y in ((a, d), (d, a)):
            for u, v in ((b, c), (c, b)):
                out.append((x, u, v, y))
    return out


@lru_cache(maxsize=None)
def _four_block_splits(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Every split of vertices 0..n-1 into 4 unordered nonempty blocks, as
    vertex bitmasks, from restricted-growth label strings."""
    out = []

    def grow(masks: list[int], v: int, used: int) -> None:
        if v == n:
            if used == 4:
                out.append(tuple(masks))
            return
        if used + (n - v) < 4:
            return
        for b in range(min(used + 1, 4)):
            masks[b] |= 1 << v
            grow(masks, v + 1, max(used, b + 1))
            masks[b] &= ~(1 << v)

    grow([0, 0, 0, 0], 0, 0)
    return tuple(out)


def block_square_orbits(vertices, edges) -> set[frozenset]:
    """Orbit keys of every block-square partition, by full enumeration.

    For each split into 4 blocks and each of the 3 ways to pair the blocks
    as non-adjacent pairs, the orbit is a block square when one pair can be
    the ends: each of its blocks holds a vertex adjacent into both blocks of
    the other pair.  Swapping blocks within a pair keeps every condition.
    """
    vertices = list(vertices)
    n = len(vertices)
    if n < 4:
        return set()
    index = {v: i for i, v in enumerate(vertices)}
    adj = [0] * n
    for p, q in edges:
        adj[index[p]] |= 1 << index[q]
        adj[index[q]] |= 1 << index[p]
    # reach[m]: every vertex adjacent to some vertex of the set m.
    reach = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        reach[m] = reach[m ^ low] | adj[low.bit_length() - 1]

    def witness(block: int, a: int, b: int) -> bool:
        return any(adj[v] & a and adj[v] & b for v in range(n) if block >> v & 1)

    def members(mask: int) -> tuple[int, ...]:
        return tuple(v for i, v in enumerate(vertices) if mask >> i & 1)

    found: set[frozenset] = set()
    for m0, m1, m2, m3 in _four_block_splits(n):
        for (a, d), (b, c) in (((m0, m1), (m2, m3)), ((m0, m2), (m1, m3)), ((m0, m3), (m1, m2))):
            if reach[a] & d or reach[b] & c:
                continue
            if (witness(a, b, c) and witness(d, b, c)) or (witness(b, a, d) and witness(c, a, d)):
                found.add(orbit_key([members(x) for x in (a, b, c, d)]))
    return found


def admissible_square(blocks) -> tuple[list[int], list[list[int]]]:
    """(vertices, edges) of the admissible block square on four blocks:
    cliques on each block and every pi1/pi4 vertex joined to every pi2/pi3 one."""
    pi1, pi2, pi3, pi4 = blocks
    edges: set[tuple[int, int]] = set()
    for block in blocks:
        edges.update(combinations(sorted(block), 2))
    for p in pi1 + pi4:
        for q in pi2 + pi3:
            edges.add((min(p, q), max(p, q)))
    return sorted(pi1 + pi2 + pi3 + pi4), [list(e) for e in sorted(edges)]


def check_partitions(vertices, edges, partitions: list[dict]) -> list[str]:
    """Problems with a detector answer: every canonical block-square partition,
    one per symmetry orbit, least valid image first."""
    problems = []
    nbrs = neighbours(vertices, edges)
    keys = []
    for part in partitions:
        blocks = tuple(tuple(sorted(part[k])) for k in ("pi1", "pi2", "pi3", "pi4"))
        if not (is_partition(vertices, blocks) and is_block_square(nbrs, blocks)):
            problems.append(f"not a block square: {part}")
            continue
        valid = [image for image in square_images(blocks) if is_block_square(nbrs, image)]
        if min(valid) != blocks:
            problems.append(f"not the least valid image of its orbit: {part}")
        keys.append(orbit_key(blocks))
    if len(set(keys)) != len(keys):
        problems.append("two returned partitions lie in one symmetry orbit")
    expected = block_square_orbits(vertices, edges)
    if set(keys) != expected:
        problems.append(f"{len(expected)} block-square orbits exist, {len(set(keys))} returned")
    return problems


# -- permutation generators ----------------------------------------------------------


def frobenius_generators(kernel: tuple[int, ...], multipliers: tuple[int, ...], n: int):
    """Generators of (Z_p1 x ... x Z_pk) x| Z_n on one point block per cyclic factor.

    Kernel generators translate their own block; the top generator
    multiplies each kernel block by its unit and turns its own n-cycle.
    """
    degree = sum(kernel) + n
    gens = []
    offset = 0
    for p in kernel:
        images = list(range(degree))
        for x in range(p):
            images[offset + x] = offset + (x + 1) % p
        gens.append(tuple(images))
        offset += p
    top = list(range(degree))
    offset = 0
    for p, u in zip(kernel, multipliers):
        for x in range(p):
            top[offset + x] = offset + x * u % p
        offset += p
    for x in range(n):
        top[offset + x] = offset + (x + 1) % n
    gens.append(tuple(top))
    return degree, gens


def cyclic_generators(c: int):
    return c, [tuple(range(1, c)) + (0,)]


def symmetric_generators(n: int):
    return n, [tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))]


def direct_generators(parts):
    """Generators of a direct product acting on the disjoint union of points."""
    degree = sum(d for d, _ in parts)
    gens = []
    offset = 0
    for d, part_gens in parts:
        for g in part_gens:
            gens.append(
                tuple(range(offset))
                + tuple(offset + x for x in g)
                + tuple(range(offset + d, degree))
            )
        offset += d
    return degree, gens


def relabel(degree: int, gens, rng) -> list[tuple[int, ...]]:
    """Conjugate every generator by one random relabelling of the points
    and shuffle their order: the same group, presented differently."""
    sigma = list(range(degree))
    rng.shuffle(sigma)
    out = []
    for g in gens:
        images = [0] * degree
        for i in range(degree):
            images[sigma[i]] = sigma[g[i]]
        out.append(tuple(images))
    rng.shuffle(out)
    return out

