"""Closed-form answers for every benchmark query, in O(|V| + |E|).

The brute-force oracle in ``repro.core.baseline`` stops at n of about 60,
so the benchmark checks its answers against formulas over the degree
sequence it computes from its own edge lists.  ``test_bench.py`` checks
each formula against the engines on small graphs.

``nbrs`` maps every vertex to its set of out-neighbours: for the symmetric
graphs of ``scaling``, ``cover-main`` and ``serve-mix`` that is the
undirected neighbourhood, for the directed writes of ``update-stream`` the
out-neighbourhood (the degree terms count ``E(x, y)`` tuples with ``x``
first).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Set

Nbrs = Dict[int, Set[int]]


def paths2(nbrs: Nbrs) -> int:
    """``|{(x, y, z) : E(x,y), E(y,z), x != z}|`` = sum deg(y)(deg(y) - 1)."""
    return sum(len(ns) * (len(ns) - 1) for ns in nbrs.values())


def degree_census(nbrs: Nbrs) -> Counter:
    return Counter(len(ns) for ns in nbrs.values())


def census_eq(census: Counter, k: int) -> int:
    """``#(x). @eq(#(y). E(x,y), k)``: vertices of degree exactly k."""
    return census.get(k, 0)


def census_gt(census: Counter, k: int) -> int:
    """``#(x). @gt(#(y). E(x,y), k)``: vertices of degree above k."""
    return sum(c for d, c in census.items() if d > k)


def exists_gt(census: Counter, k: int) -> bool:
    """``exists x. @gt(#(y). E(x,y), k)``: the maximum degree exceeds k."""
    return any(d > k for d in census)


def heavy_ends(nbrs: Nbrs, k: int) -> int:
    """``|{(x, y) : E(x,y), deg(y) >= k}|`` = sum of deg(y) over deg(y) >= k."""
    return sum(len(ns) for ns in nbrs.values() if len(ns) >= k)


def high_nbrs(nbrs: Nbrs, k: int) -> Dict[int, int]:
    """``#(y). (E(x,y) & @gt(#(z). E(y,z), k))`` for every x."""
    high = {v for v, ns in nbrs.items() if len(ns) > k}
    return {v: len(ns & high) for v, ns in nbrs.items()}


def degrees(nbrs: Nbrs) -> Dict[int, int]:
    """The Section 8.2 degree term ``#(y2). (E(y1,y2) & dist <= 1)`` per y1."""
    return {v: len(ns) for v, ns in nbrs.items()}


def path_term(nbrs: Nbrs) -> Dict[int, int]:
    """The 3-variable path term ``#(y2,y3). (E(y1,y2) & E(y2,y3) & !(y1=y3))``
    with pattern 1-2-3 at link distance 1.  Definition 6.2's delta makes the
    non-edge {1,3} mean dist(y1, y3) > 1, so y3 is neither y1 nor one of its
    neighbours: per y1 the sum over neighbours y2 of |N(y2) - N(y1) - {y1}|
    on a symmetric loop-free graph."""
    return {
        v: sum(len(nbrs[w] - ns) - 1 for w in ns)  # -1: y1 itself is in N(y2)
        for v, ns in nbrs.items()
    }
