"""Sparsity measures used to characterise the generated families.

Nowhere denseness itself is an asymptotic property of a *class*; for a single
finite structure we report proxies that the sparsity literature associates
with it: degeneracy, average degree, and ball-growth profiles.  The
experiment harness uses these to label workloads (and to sanity-check that
the "sparse" generators really are sparse and the controls are not).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

from ..structures.gaifman import distances_from
from ..structures.structure import Element, Structure


def degree_statistics(structure: Structure) -> Dict[str, float]:
    """Min/avg/max Gaifman degree."""
    view = structure.columnar()
    degrees = [view.degree(i) for i in range(view.n)]
    return {
        "min_degree": min(degrees),
        "avg_degree": sum(degrees) / len(degrees),
        "max_degree": max(degrees),
    }


def degeneracy(structure: Structure) -> int:
    """Graph degeneracy via min-degree peeling (linear-time bucket queue).

    Degeneracy d means every subgraph has a vertex of degree <= d; classes of
    bounded degeneracy contain all the sparse families we generate, and
    degeneracy ~n/2 flags the dense controls.
    """
    view = structure.columnar()
    degrees = [view.degree(i) for i in range(view.n)]
    max_degree = max(degrees, default=0)
    buckets: List[set] = [set() for _ in range(max_degree + 1)]
    for vertex, degree in enumerate(degrees):
        buckets[degree].add(vertex)
    removed = bytearray(view.n)
    result = 0
    for _ in range(view.n):
        for degree in range(max_degree + 1):
            if buckets[degree]:
                vertex = buckets[degree].pop()
                break
        else:
            break
        result = max(result, degrees[vertex])
        removed[vertex] = 1
        for neighbour in view.neighbours(vertex):
            if removed[neighbour]:
                continue
            old = degrees[neighbour]
            buckets[old].discard(neighbour)
            degrees[neighbour] = old - 1
            buckets[old - 1].add(neighbour)
    return result


def ball_growth(
    structure: Structure,
    radius: int,
    sample: "Optional[Sequence[Element]]" = None,
) -> Dict[int, float]:
    """Average ball size |N_i(a)| for i = 0..radius over a vertex sample.

    Near-linear growth (paths/trees/grids) vs immediate saturation (cliques)
    is the clearest single picture of why locality-based evaluation wins on
    sparse inputs.
    """
    vertices = list(sample) if sample is not None else list(structure.universe_order)
    sizes: Dict[int, List[int]] = {i: [] for i in range(radius + 1)}
    for vertex in vertices:
        reach = distances_from(structure, [vertex], radius)
        for i in range(radius + 1):
            sizes[i].append(sum(1 for d in reach.values() if d <= i))
    return {i: statistics.fmean(values) for i, values in sizes.items()}


def sparsity_report(structure: Structure, radius: int = 3) -> Dict[str, object]:
    """One-stop report used when labelling benchmark workloads."""
    report: Dict[str, object] = {
        "order": structure.order(),
        "size": structure.size(),
        "degeneracy": degeneracy(structure),
    }
    report.update(degree_statistics(structure))
    sample = list(structure.universe_order)[: min(30, structure.order())]
    growth = ball_growth(structure, radius, sample)
    report["ball_growth"] = growth
    report["ball_saturation"] = growth[radius] / structure.order()
    return report
