"""Set-based reference implementations of the Gaifman graph and the
local-evaluation hot paths.

The engine keeps one Gaifman graph, the neighbour tuples of
:meth:`Structure.columnar`, and runs :mod:`repro.core.local_eval` (and the
BFS primitives under it) on interned-id kernels.  This module keeps an
independent element-space oracle for them: :func:`gaifman_adjacency`
builds the Gaifman graph straight from the relations as a dict of
frozensets, and the BFS, ball and pattern-walk functions are the
pre-columnar implementations run over it.  The differential tests
(``tests/core/test_differential_columnar.py``,
``tests/structures/test_columnar.py``) and the kernel benchmarks
(``benchmarks/bench_kernels.py``) run both and assert byte-identical
results.

Nothing in ``src/`` imports this module — it exists so the representation
stays falsifiable.  The code mirrors the pre-columnar implementations,
including their per-call ``set(edges)`` rebuilds.  The walks take the
adjacency as an argument, so a caller builds it once per structure, as
the dict once cached on the structure was built once.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Sequence, Tuple

from repro.core.clterms import BasicClTerm, Edges
from repro.core.local_eval import _is_quantifier_free, pattern_order
from repro.errors import UniverseError
from repro.logic.predicates import PredicateCollection
from repro.logic.semantics import satisfies
from repro.structures.gaifman import induced
from repro.structures.structure import Element, Structure

__all__ = [
    "gaifman_adjacency",
    "reference_distances_from",
    "reference_ball",
    "ReferenceBallCache",
    "reference_sparse_cover",
    "reference_pattern_tuples",
    "reference_evaluate_basic_unary",
]


Adjacency = Dict[Element, FrozenSet[Element]]


def gaifman_adjacency(structure: Structure) -> Adjacency:
    """The Gaifman graph built from the relations: ``a`` and ``b`` are
    adjacent iff distinct and co-occurring in some tuple of some relation."""
    neighbours: Dict[Element, set] = {a: set() for a in structure.universe_order}
    for rel in structure.relations().values():
        for tup in rel:
            distinct = set(tup)
            if len(distinct) < 2:
                continue
            for a in distinct:
                for b in distinct:
                    if a != b:
                        neighbours[a].add(b)
    return {a: frozenset(ns) for a, ns in neighbours.items()}


def reference_distances_from(
    adjacency: Adjacency,
    sources: Iterable[Element],
    radius: "float | None" = None,
) -> Dict[Element, int]:
    """Multi-source BFS over the dict adjacency (the pre-columnar
    ``gaifman.distances_from``)."""
    dist: Dict[Element, int] = {}
    frontier = deque()
    for source in sources:
        if source not in adjacency:
            raise UniverseError(f"{source!r} is not a universe element")
        if source not in dist:
            dist[source] = 0
            frontier.append(source)
    while frontier:
        node = frontier.popleft()
        d = dist[node]
        if radius is not None and d >= radius:
            continue
        for neighbour in adjacency[node]:
            if neighbour not in dist:
                dist[neighbour] = d + 1
                frontier.append(neighbour)
    return dist


def reference_ball(
    adjacency: Adjacency, centres: Iterable[Element], radius: int
) -> FrozenSet[Element]:
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return frozenset(reference_distances_from(adjacency, centres, radius))


class ReferenceBallCache:
    """The pre-columnar ``_BallCache``: element-keyed frozenset D-balls."""

    __slots__ = ("adjacency", "distance", "_cache")

    def __init__(self, adjacency: Adjacency, distance: int):
        self.adjacency = adjacency
        self.distance = distance
        self._cache: Dict[Element, FrozenSet[Element]] = {}

    def __call__(self, element: Element) -> FrozenSet[Element]:
        cached = self._cache.get(element)
        if cached is None:
            cached = reference_ball(self.adjacency, [element], self.distance)
            self._cache[element] = cached
        return cached


def reference_sparse_cover(structure: Structure, radius: int):
    """The pre-columnar Theorem 8.1 greedy construction over the reference
    BFS: ``(clusters, assignment, centres)`` as
    :func:`repro.sparse.covers.sparse_cover` builds them."""
    adjacency = gaifman_adjacency(structure)
    centres = []
    closest: Dict[Element, Tuple[int, int]] = {}
    for element in structure.universe_order:
        if element in closest and closest[element][0] <= radius:
            continue
        index = len(centres)
        centres.append(element)
        for covered, dist in reference_distances_from(
            adjacency, [element], radius
        ).items():
            best = closest.get(covered)
            if best is None or dist < best[0]:
                closest[covered] = (dist, index)
    clusters = tuple(
        reference_ball(adjacency, [centre], 2 * radius) for centre in centres
    )
    assignment = {
        element: closest[element][1] for element in structure.universe_order
    }
    return clusters, assignment, tuple(centres)


def reference_pattern_tuples(
    balls: ReferenceBallCache, first: Element, k: int, edges: Edges
) -> Iterator[Tuple[Element, ...]]:
    """The pre-columnar pattern walk over ``balls``' link-distance balls:
    per-candidate frozenset membership tests and a per-invocation
    ``set(edges)`` rebuild."""
    if k == 1:
        yield (first,)
        return
    order = pattern_order(k, edges)
    edge_set = set(edges)

    placed: Dict[int, Element] = {1: first}

    def extend(step: int) -> Iterator[Tuple[Element, ...]]:
        if step == len(order):
            yield tuple(placed[i] for i in range(1, k + 1))
            return
        position, parent = order[step]
        for candidate in balls(placed[parent]):
            ok = True
            for other, value in placed.items():
                expected = (min(other, position), max(other, position)) in edge_set
                actual = candidate in balls(value)
                if expected != actual:
                    ok = False
                    break
            if not ok:
                continue
            placed[position] = candidate
            yield from extend(step + 1)
            del placed[position]

    yield from extend(0)


def reference_evaluate_basic_unary(
    structure: Structure,
    term: BasicClTerm,
    elements: "Optional[Sequence[Element]]" = None,
    predicates: "Optional[PredicateCollection]" = None,
    evaluate_psi_locally: bool = True,
) -> Dict[Element, int]:
    """``u^A[a]`` by the pre-columnar ball-exploration loop."""
    targets = (
        list(elements) if elements is not None else list(structure.universe_order)
    )
    adjacency = gaifman_adjacency(structure)
    balls = ReferenceBallCache(adjacency, term.link_distance)
    quantifier_free = _is_quantifier_free(term.psi)
    check_locally = evaluate_psi_locally and not quantifier_free
    values: Dict[Element, int] = {}
    for element in targets:
        total = 0
        for tup in reference_pattern_tuples(balls, element, term.width, term.edges):
            assignment = dict(zip(term.variables, tup))
            if check_locally:
                local = induced(
                    structure, reference_ball(adjacency, tup, term.psi_radius)
                )
                holds = satisfies(local, term.psi, assignment, predicates)
            else:
                holds = satisfies(structure, term.psi, assignment, predicates)
            if holds:
                total += 1
        values[element] = total
    return values
