"""Neighbourhood covers (Sections 7 and 8.1, Theorem 8.1).

An r-neighbourhood cover assigns to every element ``a`` a connected cluster
``X(a)`` containing the whole ball ``N_r(a)``.  The paper's algorithm needs
covers that are simultaneously

* *shallow*: every cluster has radius at most 2r, and
* *sparse*: no element lies in more than ~n^delta clusters (max degree).

Theorem 8.1 guarantees such (r, 2r)-covers exist and are computable in
almost linear time on nowhere dense classes.  We implement the classic
centre-based construction: greedily pick an r-scattered set of centres (an
r-dominating, pairwise->r-separated set), give each centre the cluster
``N_2r(centre)``, and map each element to the cluster of a centre within
distance r.  On sparse graphs a packing argument keeps the degree low; on
cliques the construction degrades — exactly the contrast experiment E5
measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..obs import active_metrics, traced
from ..robust.budget import EvaluationBudget
from ..robust.faults import fault_check
from ..structures.columnar import bitset_of
from ..structures.gaifman import ball, induced, radius_of_set
from ..structures.structure import Element, Structure


class CoverError(ReproError):
    """The cover construction or validation failed."""


@dataclass(frozen=True)
class NeighbourhoodCover:
    """An r-neighbourhood cover X of a structure.

    ``clusters[i]`` is the i-th cluster's vertex set; ``assignment[a]`` is
    the index of the cluster ``X(a)``; ``centres[i]`` is a designated
    2r-centre of cluster i (``cen`` in Section 8.1).
    """

    structure: Structure
    radius: int
    clusters: Tuple[FrozenSet[Element], ...]
    assignment: Dict[Element, int]
    centres: Tuple[Element, ...]

    def cluster_of(self, element: Element) -> FrozenSet[Element]:
        """``X(a)``."""
        return self.clusters[self.assignment[element]]

    def cluster_index_of(self, element: Element) -> int:
        return self.assignment[element]

    @cached_property
    def _members_by_cluster(self) -> Dict[int, Tuple[Element, ...]]:
        # Grouped once, lazily.  The previous per-call universe scan made
        # members_with_cluster O(|A|) *per cluster*, which on degenerate
        # covers (one singleton cluster per element: r = 0, isolated
        # vertices, dense graphs) turned every caller that loops over all
        # clusters quadratic.
        grouped: Dict[int, List[Element]] = {}
        for element in self.structure.universe_order:
            grouped.setdefault(self.assignment[element], []).append(element)
        return {index: tuple(members) for index, members in grouped.items()}

    def members_with_cluster(self, index: int) -> Tuple[Element, ...]:
        """All ``a`` with ``X(a)`` = cluster ``index`` (the Q-sets of 8.2)."""
        return self._members_by_cluster.get(index, ())

    @cached_property
    def _cluster_bitsets(self) -> Tuple[int, ...]:
        # Each cluster as an int bitset over the structure's interned ids:
        # the s-covering test ``N_s(a-bar) ⊆ X`` becomes ``needed & ~X == 0``,
        # a few machine words per cluster instead of a frozenset-subset walk.
        # Built once, lazily — the per-tuple cover checks of cover_eval hit
        # this for every counted tuple.
        kernel = self.structure.columnar()
        id_of = kernel.interner._ids
        n = kernel.n
        return tuple(
            bitset_of((id_of[element] for element in cluster), n)
            for cluster in self.clusters
        )

    def _needed_bitset(self, elements: Sequence[Element], s: int) -> int:
        if s < 0:
            raise ValueError("radius must be non-negative")
        kernel = self.structure.columnar()
        interner = kernel.interner
        return kernel.ball_bitset(interner.ids(elements), s)

    def covers_tuple(self, index: int, elements: Sequence[Element], s: int) -> bool:
        """Whether cluster ``index`` s-covers the tuple: ``N_s(a-bar) ⊆ X``."""
        return self._needed_bitset(elements, s) & ~self._cluster_bitsets[index] == 0

    def clusters_s_covering(self, elements: Sequence[Element], s: int) -> List[int]:
        """Indices of all clusters that s-cover the tuple."""
        needed = self._needed_bitset(elements, s)
        return [
            index
            for index, cluster in enumerate(self._cluster_bitsets)
            if needed & ~cluster == 0
        ]

    # -- pickling ---------------------------------------------------------------

    def __getstate__(self):
        """Ship only the defining fields — the lazily built member groups
        and cluster bitsets rebuild on the receiving side, keeping the
        payloads shipped to child processes compact."""
        return (
            self.structure,
            self.radius,
            self.clusters,
            self.assignment,
            self.centres,
        )

    def __setstate__(self, state) -> None:
        structure, radius, clusters, assignment, centres = state
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "centres", centres)

    # -- statistics -------------------------------------------------------------

    def degree_of(self, element: Element) -> int:
        """Number of clusters containing ``element``."""
        return sum(1 for cluster in self.clusters if element in cluster)

    def max_degree(self) -> int:
        counts: Dict[Element, int] = {a: 0 for a in self.structure.universe_order}
        for cluster in self.clusters:
            for element in cluster:
                counts[element] += 1
        return max(counts.values(), default=0)

    def average_degree(self) -> float:
        order = self.structure.order()
        if order == 0:
            # The empty structure has an (empty) cover with no memberships;
            # its average degree is 0, not a ZeroDivisionError.
            return 0.0
        total = sum(len(cluster) for cluster in self.clusters)
        return total / order

    def max_cluster_radius(self) -> float:
        return max(
            (radius_of_set(self.structure, cluster) for cluster in self.clusters),
            default=0,
        )

    def verify(self, check_radius: "Optional[int]" = None) -> None:
        """Validate the cover property; raises :class:`CoverError` on failure.

        Checks: every element is assigned, ``N_r(a) ⊆ X(a)`` for all a, every
        cluster is connected, and (optionally) cluster radii <= check_radius.
        """
        for element in self.structure.universe_order:
            if element not in self.assignment:
                raise CoverError(f"element {element!r} has no cluster")
            cluster = self.cluster_of(element)
            needed = ball(self.structure, [element], self.radius)
            if not needed <= cluster:
                raise CoverError(
                    f"N_{self.radius}({element!r}) is not inside its cluster"
                )
        for index, cluster in enumerate(self.clusters):
            sub = induced(self.structure, cluster)
            from ..structures.gaifman import is_connected

            if not is_connected(sub):
                raise CoverError(f"cluster {index} is not connected")
        if check_radius is not None:
            worst = self.max_cluster_radius()
            if worst > check_radius:
                raise CoverError(
                    f"cluster radius {worst} exceeds the bound {check_radius}"
                )


@traced("cover.trivial")
def trivial_cover(structure: Structure, radius: int) -> NeighbourhoodCover:
    """The cover ``X(a) = N_r(a)`` — always valid, radius <= r, but with
    max degree up to |A| (the ablation baseline for E5)."""
    if radius < 0:
        raise CoverError("radius must be non-negative")
    clusters: List[FrozenSet[Element]] = []
    assignment: Dict[Element, int] = {}
    centres: List[Element] = []
    seen: Dict[FrozenSet[Element], int] = {}
    for element in structure.universe_order:
        cluster = ball(structure, [element], radius)
        index = seen.get(cluster)
        if index is None:
            index = len(clusters)
            seen[cluster] = index
            clusters.append(cluster)
            centres.append(element)
        assignment[element] = index
    _record_cover_metrics(clusters)
    return NeighbourhoodCover(
        structure, radius, tuple(clusters), assignment, tuple(centres)
    )


def _record_cover_metrics(clusters: Sequence[FrozenSet[Element]]) -> None:
    metrics = active_metrics()
    if metrics is None:
        return
    metrics.inc("cover.built")
    metrics.inc("cover.clusters", len(clusters))
    for cluster in clusters:
        metrics.observe("cover.cluster_size", len(cluster))


@traced("cover.sparse")
def sparse_cover(
    structure: Structure,
    radius: int,
    budget: "Optional[EvaluationBudget]" = None,
) -> NeighbourhoodCover:
    """The centre-based (r, 2r)-neighbourhood cover.

    1. Greedily pick centres: scan elements in universe order, keep an
       element as a centre iff it is at distance > r from every centre so
       far.  The resulting centre set is r-dominating and r-scattered.
    2. Cluster of centre c: ``N_2r(c)`` (connected, radius <= 2r).
    3. ``X(a)``: the cluster of the *closest* centre (<= r away), so
       ``N_r(a) ⊆ N_2r(c)``.

    On graphs from a nowhere dense class the r-scattering of the centres
    bounds how many clusters meet any single vertex (Theorem 8.1's n^delta);
    the construction itself is correct on *every* graph.
    """
    fault_check("cover.construct")
    if radius < 0:
        raise CoverError("radius must be non-negative")
    if radius == 0:
        # Each element's 0-ball is itself; one singleton cluster per element.
        return trivial_cover(structure, 0)

    # Id-space construction: universe order *is* id order, so scanning ids
    # 0..n-1 reproduces the original greedy scan element for element; the
    # closest-centre map becomes two flat arrays (-1 = not yet dominated).
    kernel = structure.columnar()
    elements = kernel.interner.elements
    n = kernel.n
    best_dist = [-1] * n
    centre_of = [-1] * n
    centre_ids: List[int] = []
    for eid in range(n):
        if budget is not None:
            budget.tick("cover.scan")
        if 0 <= best_dist[eid] <= radius:
            continue
        centre_index = len(centre_ids)
        centre_ids.append(eid)
        ids, dists = kernel.distances((eid,), radius)
        for covered, dist in zip(ids, dists):
            current = best_dist[covered]
            if current == -1 or dist < current:
                best_dist[covered] = dist
                centre_of[covered] = centre_index

    clusters = tuple(
        frozenset(elements[i] for i in kernel.ball_ids((centre,), 2 * radius))
        for centre in centre_ids
    )
    assignment = {elements[i]: centre_of[i] for i in range(n)}
    centres = tuple(elements[centre] for centre in centre_ids)
    _record_cover_metrics(clusters)
    return NeighbourhoodCover(structure, radius, clusters, assignment, centres)


def cover_statistics(cover: NeighbourhoodCover) -> Dict[str, float]:
    """Summary used by benchmark E5 and the EXPERIMENTS.md tables."""
    return {
        "clusters": len(cover.clusters),
        "max_degree": cover.max_degree(),
        "average_degree": cover.average_degree(),
        "max_cluster_radius": cover.max_cluster_radius(),
        "largest_cluster": max((len(c) for c in cover.clusters), default=0),
    }
