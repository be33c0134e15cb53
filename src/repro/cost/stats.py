"""Cached per-structure statistics for the cost model.

:class:`StructureStats` summarises a :class:`~repro.structures.structure.
Structure` for cardinality estimation: relation cardinalities, the degree
histogram of the Gaifman graph and ball-size growth estimates.  The
summary participates in the structure's cache contract (see the
``Structure`` docstring):

* it is cached on the instance (``structure._stats``) and served by
  :func:`structure_stats` without recomputation;
* :meth:`Structure.invalidate_caches` drops it together with the
  adjacency/index caches, so in-place mutation can never leave a cost
  estimate reading stale cardinalities;
* copy-on-write updates via :meth:`Structure.with_tuple` *derive* the
  statistics incrementally (:meth:`StructureStats.derive`): the cheap
  exact parts — order, size, relation cardinalities — are adjusted by the
  delta, the lazy degree summary is dropped and recomputed on demand
  against the derived structure's adjacency.

Everything here is exact — the *estimation* (combining these numbers into
cardinality bounds and engine costs) lives in :mod:`repro.cost.model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..obs import active_metrics
from ..structures.structure import Structure

__all__ = ["DegreeSummary", "StructureStats", "structure_stats"]


@dataclass(frozen=True)
class DegreeSummary:
    """Degree distribution of the Gaifman graph (exact, lazily built)."""

    mean: float
    max: int
    #: ``histogram[d]`` = number of elements of Gaifman degree ``d``.
    histogram: Dict[int, int]

    @classmethod
    def from_structure(cls, structure: Structure) -> "DegreeSummary":
        histogram: Dict[int, int] = {}
        total = 0
        peak = 0
        for neighbours in structure.adjacency().values():
            d = len(neighbours)
            histogram[d] = histogram.get(d, 0) + 1
            total += d
            if d > peak:
                peak = d
        order = structure.order()
        return cls(
            mean=total / order if order else 0.0, max=peak, histogram=histogram
        )


class StructureStats:
    """Statistics of one structure, cheap parts eager, the degree summary lazy.

    The eager parts (``order``, ``size``, ``relation_cards``) are O(number
    of relations) to build; the degree summary touches
    :meth:`Structure.adjacency` (O(size) the first time) and is computed
    only when a cost estimate actually needs it.
    """

    __slots__ = ("order", "size", "relation_cards", "_structure", "_degree")

    def __init__(
        self,
        structure: Structure,
        order: int,
        size: int,
        relation_cards: Dict[str, int],
    ):
        self.order = order
        self.size = size
        self.relation_cards = relation_cards
        self._structure = structure
        self._degree: Optional[DegreeSummary] = None

    @classmethod
    def from_structure(cls, structure: Structure) -> "StructureStats":
        cards = {
            symbol.name: len(rel) for symbol, rel in structure.relations().items()
        }
        return cls(structure, structure.order(), structure.size(), cards)

    # -- accessors ------------------------------------------------------------

    def relation_card(self, name: str) -> int:
        """Exact cardinality of a relation (0 for unknown symbols — an
        unknown symbol can only be a not-yet-materialised aux relation,
        which starts empty)."""
        return self.relation_cards.get(name, 0)

    def degree(self) -> DegreeSummary:
        if self._degree is None:
            self._degree = DegreeSummary.from_structure(self._structure)
        return self._degree

    def ball_size_estimate(self, radius: int) -> float:
        """Estimated ``|ball(a, radius)|``: mean-degree branching capped at
        the universe order.  Exact at radius 0; a heuristic beyond."""
        if radius <= 0:
            return 1.0
        mean = self.degree().mean
        estimate = 1.0
        frontier = 1.0
        for _ in range(radius):
            frontier *= max(mean, 0.0)
            estimate += frontier
            if estimate >= self.order:
                return float(self.order)
        return min(float(self.order), estimate)

    def index_fanout(self, name: str) -> float:
        """Mean tuples per index key of a relation — the expected pool size
        an index-guard lookup yields."""
        card = self.relation_card(name)
        if card == 0:
            return 0.0
        return max(1.0, card / max(self.order, 1))

    def max_relation_card(self) -> int:
        return max(self.relation_cards.values(), default=0)

    # -- copy-on-write derivation ---------------------------------------------

    def derive(
        self, relation_name: str, present: bool, derived_structure: Structure
    ) -> "StructureStats":
        """Statistics for a one-tuple delta (the :meth:`Structure.with_tuple`
        leg of the cache contract).  Exact parts are adjusted in O(1); the
        degree summary is dropped — it is rebuilt lazily from the
        *derived* structure's adjacency, never the parent's."""
        delta = 1 if present else -1
        cards = dict(self.relation_cards)
        cards[relation_name] = max(0, cards.get(relation_name, 0) + delta)
        derived = StructureStats(
            derived_structure, self.order, self.size + delta, cards
        )
        metrics = active_metrics()
        if metrics is not None:
            metrics.inc("cost.stats.derived")
        return derived


def structure_stats(structure: Structure) -> StructureStats:
    """The cached :class:`StructureStats` of a structure (built on first
    use, invalidated by ``invalidate_caches()``, derived by ``with_tuple``)."""
    stats = structure._stats
    if isinstance(stats, StructureStats) and stats._structure is structure:
        metrics = active_metrics()
        if metrics is not None:
            metrics.inc("cost.stats.reuse")
        return stats
    stats = StructureStats.from_structure(structure)
    structure._stats = stats
    metrics = active_metrics()
    if metrics is not None:
        metrics.inc("cost.stats.build")
    return stats
