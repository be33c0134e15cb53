"""Per-structure statistics for cardinality estimation.

:class:`StructureStats` summarises a :class:`~repro.structures.structure.
Structure` for cardinality estimation: relation cardinalities, the mean
degree of the Gaifman graph and ball-size growth estimates.  It holds
no cache of its own: :func:`structure_stats` builds a fresh summary per
call at O(number of relations), and the degree summary reads the degrees
off the structure's columnar view (:meth:`Structure.columnar`), whose
neighbour tuples are cached on the structure, derived by
:meth:`Structure.with_tuple` and dropped by
:meth:`Structure.invalidate_caches`.  No summary outlives a write, so
none can go stale.

Everything here is exact except :meth:`StructureStats.ball_size_estimate`
— the *estimation* (combining these numbers into cardinality bounds)
lives in :mod:`repro.cost.model`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..structures.structure import Structure

__all__ = ["DegreeSummary", "StructureStats", "structure_stats"]


@dataclass(frozen=True)
class DegreeSummary:
    """The Gaifman graph's mean degree (exact, lazily built)."""

    mean: float

    @classmethod
    def from_structure(cls, structure: Structure) -> "DegreeSummary":
        view = structure.columnar()
        total = sum(map(view.degree, range(view.n)))
        order = structure.order()
        return cls(mean=total / order if order else 0.0)


class StructureStats:
    """Statistics of one structure, cheap parts eager, the degree summary lazy.

    The eager parts (``order``, ``relation_cards``) are O(number of
    relations) to build, and read a written version's relations by their
    lengths, without flattening; the degree summary reads the structure's
    columnar view (O(size) only if the view's neighbour tuples are not
    built yet) and is computed only when an estimate needs it.
    """

    __slots__ = ("order", "relation_cards", "_structure", "_degree")

    def __init__(self, structure: Structure):
        self.order = structure.order()
        self.relation_cards: Dict[str, int] = {
            symbol.name: len(structure.tuples(symbol)) for symbol in structure.signature
        }
        self._structure = structure
        self._degree: Optional[DegreeSummary] = None

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


def structure_stats(structure: Structure) -> StructureStats:
    """The :class:`StructureStats` of a structure, built fresh per call."""
    return StructureStats(structure)
