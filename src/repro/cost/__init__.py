"""Cost layer: structure statistics, cardinality bounds, load signal.

See docs/ARCHITECTURE.md (cost layer) for the full picture.  Public
surface:

* :func:`~repro.cost.stats.structure_stats` /
  :class:`~repro.cost.stats.StructureStats` — cached per-structure
  statistics under the Structure cache contract;
* :class:`~repro.cost.model.CardinalityEstimator` /
  :class:`~repro.cost.model.CardBound` — provable cardinality bounds,
  which the approx planner reads;
* :class:`~repro.cost.saturation.SaturationTracker` — the service's
  observed-load signal, the one trigger of its degradation policy.
"""

from .model import CardBound, CardinalityEstimator
from .saturation import SaturationTracker
from .stats import DegreeSummary, StructureStats, structure_stats

__all__ = [
    "CardBound",
    "CardinalityEstimator",
    "DegreeSummary",
    "SaturationTracker",
    "StructureStats",
    "structure_stats",
]
