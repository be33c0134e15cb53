"""Sample-size planning for the approximate counting tier.

The sampler estimates ``|phi(A)|`` by drawing uniform assignments from
the space of ``n^k`` candidate tuples and checking each against the
Definition 3.1 semantics.  The fraction of hits ``p-hat`` estimates the
true density ``p = count / space``, and Hoeffding's inequality converts
a sample size into an *additive* guarantee on ``p-hat``:

    P(|p-hat - p| > eps_add) <= 2 exp(-2 m eps_add^2)
    =>  m >= ln(2 / delta) / (2 eps_add^2).

The user asks for a *relative* ``(1 +- epsilon)`` guarantee on the count
(Dreier & Rossmanith, arXiv:2010.14814).  Relative and additive targets
are linked through a lower bound on the count: with ``count >= floor``,
an additive error of ``epsilon * floor / space`` on ``p-hat`` implies a
relative error of at most ``epsilon`` on the estimate.  The floor comes
from the cost layer's :class:`~repro.cost.model.CardBound` when it
proves one (e.g. a single positive atom counts exactly the relation
cardinality), and otherwise from the heuristic density assumption
``count >= min_density * space`` — in which case the plan is honestly
marked non-provable and the post-hoc confidence interval on the result
(which never uses the floor) is the guarantee to trust.

The ``median_of_means`` method plans ``k = ceil(8 ln(1/delta))`` blocks
of ``ceil(1 / eps_add^2)`` samples each: a Bernoulli mean has variance
at most 1/4, so Chebyshev bounds each block's failure probability by
1/4 and the median over ``k`` blocks fails with probability at most
``delta``.  For bounded (0/1) samples Hoeffding needs fewer draws; the
alternative exists for heavy-tailed extensions and as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ReproError

__all__ = ["SamplePlan", "plan_samples", "DEFAULT_MAX_SAMPLES", "DEFAULT_MIN_DENSITY"]

#: Hard ceiling on planned samples; plans that want more are truncated
#: (and say so) rather than silently run forever.
DEFAULT_MAX_SAMPLES = 500_000

#: Heuristic density floor used when no provable lower bound exists.
DEFAULT_MIN_DENSITY = 0.05

#: Never plan fewer draws than this — tiny plans make the post-hoc
#: interval degenerate and cost nothing to round up.
_MIN_SAMPLES = 32


@dataclass(frozen=True)
class SamplePlan:
    """How many samples to draw, and what that promises.

    ``floor`` is the count lower bound the relative-to-additive
    conversion assumed; ``provable`` records whether that floor is a
    :class:`~repro.cost.model.CardBound` proof or the ``min_density``
    heuristic.  ``truncated`` plans hit ``max_samples`` and deliver a
    wider interval than requested.
    """

    samples: int
    epsilon: float
    delta: float
    space: float
    floor: float
    method: str
    blocks: int
    truncated: bool
    provable: bool

    def additive_epsilon(self) -> float:
        """The additive density target the sample count was sized for."""
        return self.epsilon * self.floor / self.space if self.space else 0.0


def plan_samples(
    space: float,
    epsilon: float,
    delta: float,
    bound=None,
    min_density: float = DEFAULT_MIN_DENSITY,
    max_samples: int = DEFAULT_MAX_SAMPLES,
    method: str = "hoeffding",
) -> SamplePlan:
    """Size a sampling run for a ``(1 +- epsilon, delta)`` count estimate.

    ``space`` is the assignment-space size ``n^k``; ``bound`` is an
    optional duck-typed cardinality bound (``.lower`` attribute, as on
    :class:`~repro.cost.model.CardBound`) whose positive lower end, when
    it beats the ``min_density`` floor, makes the plan provable.
    """
    if not 0.0 < epsilon:
        raise ReproError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ReproError(f"delta must lie in (0, 1), got {delta}")
    if space < 1.0:
        raise ReproError(f"assignment space must be at least 1, got {space}")
    if not 0.0 < min_density <= 1.0:
        raise ReproError(f"min_density must lie in (0, 1], got {min_density}")
    if max_samples < _MIN_SAMPLES:
        raise ReproError(
            f"max_samples must be at least {_MIN_SAMPLES}, got {max_samples}"
        )
    if method not in ("hoeffding", "median_of_means"):
        raise ReproError(
            f"method must be 'hoeffding' or 'median_of_means', got {method!r}"
        )

    heuristic_floor = min_density * space
    provable_lower = 0.0
    if bound is not None:
        lower = getattr(bound, "lower", 0.0)
        if lower is not None and lower > 0:
            provable_lower = float(lower)
    floor = min(space, max(provable_lower, heuristic_floor, 1.0))
    provable = provable_lower >= floor

    eps_add = epsilon * floor / space
    if method == "median_of_means":
        blocks = max(1, math.ceil(8.0 * math.log(1.0 / delta)))
        per_block = max(1, math.ceil(1.0 / (eps_add * eps_add)))
        wanted = blocks * per_block
    else:
        blocks = 1
        wanted = math.ceil(math.log(2.0 / delta) / (2.0 * eps_add * eps_add))
    wanted = max(_MIN_SAMPLES, wanted)

    truncated = wanted > max_samples
    samples = min(wanted, max_samples)
    if method == "median_of_means":
        # Keep whole blocks so the median stays well-defined.
        per_block = max(1, samples // blocks)
        samples = per_block * blocks
    return SamplePlan(
        samples=samples,
        epsilon=epsilon,
        delta=delta,
        space=float(space),
        floor=floor,
        method=method,
        blocks=blocks,
        truncated=truncated,
        provable=provable,
    )
