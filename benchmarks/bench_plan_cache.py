"""E13 — the compile-once plan cache.

Claim under test: with the plan layer, the static analyses (stratification,
Lemma 6.4 decomposition, guard selection) are paid once per (query,
signature, options) and amortised across repeated evaluation; warm calls
skip compilation entirely.

Measured shape: the *cold* series compiles on every call (a fresh
:class:`~repro.plan.cache.PlanCache` per invocation), the *warm* series
shares one cache across all rounds, so its per-call latency drops by the
compile share reported in ``plan.compile.seconds``.
"""

import pytest

from repro.core.evaluator import Foc1Evaluator
from repro.logic.parser import parse_formula
from repro.plan import PlanCache
from repro.sparse.classes import nearly_square_grid

from .conftest import SMALL_SIZES

#: A query with something for every plan stage: a stratification step
#: (the inner predicate atom), inclusion-exclusion, and a 3-variable
#: decomposition with index guards.
QUERY = parse_formula(
    "(E(x, y) & E(y, z) & @geq1(#(w). E(x, w))) | (x = y & E(y, z))"
)
VARIABLES = ["x", "y", "z"]

SENTENCE = parse_formula("forall x. @geq1(#(y). E(x, y))")


@pytest.mark.parametrize("n", SMALL_SIZES)
def test_count_cold_cache(benchmark, n):
    """Compile + execute on every call: a fresh plan cache each time."""
    structure = nearly_square_grid(n)

    def cold():
        engine = Foc1Evaluator(plan_cache=PlanCache())
        return engine.count(structure, QUERY, VARIABLES)

    count = benchmark(cold)
    benchmark.extra_info["order"] = structure.order()
    benchmark.extra_info["count"] = count
    benchmark.extra_info["series"] = "cold"


@pytest.mark.parametrize("n", SMALL_SIZES)
def test_count_warm_cache(benchmark, n):
    """Execute only: one shared cache, so every round after the first hits."""
    structure = nearly_square_grid(n)
    engine = Foc1Evaluator(plan_cache=PlanCache())
    engine.count(structure, QUERY, VARIABLES)  # prime the cache

    count = benchmark(engine.count, structure, QUERY, VARIABLES)
    benchmark.extra_info["order"] = structure.order()
    benchmark.extra_info["count"] = count
    benchmark.extra_info["series"] = "warm"
    stats = engine.plan_cache.stats()
    benchmark.extra_info["plan_cache_hit_rate"] = stats["hit_rate"]
    assert stats["hits"] >= 1


@pytest.mark.parametrize("n", SMALL_SIZES)
def test_model_check_warm_cache(benchmark, n):
    structure = nearly_square_grid(n)
    engine = Foc1Evaluator(plan_cache=PlanCache())
    engine.model_check(structure, SENTENCE)  # prime the cache

    answer = benchmark(engine.model_check, structure, SENTENCE)
    benchmark.extra_info["order"] = structure.order()
    benchmark.extra_info["answer"] = answer
    benchmark.extra_info["series"] = "warm"


def test_warm_cache_is_not_slower_than_cold():
    """Sanity (not a timing assertion): both paths agree on the answer and
    the warm engine's cache reports a non-trivial hit rate."""
    structure = nearly_square_grid(36)
    cold = Foc1Evaluator(plan_cache=PlanCache()).count(structure, QUERY, VARIABLES)
    engine = Foc1Evaluator(plan_cache=PlanCache())
    warm = [engine.count(structure, QUERY, VARIABLES) for _ in range(3)][-1]
    assert cold == warm
    assert engine.plan_cache.stats()["hit_rate"] > 0.5
