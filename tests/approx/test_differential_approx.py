"""The approximate tier's differential gate (ISSUE 9).

Thirty seeded dense graphs, each small enough that brute-force
enumeration still terminates, are counted both exactly
(:func:`repro.logic.semantics.count_solutions`) and through the sampler.
The gate asserts two things:

* **accuracy** — the observed relative error stays within the planned
  ``epsilon`` at (better than) the promised confidence: with
  ``delta = 0.05`` per seed, more than 2 misses out of 30 would already
  be a < 1% probability event under the Hoeffding guarantee, and in
  practice the bound's slack means zero misses;
* **seed stability** — the same seed produces byte-identical results
  (modulo wall-clock ``elapsed``) inline and on child processes at any
  worker count, because the estimate folds fixed seeded blocks in block
  order.
"""

import pytest

from repro.approx import ApproxEvaluator
from repro.logic.parser import parse_formula
from repro.logic.semantics import count_solutions
from repro.sparse.classes import dense_random_graph

EPSILON = 0.1
DELTA = 0.05

#: Per-seed miss allowance for the accuracy sweep: P(miss) <= delta per
#: seed, so 3+ misses in 30 runs has probability < 1% even at the bound.
MAX_MISSES = 2

FULL_SEEDS = tuple(range(30))


def _structure(seed):
    # n in 14..16 keeps exact enumeration trivial (n^2 assignments)
    # while the G(n, 1/2) edge set stays genuinely dense.
    return dense_random_graph(14 + seed % 3, probability=0.5, seed=seed)


def _approx(structure, phi, variables, seed, **kwargs):
    engine = ApproxEvaluator(
        epsilon=EPSILON, delta=DELTA, seed=seed, **kwargs
    )
    return engine.count(structure, phi, variables)


def _result_key(result):
    payload = result.to_dict()
    payload.pop("elapsed")
    return payload


def test_accuracy_against_exact_counts():
    phi = parse_formula("E(x, y)")
    misses = []
    for seed in FULL_SEEDS:
        structure = _structure(seed)
        exact = count_solutions(structure, phi, ["x", "y"])
        result = _approx(structure, phi, ["x", "y"], seed)
        if result.relative_error_vs(exact) > EPSILON:
            misses.append((seed, exact, result.estimate))
    assert len(misses) <= MAX_MISSES, (
        f"{len(misses)} of {len(FULL_SEEDS)} seeds exceeded "
        f"eps={EPSILON}: {misses}"
    )


def test_confidence_interval_covers_the_truth():
    phi = parse_formula("E(x, y) & E(y, z)")
    misses = []
    for seed in FULL_SEEDS:
        structure = _structure(seed)
        exact = count_solutions(structure, phi, ["x", "y", "z"])
        result = _approx(structure, phi, ["x", "y", "z"], seed)
        if not result.ci_low <= exact <= result.ci_high:
            misses.append((seed, exact, result.ci_low, result.ci_high))
    assert len(misses) <= MAX_MISSES, (
        f"{len(misses)} of {len(FULL_SEEDS)} intervals missed the exact "
        f"count: {misses}"
    )


def test_same_seed_same_estimate_across_runs():
    phi = parse_formula("E(x, y)")
    for seed in FULL_SEEDS[:4]:
        structure = _structure(seed)
        first = _approx(structure, phi, ["x", "y"], seed)
        second = _approx(structure, phi, ["x", "y"], seed)
        assert _result_key(first) == _result_key(second)


@pytest.mark.parametrize("workers", (2, 3, 4, 5))
def test_seed_stability_across_worker_counts(workers):
    phi = parse_formula("E(x, y)")
    for seed in FULL_SEEDS[:2]:
        structure = _structure(seed)
        serial = _approx(structure, phi, ["x", "y"], seed, workers=1)
        parallel = _approx(structure, phi, ["x", "y"], seed, workers=workers)
        assert _result_key(serial) == _result_key(parallel), (
            f"seed {seed} diverged at {workers} workers"
        )
