"""E17 — sampling tier vs exact counting on dense inputs (docs/ENGINES.md,
approx layer).

Each parameter point counts the same dense-graph query twice: once exactly
(brute-force ``count_solutions``, the ground truth every other engine must
match) and once with the seeded :class:`~repro.approx.ApproxEvaluator` at
the default (eps=0.1, delta=0.05) guarantee.  The approx row asserts
that the estimate's observed relative error against the exact count stays
<= epsilon.  The sampler draws from a fixed seed, so that assert is
deterministic: it fails only when the sampler or its planner changes.
The exact and approx timings per size sit side by side in
pytest-benchmark's table (``pytest benchmarks/bench_approx.py
--benchmark-only``); an approx row faster than its exact row means
sampling is already cheaper at a size exact can still reach.

The sizes are deliberately small enough that brute force terminates: the
point of the paired rows is a *checkable* error, not a scaling plot.  The
dense regime where only sampling answers inside a budget is exercised by
``tests/approx/test_differential_approx.py`` instead.
"""

import pytest

from repro.approx import ApproxEvaluator
from repro.logic.parser import parse_formula
from repro.logic.semantics import count_solutions
from repro.sparse.classes import dense_random_graph

SIZES = (20, 40)

MODES = ("exact", "approx")

EPSILON = 0.1
DELTA = 0.05

#: Dense two-hop count: on G(n, 1/2) roughly a quarter of all n^3 triples
#: satisfy it, so the sampler's density floor is never the binding term.
COUNT_PHI = "E(x, y) & E(y, z)"
VARIABLES = ("x", "y", "z")


def _exact(structure, phi):
    return count_solutions(structure, phi, list(VARIABLES))


def _approx(structure, phi):
    engine = ApproxEvaluator(epsilon=EPSILON, delta=DELTA, seed=0)
    return engine.count(structure, phi, list(VARIABLES))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", SIZES)
def test_approx_vs_exact_dense(benchmark, n, mode):
    structure = dense_random_graph(n, probability=0.5, seed=n)
    phi = parse_formula(COUNT_PHI)
    truth = _exact(structure, phi)

    if mode == "exact":
        result = benchmark(_exact, structure, phi)
        assert result == truth
    else:
        result = benchmark(_approx, structure, phi)
        # Determinism: the same seed must reproduce the same estimate.
        assert result.value == _approx(structure, phi).value
        error = result.relative_error_vs(truth)
        assert error <= EPSILON, f"relative error {error:.4f} > eps {EPSILON}"
        benchmark.extra_info["relative_error"] = error
        benchmark.extra_info["epsilon"] = EPSILON
        benchmark.extra_info["samples"] = result.samples

    benchmark.extra_info["engine_mode"] = mode
    benchmark.extra_info["order"] = structure.order()
