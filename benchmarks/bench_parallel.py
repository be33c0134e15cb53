"""E15 — serial vs parallel evaluation (docs/PARALLEL.md, EXPERIMENTS.md).

Measures two of the three process fan-outs — the Section 8.2 per-cluster
loop (:func:`~repro.core.cover_eval.evaluate_per_cluster`) and the
batched counter (:meth:`~repro.core.evaluator.Foc1Evaluator.count_many`)
— at 1, 2 and 4 workers on grid graphs, the suite's standard sparse
family.  Above one worker both ship pickled payloads to child processes,
so a speedup needs both free cores and enough work per shard to pay for
the pool; on a 1-core runner the honest expectation is below 1.0x.  Each
benchmark records its worker count in ``extra_info``; the speedup
(workers=1 mean over this mean) reads off pytest-benchmark's table
(``pytest benchmarks/bench_parallel.py --benchmark-only``).

The workers=1 rows double as the overhead guard: they take the exact
pre-parallel code path, so they are the serial cost the other rows are
read against.
"""

import pytest

from repro.core.clterms import CoverTerm
from repro.core.cover_eval import evaluate_per_cluster
from repro.core.evaluator import Foc1Evaluator
from repro.logic.builder import Rel
from repro.logic.parser import parse_formula
from repro.plan.cache import PlanCache
from repro.sparse.classes import nearly_square_grid
from repro.sparse.covers import sparse_cover

E = Rel("E", 2)

WORKER_COUNTS = (1, 2, 4)

SIZES = (100, 400)

DEGREE_TERM = CoverTerm(
    variables=("y1", "y2"),
    edges=frozenset({(1, 2)}),
    link_distance=1,
    component_formulas=((frozenset({1, 2}), E("y1", "y2")),),
    unary=True,
)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("n", SIZES)
def test_per_cluster_workers(benchmark, n, workers):
    structure = nearly_square_grid(n)
    cover = sparse_cover(structure, 2)

    values = benchmark(
        evaluate_per_cluster, structure, cover, DEGREE_TERM, workers=workers
    )
    # Parity with the serial loop, byte-identical.
    serial = evaluate_per_cluster(structure, cover, DEGREE_TERM)
    assert list(values.items()) == list(serial.items())
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["order"] = structure.order()
    benchmark.extra_info["clusters"] = len(cover.clusters)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("n", (64,))
def test_count_many_workers(benchmark, n, workers):
    structures = [nearly_square_grid(n) for _ in range(8)]
    phi = parse_formula("E(x, y) & E(y, z)")
    # A private plan cache isolates the measurement from other modules but
    # still shows the one-plan-many-inputs reuse inside the batch.
    engine = Foc1Evaluator(workers=workers, plan_cache=PlanCache())

    counts = benchmark(engine.count_many, structures, phi, ["x", "y", "z"])
    assert counts == [
        Foc1Evaluator().count(s, phi, ["x", "y", "z"]) for s in structures
    ]
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["batch"] = len(structures)
