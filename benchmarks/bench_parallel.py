"""E15 — serial vs parallel evaluation (docs/PARALLEL.md, EXPERIMENTS.md).

Measures the Section 8.2 per-cluster loop
(:func:`~repro.core.cover_eval.evaluate_per_cluster`), one of the two
process fan-outs, at 1, 2 and 4 workers on grid graphs, the suite's
standard sparse family.  Above one
worker it ships pickled payloads to child processes, so a speedup needs
both free cores and enough work per shard to pay for the pool; on a
1-core runner the honest expectation is below 1.0x.  Each benchmark
records its worker count in ``extra_info``; the speedup (workers=1 mean
over this mean) reads off pytest-benchmark's table (``pytest
benchmarks/bench_parallel.py --benchmark-only``).

The workers=1 rows double as the overhead guard: they take the exact
pre-parallel code path, so they are the serial cost the other rows are
read against.
"""

import pytest

from repro.core.clterms import CoverTerm
from repro.core.cover_eval import evaluate_per_cluster
from repro.logic.builder import Rel
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
