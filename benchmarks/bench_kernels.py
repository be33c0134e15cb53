"""E17 — columnar id-space kernels vs the element-space reference oracle.

The local-evaluation hot paths (pattern walks, D-ball exploration, the
sparse-cover greedy) run on interned-id kernels
(:mod:`repro.structures.columnar`); the pre-columnar set-based
implementations survive in the test suite's oracle, ``tests/reference.py``,
over a Gaifman graph built straight from the relations.  Each
parameter point here runs *both* implementations on the same structure
and asserts byte-identical answers, so a speedup can never be
bought with a semantics change.

Both rows of a pair record their ``impl`` (``"columnar"`` or
``"reference"``) and the peak-RSS reading (``resource.getrusage``;
ru_maxrss is process-monotonic, so it depends on test order and is
context, not a gate) in ``extra_info``.  The columnar/reference timing
ratio per pair (the refactor pays for itself when it is <= 1.0) reads off
pytest-benchmark's table: ``pytest benchmarks/bench_kernels.py
--benchmark-only``.

The columnar view is built outside the timed region, as the engine
caches it once per structure; the reference side builds its dict graph
once per timed call, an O(||A||) pass next to the per-element walks it
times.
"""

import resource

import pytest

from repro.core.clterms import BasicClTerm
from repro.core.local_eval import evaluate_basic_unary
from repro.logic.syntax import And, Atom, Eq, Not
from repro.sparse.classes import nearly_square_grid
from repro.sparse.covers import sparse_cover
from repro.structures.gaifman import ball
from tests.reference import (
    gaifman_adjacency,
    reference_ball,
    reference_evaluate_basic_unary,
    reference_sparse_cover,
)

SIZES = (64, 400)

IMPLS = ("columnar", "reference")


def _term() -> BasicClTerm:
    """A width-2 linked pattern with a local psi — exercises the compiled
    pattern plans, the bitset membership tests and the ball cache."""
    return BasicClTerm(
        ("y1", "y2"),
        And(Atom("E", ("y1", "y2")), Not(Eq("y1", "y2"))),
        psi_radius=1,
        link_distance=2,
        edges=((1, 2),),
        unary=True,
    )


def _tag(benchmark, structure, impl: str) -> None:
    benchmark.extra_info["impl"] = impl
    benchmark.extra_info["order"] = structure.order()
    benchmark.extra_info["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF
    ).ru_maxrss


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("n", SIZES)
def test_kernel_unary_counts(benchmark, n, impl):
    structure = nearly_square_grid(n)
    term = _term()
    structure.columnar()
    fn = (
        evaluate_basic_unary
        if impl == "columnar"
        else reference_evaluate_basic_unary
    )
    other = (
        reference_evaluate_basic_unary
        if impl == "columnar"
        else evaluate_basic_unary
    )

    result = benchmark(fn, structure, term)

    reference = other(structure, term)
    assert result == reference
    assert list(result) == list(reference)  # same insertion order
    _tag(benchmark, structure, impl)


def _columnar_ball_sweep(structure, radius):
    return sum(
        len(ball(structure, (element,), radius))
        for element in structure.universe_order
    )


def _reference_ball_sweep(structure, radius):
    adjacency = gaifman_adjacency(structure)
    return sum(
        len(reference_ball(adjacency, [element], radius))
        for element in structure.universe_order
    )


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("n", SIZES)
def test_kernel_ball_sweep(benchmark, n, impl):
    """Every element's 2-ball — the Remark 6.3 exploration primitive."""
    structure = nearly_square_grid(n)
    structure.columnar()
    fn = _columnar_ball_sweep if impl == "columnar" else _reference_ball_sweep

    total = benchmark(fn, structure, 2)

    assert total == _reference_ball_sweep(structure, 2)
    _tag(benchmark, structure, impl)


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("n", SIZES)
def test_kernel_sparse_cover(benchmark, n, impl):
    structure = nearly_square_grid(n)
    radius = 2
    structure.columnar()

    if impl == "columnar":
        cover = benchmark(sparse_cover, structure, radius)
        clusters, assignment, centres = reference_sparse_cover(
            structure, radius
        )
        assert cover.clusters == clusters
        assert cover.assignment == assignment
        assert list(cover.assignment) == list(assignment)
        assert cover.centres == centres
    else:
        clusters, assignment, centres = benchmark(
            reference_sparse_cover, structure, radius
        )
        cover = sparse_cover(structure, radius)
        assert cover.clusters == clusters
        assert cover.assignment == assignment
        assert cover.centres == centres
    _tag(benchmark, structure, impl)
