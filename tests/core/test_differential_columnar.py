"""30-seed differential suite: columnar kernels vs the set-based reference.

The columnar refactor is representation-only, so for seeded random
(structure, term) pairs every rewritten path must be *byte-identical* to
the element-space oracle of ``tests/reference.py``:

* ``pattern_tuples`` yields the same tuple set as the reference walk;
* ``evaluate_basic_unary`` returns the same dict (keys, order, values);
* ``sparse_cover`` builds the same clusters/assignment/centres as the
  pre-columnar greedy construction replayed over the reference BFS;
* the per-cluster path agrees inline and on child processes at every
  worker count from 1 to 5.
"""

import random

import pytest

from repro.core.clterms import BasicClTerm, CoverTerm
from repro.core.cover_eval import evaluate_per_cluster
from repro.core.local_eval import evaluate_basic_unary, pattern_tuples
from repro.logic.syntax import And, Atom, Eq, Exists, Not
from repro.sparse.covers import sparse_cover
from repro.structures.builders import graph_structure

from ..reference import (
    ReferenceBallCache,
    gaifman_adjacency,
    reference_evaluate_basic_unary,
    reference_pattern_tuples,
    reference_sparse_cover,
)

SEEDS = range(30)

#: Connected pattern graphs by width.
PATTERNS = {
    1: [()],
    2: [((1, 2),)],
    3: [((1, 2), (2, 3)), ((1, 2), (1, 3), (2, 3))],
}


def _random_structure(rng: random.Random):
    n = rng.randint(6, 14)
    if rng.random() < 0.25:
        # Mixed-type universe: interning must not force element comparisons.
        vertices = [f"v{i}" if i % 3 else (i, i) for i in range(n)]
    else:
        vertices = list(range(1, n + 1))
    pairs = [
        (vertices[i], vertices[j])
        for i in range(n)
        for j in range(i + 1, n)
    ]
    edges = [pair for pair in pairs if rng.random() < rng.uniform(0.1, 0.35)]
    return graph_structure(vertices, edges)


def _random_term(rng: random.Random) -> BasicClTerm:
    k = rng.choice([1, 2, 2, 3])
    edges = rng.choice(PATTERNS[k])
    variables = tuple(f"y{i}" for i in range(1, k + 1))
    v1 = variables[0]
    v2 = variables[-1]
    psi = And(Atom("E", (v1, v2)), Not(Eq(v1, v2)))
    if k == 1:
        psi = Atom("E", (v1, v1))
    if rng.random() < 0.4:
        psi = Not(psi)
    if rng.random() < 0.3:
        psi = Exists("z", And(Atom("E", (v1, "z")), Not(Eq("z", v1))))
    return BasicClTerm(
        variables,
        psi,
        psi_radius=1,
        link_distance=rng.choice([1, 2]),
        edges=edges,
        unary=True,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_pattern_tuples_match_reference(seed):
    rng = random.Random(seed)
    structure = _random_structure(rng)
    term = _random_term(rng)
    reference_balls = ReferenceBallCache(
        gaifman_adjacency(structure), term.link_distance
    )
    for element in structure.universe_order:
        got = set(
            pattern_tuples(
                structure, element, term.width, term.edges, term.link_distance
            )
        )
        want = set(
            reference_pattern_tuples(
                reference_balls, element, term.width, term.edges
            )
        )
        assert got == want


@pytest.mark.parametrize("seed", SEEDS)
def test_evaluate_basic_unary_byte_identical(seed):
    rng = random.Random(seed)
    structure = _random_structure(rng)
    term = _random_term(rng)
    got = evaluate_basic_unary(structure, term)
    want = reference_evaluate_basic_unary(structure, term)
    assert got == want
    assert list(got) == list(want)  # same insertion order, not just same sets


@pytest.mark.parametrize("seed", SEEDS)
def test_sparse_cover_byte_identical(seed):
    rng = random.Random(seed)
    structure = _random_structure(rng)
    radius = rng.choice([1, 2])
    cover = sparse_cover(structure, radius)
    clusters, assignment, centres = reference_sparse_cover(structure, radius)
    assert cover.clusters == clusters
    assert cover.assignment == assignment
    assert list(cover.assignment) == list(assignment)
    assert cover.centres == centres


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workers", (1, 2, 3, 4, 5))
def test_per_cluster_workers_byte_identical(seed, workers):
    rng = random.Random(seed)
    structure = _random_structure(rng)
    term = _random_term(rng)
    cover = sparse_cover(structure, term.width * term.link_distance)
    as_cover = CoverTerm(
        term.variables,
        term.edges,
        term.link_distance,
        ((frozenset(range(1, term.width + 1)), term.psi),),
        unary=True,
    )
    want = evaluate_per_cluster(structure, cover, as_cover, workers=1)
    got = evaluate_per_cluster(structure, cover, as_cover, workers=workers)
    assert got == want
    assert list(got) == list(want)
