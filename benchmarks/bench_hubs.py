"""E16 — hub-heavy trees: counting must not enumerate what it counts.

Stars and spiders are trees, so Theorem 5.5 covers them, but a hub of
degree Θ(n) makes any per-candidate test of ``!(x = z)`` quadratic.  The
engine counts paths2 and the unary path term as the two-path count by
elimination minus its close cases, so its steps grow linearly.

Measured shape: over n = 10³ … 10⁵ the fitted log–log slope of
``EvaluationBudget.steps`` is at most 1.2 on stars and spiders, for
``paths2`` (``count``) and for the path term (``unary_term_values`` over
every vertex).  Steps are deterministic, so the bound holds on any
machine; the wall-time slopes go to ``extra_info``.  Every answer is
checked against its closed form:

* paths2 = Σ_y deg(y)(deg(y) − 1);
* the path term at y1 = Σ over neighbours y2 of (deg(y2) − 1).

The Section 8.2 main algorithm's star path term is recorded beside them
at n = 256 … 4096, with no bound.
"""

import math
import random
import time

import pytest

from repro.core.clterms import BasicClTerm
from repro.core.evaluator import Foc1Evaluator
from repro.core.main_algorithm import evaluate_unary_main_algorithm
from repro.logic.parser import parse_formula, parse_term
from repro.logic.syntax import And, Atom, Eq, Not
from repro.robust.budget import EvaluationBudget
from repro.structures.builders import graph_structure, star_graph

SIZES = (10**3, 10**4, 10**5)
MAIN_SIZES = (256, 1024, 4096)

PATHS2 = parse_formula("E(x, y) & E(y, z) & !(x = z)")
PATH_TERM = parse_term("#(y2, y3). (E(y1, y2) & E(y2, y3) & !(y1 = y3))")


def spider(n: int, seed: int = 0):
    """Four hubs on a path; every other vertex is a leaf of a seeded
    random hub."""
    rng = random.Random(seed)
    edges = [(0, 1), (1, 2), (2, 3)] + [(v, rng.randrange(4)) for v in range(4, n)]
    return graph_structure(range(n), edges)


FAMILIES = {
    "star": lambda n: star_graph(n - 1),
    "spider": lambda n: spider(n, seed=5),
}


def _neighbours(structure):
    found = {v: [] for v in structure.universe_order}
    for u, v in structure.tuples(structure.signature.get("E")):
        found[u].append(v)
    return found


def paths2(structure) -> int:
    return sum(len(ns) * (len(ns) - 1) for ns in _neighbours(structure).values())


def path_term(structure):
    nbrs = _neighbours(structure)
    return {v: sum(len(nbrs[w]) - 1 for w in ns) for v, ns in nbrs.items()}


QUERIES = {
    "paths2": (lambda e, s: e.count(s, PATHS2, ["x", "y", "z"]), paths2),
    "path_term": (lambda e, s: e.unary_term_values(s, PATH_TERM, "y1"), path_term),
}


def loglog_slope(points):
    """Least-squares slope of log(y) against log(x)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(max(y, 1e-9)) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_hub_slopes(benchmark, family, query):
    run, closed_form = QUERIES[query]
    steps, walls = [], []
    for n in SIZES:
        structure = FAMILIES[family](n)
        budget = EvaluationBudget()
        started = time.perf_counter()
        value = run(Foc1Evaluator(budget=budget, workers=1), structure)
        walls.append((n, time.perf_counter() - started))
        assert value == closed_form(structure), (family, query, n)
        steps.append((n, budget.steps))
    slope = loglog_slope(steps)
    benchmark.extra_info.update(
        family=family,
        query=query,
        steps=dict(steps),
        steps_slope=round(slope, 3),
        wall_s={n: round(t, 4) for n, t in walls},
        wall_slope=round(loglog_slope(walls), 3),
    )
    assert slope <= 1.2, steps
    # The timed row: the largest size.
    benchmark(run, Foc1Evaluator(workers=1), structure)


# -- the Section 8.2 main algorithm on stars (recorded, no bound) -----------

E = lambda u, v: Atom("E", (u, v))  # noqa: E731

MAIN_PATH_TERM = BasicClTerm(
    ("y1", "y2", "y3"),
    And(And(E("y1", "y2"), E("y2", "y3")), Not(Eq("y1", "y3"))),
    0,
    1,
    frozenset({(1, 2), (2, 3)}),
    unary=True,
)


@pytest.mark.parametrize("n", MAIN_SIZES)
def test_main_algorithm_star_path_term(benchmark, n):
    structure = star_graph(n - 1)
    values = benchmark(evaluate_unary_main_algorithm, structure, MAIN_PATH_TERM, depth=1)
    assert values == path_term(structure)
    benchmark.extra_info["order"] = n
