"""Metamorphic checks at n = 1000, where the brute-force oracle cannot go.

Two relations between runs that hold for every correct engine:

* isomorphism invariance — a seeded relabelling of the universe, in a
  shuffled universe order, leaves every count unchanged and carries every
  unary value along with its element;
* update round trip — inserting a tuple with ``with_tuple`` and deleting
  it again gives a structure whose answers and Gaifman neighbour tuples
  are byte-identical to the start's, and the structure in between has the
  answers and neighbour tuples of a fresh build of its relations.

The queries are the scaling benchmark's three (a count, a ground term and
a unary term) on its three sparse families.
"""

import random

import pytest

from repro.core.evaluator import Foc1Evaluator
from repro.logic.parser import parse_formula, parse_term
from repro.sparse.classes import bounded_degree_graph, nearly_square_grid, random_tree
from repro.structures.structure import Structure

N = 1000

FAMILIES = {
    "grid": lambda: nearly_square_grid(N),
    "tree": lambda: random_tree(N, seed=1),
    "bd3": lambda: bounded_degree_graph(N, max_degree=3, seed=1),
}

PATHS2 = parse_formula("E(x, y) & E(y, z) & !(x = z)")
CENSUS4 = parse_term("#(x). @eq(#(y). E(x, y), 4)")
HIGH_NBRS = parse_term("#(y). (E(x, y) & @gt(#(z). E(y, z), 2))")


def _answers(structure):
    engine = Foc1Evaluator(workers=1)
    return (
        engine.count(structure, PATHS2, ["x", "y", "z"]),
        engine.ground_term_value(structure, CENSUS4),
        list(engine.unary_term_values(structure, HIGH_NBRS, "x").items()),
    )


def _relabelled(structure, seed):
    """An isomorphic copy under a seeded relabelling, whose universe order
    is shuffled too; returns the copy and the element map."""
    rng = random.Random(seed)
    elements = list(structure.universe_order)
    rng.shuffle(elements)
    label = {a: ("v", i) for i, a in enumerate(elements)}
    universe = list(label.values())
    rng.shuffle(universe)
    relations = {
        symbol: [tuple(label[entry] for entry in tup) for tup in rel]
        for symbol, rel in structure.relations().items()
    }
    return Structure(structure.signature, universe, relations), label


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    structure = FAMILIES[request.param]()
    return structure, _answers(structure)


def test_relabelling_leaves_the_answers_unchanged(family):
    structure, (paths2, census4, high_nbrs) = family
    copy, label = _relabelled(structure, seed=len(structure.relation("E")))
    got_paths2, got_census4, got_high_nbrs = _answers(copy)
    assert (got_paths2, got_census4) == (paths2, census4)
    assert dict(got_high_nbrs) == {label[a]: value for a, value in high_nbrs}


def test_insert_then_delete_round_trips(family):
    structure, answers = family
    view = structure.columnar()._neighbour_ids()
    rng = random.Random(structure.order())
    universe = structure.universe_order
    for tup in (
        (rng.choice(universe), rng.choice(universe)),  # likely a new edge
        (universe[0], universe[0]),  # a self-loop: no Gaifman edge
        # A present tuple, deleted and put back; its reverse keeps the edge.
        min(structure.relation("E")),
    ):
        present = tup in structure.relation("E")
        changed = structure.with_tuple("E", tup, not present)
        rebuilt = Structure(changed.signature, universe, changed.relations())
        assert _answers(changed) == _answers(rebuilt)
        assert (
            changed.columnar()._neighbour_ids()
            == rebuilt.columnar()._neighbour_ids()
        )
        back = changed.with_tuple("E", tup, present)
        assert back == structure
        assert back._columnar is not None
        assert back.columnar()._neighbour_ids() == view
        assert _answers(back) == answers
