"""Tests for :mod:`repro.cost.stats`.

The load-bearing property: an estimate must never read stale
cardinalities or degrees.  ``structure_stats`` builds a fresh summary per
call, and the degree summary reads the structure's columnar view, which
``with_tuple()`` derives and ``invalidate_caches()`` drops.
"""

from repro.cost import CardinalityEstimator, StructureStats, structure_stats
from repro.logic.parser import parse_formula
from repro.structures.builders import graph_structure, path_graph


class TestSummary:
    def test_eager_parts_match_structure(self):
        structure = path_graph(5)
        stats = structure_stats(structure)
        assert stats.order == 5
        assert stats.relation_card("E") == 8  # 4 undirected edges, both ways

    def test_unknown_relation_counts_as_empty(self):
        stats = structure_stats(path_graph(4))
        assert stats.relation_card("Paux__0") == 0

    def test_lazy_parts(self):
        stats = structure_stats(path_graph(4))
        assert stats.degree().mean == 1.5  # degrees 1, 2, 2, 1

    def test_ball_size_estimate_monotone_and_capped(self):
        stats = structure_stats(path_graph(6))
        sizes = [stats.ball_size_estimate(r) for r in range(0, 8)]
        assert sizes[0] == 1.0
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        assert all(size <= stats.order for size in sizes)


class TestCopyOnWriteDerivation:
    def test_with_tuple_derives_incrementally(self):
        structure = path_graph(4)
        base = structure_stats(structure)
        derived = structure.with_tuple("E", (1, 3))
        stats = structure_stats(derived)
        assert isinstance(stats, StructureStats)
        assert stats is not base
        assert stats.relation_card("E") == base.relation_card("E") + 1
        # The parent's stats are untouched.
        assert structure_stats(structure).relation_card("E") == base.relation_card("E")

    def test_with_tuple_removal(self):
        structure = path_graph(4)
        base = structure_stats(structure)
        derived = structure.with_tuple("E", (2, 3), present=False)
        assert structure_stats(derived).relation_card("E") == base.relation_card("E") - 1

    def test_lazy_parts_rebuilt_from_derived_adjacency(self):
        structure = graph_structure([1, 2, 3, 4], [(1, 2), (3, 4)])
        base = structure_stats(structure)
        assert base.degree().mean == 1.0
        # Bridge the components; the derived degree summary must come
        # from the derived adjacency, not the parent's.
        bridged = structure.with_tuple("E", (2, 3)).with_tuple("E", (3, 2))
        assert structure_stats(bridged).degree().mean == 1.5


def _edge_bound(structure):
    """The bound on ``#(x, y). E(x, y)``, read off fresh statistics; it is
    exact, since the body is one positive atom over the counted
    variables."""
    bound = CardinalityEstimator(structure_stats(structure)).count_bound(
        ("x", "y"), parse_formula("E(x, y)")
    )
    assert bound.exact
    return bound.estimate


class TestEstimatorSeesFreshCardinalities:
    """Estimate, mutate, estimate again — the second estimate must be
    read off the updated statistics."""

    def test_bound_after_incremental_mutation(self):
        structure = path_graph(6)
        assert _edge_bound(structure) == 10

        mutated = structure
        for v in range(2, 6):
            mutated = mutated.with_tuple("E", (1, v + 1)).with_tuple(
                "E", (v + 1, 1)
            )
        assert len(mutated.relation("E")) == 18
        assert _edge_bound(mutated) == 18
        # The parent's estimate is untouched.
        assert _edge_bound(structure) == 10

    def test_bound_after_in_place_mutation(self):
        structure = path_graph(6)
        assert _edge_bound(structure) == 10
        symbol = next(s for s in structure._relations if s.name == "E")
        structure._relations[symbol] = structure._relations[symbol] | {
            (1, 3),
            (3, 1),
        }
        structure.invalidate_caches()
        assert structure_stats(structure).relation_card("E") == 12
        assert _edge_bound(structure) == 12
