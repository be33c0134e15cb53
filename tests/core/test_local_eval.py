"""Tests for local (ball-exploration) evaluation of basic cl-terms
(Remark 6.3), differential-tested against the naive semantics."""

import pytest
from hypothesis import given, settings

from repro.core.clterms import BasicClTerm, ClPolynomial
from repro.core.local_eval import (
    _BallCache,
    evaluate_basic_ground,
    evaluate_basic_unary,
    evaluate_polynomial_ground,
    evaluate_polynomial_unary,
    pattern_tuples,
)
from repro.errors import FormulaError
from repro.logic.builder import Rel
from repro.logic.semantics import evaluate
from repro.logic.syntax import And, Eq, Exists, Not, Top
from repro.obs import collect_metrics
from repro.structures.builders import graph_structure, grid_graph, path_graph
from repro.structures.gaifman import connectivity_graph

from ..conftest import small_graphs

E = Rel("E", 2)


class TestPatternTuples:
    def test_exact_pattern_on_path(self):
        p = path_graph(6)
        edges = frozenset({(1, 2), (2, 3)})
        tuples = list(pattern_tuples(p, 1, 3, edges, 1))
        for tup in tuples:
            assert connectivity_graph(p, tup, 1) == edges
        assert (1, 2, 3) in tuples

    def test_pattern_excludes_extra_closeness(self):
        # pattern path 1-2, 2-3 but NOT 1-3: on a triangle, no 3-tuple of
        # distinct adjacent vertices qualifies (everything is close).
        t = graph_structure([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
        edges = frozenset({(1, 2), (2, 3)})
        assert list(pattern_tuples(t, 1, 3, edges, 1)) == []

    def test_repeated_elements_allowed(self):
        p = path_graph(4)
        clique = frozenset({(1, 2)})
        tuples = list(pattern_tuples(p, 2, 2, clique, 1))
        assert (2, 2) in tuples  # dist 0 <= 1 forces the pattern edge

    @given(small_graphs(min_vertices=2, max_vertices=6))
    @settings(max_examples=25, deadline=None)
    def test_every_emitted_tuple_has_the_pattern(self, structure):
        edges = frozenset({(1, 2)})
        first = structure.universe_order[0]
        for tup in pattern_tuples(structure, first, 2, edges, 1):
            assert connectivity_graph(structure, tup, 1) == edges

    def test_disconnected_pattern_rejected(self):
        p = path_graph(4)
        with pytest.raises(FormulaError):
            list(pattern_tuples(p, 1, 3, frozenset({(1, 2)}), 1))


class _CountingBalls(_BallCache):
    """Counts the lookups a pattern walk makes: its ``ball_ids`` and
    ``bitset`` calls, not the ``ball_ids`` call inside a bitset miss."""

    def __init__(self, structure, distance):
        super().__init__(structure, distance)
        self.lookups = 0
        self._in_bitset = False

    def ball_ids(self, eid):
        if not self._in_bitset:
            self.lookups += 1
        return super().ball_ids(eid)

    def bitset(self, eid):
        self.lookups += 1
        self._in_bitset = True
        try:
            return super().bitset(eid)
        finally:
            self._in_bitset = False


class TestBallCacheCounters:
    def test_hits_and_misses_add_up_to_lookups(self):
        structure = grid_graph(5, 5)
        edges = frozenset({(1, 2), (2, 3)})  # position 3 probes 1's bitset
        with collect_metrics() as metrics:
            balls = _CountingBalls(structure, 1)
            for element in structure.universe_order:
                list(pattern_tuples(structure, element, 3, edges, 1, balls))
        hits = metrics.counter("local.ball.memo.hit")
        misses = metrics.counter("local.ball.memo.miss")
        assert hits > 0 and misses > 0
        assert hits + misses == balls.lookups


def _naive_unary(structure, term):
    ct = term.count_term()
    return {
        a: evaluate(ct, structure, {term.variables[0]: a})
        for a in structure.universe_order
    }


class TestBasicEvaluation:
    @given(small_graphs(min_vertices=2, max_vertices=6))
    @settings(max_examples=30, deadline=None)
    def test_unary_matches_naive(self, structure):
        term = BasicClTerm(
            ("y1", "y2"),
            E("y1", "y2"),
            psi_radius=0,
            link_distance=1,
            edges=frozenset({(1, 2)}),
            unary=True,
        )
        assert evaluate_basic_unary(structure, term) == _naive_unary(structure, term)

    @given(small_graphs(min_vertices=2, max_vertices=5))
    @settings(max_examples=20, deadline=None)
    def test_width3_matches_naive(self, structure):
        term = BasicClTerm(
            ("y1", "y2", "y3"),
            And(E("y1", "y2"), E("y2", "y3")),
            psi_radius=0,
            link_distance=1,
            edges=frozenset({(1, 2), (2, 3)}),
            unary=True,
        )
        assert evaluate_basic_unary(structure, term) == _naive_unary(structure, term)

    def test_ground_is_sum_of_unary(self):
        g = grid_graph(4, 4)
        ground = BasicClTerm(
            ("y1", "y2"),
            E("y1", "y2"),
            0,
            1,
            frozenset({(1, 2)}),
            unary=False,
        )
        unary = BasicClTerm(
            ("y1", "y2"), E("y1", "y2"), 0, 1, frozenset({(1, 2)}), unary=True
        )
        total = evaluate_basic_ground(g, ground)
        assert total == sum(evaluate_basic_unary(g, unary).values())
        assert total == len(g.relation("E"))

    def test_local_psi_with_quantifier(self):
        """psi = 'y2 has a neighbour besides y1' is 1-local around (y1,y2)."""
        p = path_graph(6)
        psi = Exists("z", And(E("y2", "z"), Not(Eq("z", "y1"))))
        term = BasicClTerm(
            ("y1", "y2"), psi, psi_radius=1, link_distance=1,
            edges=frozenset({(1, 2)}), unary=True,
        )
        local = evaluate_basic_unary(p, term, evaluate_psi_locally=True)
        globally = evaluate_basic_unary(p, term, evaluate_psi_locally=False)
        assert local == globally == _naive_unary(p, term)

    def test_unary_flag_enforced(self, path5):
        ground = BasicClTerm(
            ("y1",), Top(), 0, 1, frozenset(), unary=False
        )
        with pytest.raises(FormulaError):
            evaluate_basic_unary(path5, ground)
        unary = BasicClTerm(("y1",), Top(), 0, 1, frozenset(), unary=True)
        with pytest.raises(FormulaError):
            evaluate_basic_ground(path5, unary)

    def test_restricted_elements(self, path5):
        term = BasicClTerm(
            ("y1", "y2"), E("y1", "y2"), 0, 1, frozenset({(1, 2)}), unary=True
        )
        values = evaluate_basic_unary(path5, term, elements=[1, 3])
        assert set(values) == {1, 3}
        assert values[1] == 1 and values[3] == 2


class TestPolynomialEvaluation:
    def test_ground_polynomial(self):
        g = grid_graph(3, 3)
        edge_count = BasicClTerm(
            ("y1", "y2"), E("y1", "y2"), 0, 1, frozenset({(1, 2)}), unary=False
        )
        node_count = BasicClTerm(("y1",), Top(), 0, 1, frozenset(), unary=False)
        poly = (
            ClPolynomial.of(edge_count)
            - ClPolynomial.of(node_count) * ClPolynomial.constant(2)
        )
        expected = len(g.relation("E")) - 2 * g.order()
        assert evaluate_polynomial_ground(g, poly) == expected

    def test_unary_polynomial_mixes_ground_factors(self):
        p = path_graph(5)
        degree = BasicClTerm(
            ("y1", "y2"), E("y1", "y2"), 0, 1, frozenset({(1, 2)}), unary=True
        )
        nodes = BasicClTerm(("y1",), Top(), 0, 1, frozenset(), unary=False)
        poly = ClPolynomial.of(degree) * ClPolynomial.of(nodes)
        values = evaluate_polynomial_unary(p, poly)
        assert values[1] == 1 * 5 and values[3] == 2 * 5

    def test_unary_in_ground_position_rejected(self, path5):
        degree = BasicClTerm(
            ("y1", "y2"), E("y1", "y2"), 0, 1, frozenset({(1, 2)}), unary=True
        )
        with pytest.raises(FormulaError):
            evaluate_polynomial_ground(path5, ClPolynomial.of(degree))
