"""Tests for incremental maintenance under updates (open question 2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clterms import BasicClTerm
from repro.core.incremental import IncrementalUnaryCache
from repro.errors import (
    ArityError,
    BudgetExceededError,
    FormulaError,
    SignatureError,
    UniverseError,
)
from repro.logic.builder import Rel
from repro.logic.syntax import And
from repro.robust.budget import EvaluationBudget
from repro.sparse.classes import bounded_degree_graph
from repro.structures.builders import graph_structure, path_graph
from repro.structures.gaifman import ball
from repro.structures.signature import Signature
from repro.structures.structure import Structure

E = Rel("E", 2)
T = Rel("T", 3)


def degree_term():
    return BasicClTerm(
        ("y1", "y2"), E("y1", "y2"), 0, 1, frozenset({(1, 2)}), unary=True
    )


def two_step_term():
    psi = And(E("y1", "y2"), E("y2", "y3"))
    return BasicClTerm(
        ("y1", "y2", "y3"), psi, 0, 1, frozenset({(1, 2), (2, 3)}), unary=True
    )


def triangle_term():
    """``u(y1)`` = number of ``T``-tuples starting at ``y1``: every entry
    pair of a ``T``-tuple is a Gaifman edge, so the pattern is complete."""
    return BasicClTerm(
        ("y1", "y2", "y3"),
        T("y1", "y2", "y3"),
        0,
        1,
        frozenset({(1, 2), (1, 3), (2, 3)}),
        unary=True,
    )


class TestBasics:
    def test_initial_values(self, path5):
        cache = IncrementalUnaryCache(path5, degree_term())
        assert cache.value(1) == 1 and cache.value(3) == 2

    def test_insert_updates_affected(self, path5):
        cache = IncrementalUnaryCache(path5, degree_term())
        cache.insert("E", (1, 5))
        cache.insert("E", (5, 1))
        assert cache.value(1) == 2 and cache.value(5) == 2
        cache.verify()

    def test_delete_updates_affected(self, path5):
        cache = IncrementalUnaryCache(path5, degree_term())
        cache.delete("E", (2, 3))
        cache.delete("E", (3, 2))
        assert cache.value(2) == 1 and cache.value(3) == 1
        cache.verify()

    def test_noop_updates_ignored(self, path5):
        cache = IncrementalUnaryCache(path5, degree_term())
        cache.insert("E", (1, 2))  # already present
        cache.delete("E", (1, 5))  # already absent
        assert cache.stats.updates == 0
        cache.verify()

    def test_symbol_key(self, path5):
        cache = IncrementalUnaryCache(path5, degree_term())
        symbol = path5.signature["E"]
        cache.insert(symbol, (1, 5))
        cache.delete(symbol, (2, 3))
        cache.insert(symbol, (1, 5))  # already present
        assert cache.stats.updates == 2
        assert cache.value(1) == 2 and cache.value(2) == 1
        cache.verify()

    def test_verify_does_not_read_the_derived_view(self):
        """A write derives the columnar view from the parent's; verify()
        must recompute without it, or a wrong derived adjacency goes
        unnoticed.  With the Gaifman edge {3, 4} dropped from the view,
        the balls around (4, 6) miss 3, whose two-step count gains the
        path 3-4-6."""
        cache = IncrementalUnaryCache(path_graph(6), two_step_term())
        view = cache.structure.columnar()
        three, four = view.interner.id_of(3), view.interner.id_of(4)
        neigh = list(view._neighbour_ids())
        neigh[three] = tuple(x for x in neigh[three] if x != four)
        neigh[four] = tuple(x for x in neigh[four] if x != three)
        view._neigh = tuple(neigh)  # drop the Gaifman edge {3, 4}
        cache.insert("E", (4, 6))
        assert cache.value(3) == 2  # stale: 3-2-1, 3-4-5 and now 3-4-6
        with pytest.raises(AssertionError):
            cache.verify()

    def test_verify_does_not_read_a_carried_projection(self, path5):
        """A write patches the parent's projections, and the degree term's
        repair reads the patched pool; verify() must recompute without
        it, or a wrong carried pool goes unnoticed."""
        cache = IncrementalUnaryCache(path5, degree_term())
        table = cache.structure.projection("E", (0,), (1,))
        table[3] = (2,)  # drop 4 from the pool of 3
        cache.insert("E", (3, 5))
        assert cache.value(3) == 2  # stale: 3 has the successors 2, 4 and 5
        with pytest.raises(AssertionError):
            cache.verify()

    def test_input_validation(self, path5):
        cache = IncrementalUnaryCache(path5, degree_term())
        with pytest.raises(SignatureError):
            cache.insert("Nope", (1, 2))
        with pytest.raises(ArityError):
            cache.insert("E", (1,))
        with pytest.raises(UniverseError):
            cache.insert("E", (1, 99))
        ground = BasicClTerm(
            ("y1", "y2"), E("y1", "y2"), 0, 1, frozenset({(1, 2)}), unary=False
        )
        with pytest.raises(FormulaError):
            IncrementalUnaryCache(path5, ground)


class TestBudget:
    def test_exhaustion_mid_repair_leaves_the_cache_unchanged(self):
        """Compute first, commit after: a repair that runs out inside the
        plan executor leaves the values and the structure version of
        before the write."""
        budget = EvaluationBudget()
        cache = IncrementalUnaryCache(path_graph(8), two_step_term(), budget=budget)
        structure, values = cache.structure, dict(cache.values)
        # Room for the repair's own tick (the seven elements of the
        # radius-2 balls around 4 and 6) and one evaluator step.
        budget.max_steps = budget.steps + 8
        with pytest.raises(BudgetExceededError, match=r"at evaluator\."):
            cache.insert("E", (4, 6))
        assert cache.structure is structure
        assert cache.values == values
        assert cache.stats.updates == 0
        budget.max_steps = None
        cache.insert("E", (4, 6))
        assert cache.value(3) == 3
        cache.verify()


class TestRandomUpdateSequences:
    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_degree_term_stays_in_sync(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 10)
        structure = graph_structure(
            range(1, n + 1),
            [
                (u, v)
                for u in range(1, n + 1)
                for v in range(u + 1, n + 1)
                if rng.random() < 0.3
            ],
        )
        cache = IncrementalUnaryCache(structure, degree_term())
        for _ in range(8):
            u, v = rng.randint(1, n), rng.randint(1, n)
            if u == v:
                continue
            if rng.random() < 0.5:
                cache.insert("E", (u, v))
            else:
                cache.delete("E", (u, v))
        cache.verify()

    @given(st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_width3_term_stays_in_sync(self, seed):
        rng = random.Random(seed)
        structure = bounded_degree_graph(12, 3, seed=seed % 100)
        cache = IncrementalUnaryCache(structure, two_step_term())
        nodes = list(structure.universe_order)
        for _ in range(6):
            u, v = rng.choice(nodes), rng.choice(nodes)
            if u == v:
                continue
            if rng.random() < 0.5:
                cache.insert("E", (u, v))
                cache.insert("E", (v, u))
            else:
                cache.delete("E", (u, v))
                cache.delete("E", (v, u))
        cache.verify()

    @given(st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_ternary_relation_stream_stays_in_sync(self, seed):
        """Writes to a binary and a ternary relation, which witness Gaifman
        edges together; ``verify()`` recomputes on a rebuilt structure
        after every write, so a wrongly dropped edge (a ``T``-tuple not
        counted) or a wrongly kept one (a path's non-edge violated) shows."""
        rng = random.Random(seed)
        n = 7
        nodes = list(range(n))

        def pair():
            return rng.choice(nodes), rng.choice(nodes)

        structure = Structure(
            Signature.of(E=2, T=3),
            nodes,
            {
                "E": {pair() for _ in range(8)},
                "T": {pair() + (rng.choice(nodes),) for _ in range(4)},
            },
        )
        caches = [
            IncrementalUnaryCache(structure, triangle_term()),
            IncrementalUnaryCache(structure, two_step_term()),
        ]
        for _ in range(16):
            name = rng.choice("ET")
            current = sorted(caches[0].structure.relation(name))
            if current and rng.random() < 0.5:
                tup, present = rng.choice(current), False
            else:
                tup = pair() if name == "E" else pair() + (rng.choice(nodes),)
                present = True
            for cache in caches:
                (cache.insert if present else cache.delete)(name, tup)
                cache.verify()


class TestLocality:
    def test_updates_touch_few_elements_on_long_paths(self):
        structure = path_graph(200)
        cache = IncrementalUnaryCache(structure, degree_term())
        cache.delete("E", (100, 101))
        cache.delete("E", (101, 100))
        cache.verify()
        # dependency radius for the degree term is 1 + 0 = 1; two updates,
        # each touching a ball of <= 3 elements.
        assert cache.stats.recomputed_elements <= 12
        assert cache.stats.recompute_ratio(structure.order()) < 0.05


class TestZeroAryWrites:
    def test_a_nullary_write_repairs_every_element(self):
        """A 0-ary tuple has no entries to take a ball around, and lies in
        every neighbourhood: writing ``R()`` changes the value of every
        element whose count reads it."""
        term = BasicClTerm(
            ("y1", "y2"),
            And(E("y1", "y2"), Rel("R", 0)()),
            0,
            1,
            frozenset({(1, 2)}),
            unary=True,
        )
        structure = Structure(
            Signature.of(E=2, R=0), [1, 2, 3], {"E": [(1, 2), (2, 1), (2, 3), (3, 2)]}
        )
        cache = IncrementalUnaryCache(structure, term)
        assert cache.values == {1: 0, 2: 0, 3: 0}
        cache.insert("R", ())
        assert cache.values == {1: 1, 2: 2, 3: 1}
        assert cache.stats.recomputed_elements == 3
        cache.verify()
        cache.delete("R", ())
        assert cache.values == {1: 0, 2: 0, 3: 0}
        cache.verify()


class TestOneBallPerWrite:
    """A single-tuple write changes Gaifman edges only between the
    tuple's entries, so the ball around the entries is the same before
    and after it: the repair takes one ball, in the new structure."""

    @pytest.mark.parametrize("seed", range(8))
    def test_the_ball_around_the_entries_survives_the_write(self, seed):
        rng = random.Random(seed)
        nodes = list(range(12))
        arity = {"E": 2, "T": 3, "U": 1}

        def draw(name):
            return tuple(rng.choice(nodes) for _ in range(arity[name]))

        current = Structure(
            Signature.of(**arity),
            nodes,
            {"E": {draw("E") for _ in range(10)}, "T": {draw("T") for _ in range(3)}},
        )
        for _ in range(60):
            name = rng.choice("EETU")
            present_tuples = sorted(current.relation(name))
            if present_tuples and rng.random() < 0.5:
                tup, present = rng.choice(present_tuples), False
            else:
                tup, present = draw(name), True
            derived = current.with_tuple(name, tup, present)
            for radius in range(4):
                assert ball(current, tup, radius) == ball(derived, tup, radius)
            current = derived


class TestRecomputeRatioGuards:
    def test_ratio_is_zero_when_order_is_zero(self):
        """Regression: ``recomputed / (updates * order)`` crashed with
        ZeroDivisionError whenever the caller passed ``order == 0``."""
        from repro.core.incremental import UpdateStats

        stats = UpdateStats(updates=3, recomputed_elements=5)
        assert stats.recompute_ratio(0) == 0.0

    def test_ratio_is_zero_before_any_update(self):
        from repro.core.incremental import UpdateStats

        assert UpdateStats().recompute_ratio(10) == 0.0

    def test_fresh_cache_reports_zero_ratio_at_any_order(self):
        """An untouched cache must report ratio 0 even when asked about a
        hypothetical order of 0 (the empty-universe convention)."""
        structure = path_graph(3)
        cache = IncrementalUnaryCache(structure, degree_term())
        assert cache.stats.recompute_ratio(structure.order()) == 0.0
        assert cache.stats.recompute_ratio(0) == 0.0
