"""Regression tests for the executor's memo keys and memo lifetime.

Memo tables key on ``(node id, bindings)``, where the id is a node of the
plan's node table: one id per alpha-equivalence class, mapped back to its
canonical text only when a checkpoint exports it.  A node handed in from
outside the plan gets an id by its canonical text, never by its address,
so a caller's AST is neither kept alive nor able to alias an entry.
States are scoped to one public engine call, so repeated queries do not
accumulate memory across calls.
"""

import gc
import weakref

import pytest

from repro.core.evaluator import Foc1Evaluator
from repro.logic.parser import parse_formula, parse_term
from repro.logic.predicates import standard_collection
from repro.logic.printer import pretty
from repro.obs.metrics import collect_metrics
from repro.plan import compile_plan
from repro.plan.compiler import intern_node
from repro.plan.executor import ExecutionState
from repro.plan.normalise import canonicalise
from repro.structures.builders import path_graph


@pytest.fixture
def engine():
    return Foc1Evaluator()


def _session(structure, *terms):
    """A state over the unary-term plan of ``terms`` (free variable x).
    Satisfaction accepts any node; counts take the plan's own bodies."""
    plan = compile_plan(
        "unary_term", [parse_term(t) for t in terms], ("x",), structure.signature
    )
    return ExecutionState(structure, standard_collection(), plan)


class TestNodeIdsKeyTheMemos:
    def test_memo_keys_map_to_checkpoint_texts(self):
        session = _session(path_graph(6), "#(y). (E(x, y) & exists z. E(y, z))")
        (term,) = session.plan.roots
        phi = parse_formula("E(x, y) | E(y, x)")
        assert session.count(term.variables, term.inner, {"x": 1}) == 1
        assert session.holds(phi, {"x": 1, "y": 2}) is True
        exported = set(session.export_memo_snapshot())
        texts = session.plan.nodes
        for kind, memo in (("holds", session._holds_memo), ("count", session._count_memo)):
            assert memo
            for (node, relevant), value in memo.items():
                assert (kind, texts[node].text, relevant, value) in exported
        count = intern_node(session.plan, term)
        assert texts[count].text == pretty(canonicalise(term))
        assert (count, (("x", 1),)) in session._count_memo
        assert texts[intern_node(session.plan, phi)].text == pretty(canonicalise(phi))
        # Export and restore round-trip through the plan's text table.
        fresh = ExecutionState(session.structure, standard_collection(), session.plan)
        assert fresh.restore_memo_snapshot(sorted(exported, key=repr)) == len(exported)
        assert fresh._holds_memo == session._holds_memo
        assert fresh._count_memo == session._count_memo

    def test_programs_compile_once_per_plan(self):
        """Search programs live in the plan: a second count with other
        bindings reuses every bound node, and a second state over the same
        plan binds the published programs without compiling any."""
        session = _session(path_graph(6), "#(y, z). (E(x, y) & E(y, z))")
        (term,) = session.plan.roots
        session.count(term.variables, term.inner, {"x": 1})
        nodes = dict(session._bound_nodes)
        programs = dict(session.plan.programs)
        assert nodes and set(nodes) <= set(programs)
        value = session.count(term.variables, term.inner, {"x": 2})
        assert session._bound_nodes == nodes
        other = ExecutionState(session.structure, standard_collection(), session.plan)
        with collect_metrics() as metrics:
            assert other.count(term.variables, term.inner, {"x": 2}) == value == 3
        assert metrics.counter("plan.program.compiled") == 0
        assert session.plan.programs == programs

    def test_a_callers_formula_is_not_kept_alive(self):
        session = _session(path_graph(6))
        phi = parse_formula("E(x, y) | E(y, x)")
        ref = weakref.ref(phi)
        assert session.holds(phi, {"x": 1, "y": 2}) is True
        del phi
        gc.collect()
        assert ref() is None
        assert session.holds(parse_formula("E(x, y) | E(y, x)"), {"x": 1, "y": 2})

    def test_a_new_formula_gets_its_own_entry(self):
        """The id-recycling scenario: the caller drops a formula, and a
        different one (allocated next, typically at the same address) must
        get its own memo entry and its own answer."""
        session = _session(path_graph(6))
        env = {"x": 1, "y": 2}
        first = parse_formula("E(x, y) | E(y, x)")
        assert session.holds(first, env) is True
        first_id = intern_node(session.plan, first)
        del first
        gc.collect()
        second = parse_formula("!E(x, y) & !E(y, x)")
        assert session.holds(second, env) is False
        second_id = intern_node(session.plan, second)
        assert second_id != first_id
        assert {node for node, _ in session._holds_memo} >= {first_id, second_id}


class TestPinsStayInSyncWithMemos:
    """Memo entries stay in step with what was evaluated: alpha-variants
    share one entry, and a dropped AST leaves no entry a new one could
    read."""

    def test_count_memo_keys_are_alpha_canonical(self):
        """Alpha-variants of the same count share one memo entry."""
        session = _session(path_graph(6), "#(y). E(x, y) + #(z). E(x, z)")
        first, second = session.plan.roots[0].left, session.plan.roots[0].right
        assert first.variables != second.variables
        session.count(first.variables, first.inner, {"x": 1})
        session.count(second.variables, second.inner, {"x": 1})
        assert len(session._count_memo) == 1

    def test_holds_memo_keys_are_alpha_canonical(self):
        """Bound-variable renamings of the same sentence share one entry."""
        session = _session(path_graph(6))
        first = parse_formula("exists y. E(x, y)")
        second = parse_formula("exists w. E(x, w)")
        session.holds(first, {"x": 1})
        entries = len(session._holds_memo)
        # The alpha-variant is a pure memo hit: no new entries appear.
        session.holds(second, {"x": 1})
        assert len(session._holds_memo) == entries
        assert ("holds", "exists _b0. E(x, _b0)", (("x", 1),), True) in (
            session.export_memo_snapshot()
        )

    def test_memoised_answers_stay_correct_after_caller_drops_ast(self):
        session = _session(path_graph(6))
        # Two structurally different formulas evaluated in sequence; if the
        # first's memo entry could alias a recycled id, the second might
        # read the wrong cached truth value.
        first = parse_formula("E(x, y)")
        assert session.holds(first, {"x": 1, "y": 2}) is True
        del first
        gc.collect()
        second = parse_formula("!E(x, y)")
        assert session.holds(second, {"x": 1, "y": 2}) is False


class TestSessionScopedMemory:
    def test_repeated_evaluation_does_not_accumulate_asts(self, engine):
        """Repeated public calls must not grow memory: sessions (and their
        pinned ASTs) are per call and released afterwards."""
        structure = path_graph(12)
        refs = []
        for _ in range(20):
            phi = parse_formula("exists y. E(x, y) & E(y, z)")
            refs.append(weakref.ref(phi))
            engine.count(structure, phi, ["x", "z"])
            del phi
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_engine_holds_no_session_state_between_calls(self, engine):
        structure = path_graph(8)
        phi = parse_formula("forall x. exists y. E(x, y)")
        ref = weakref.ref(phi)
        assert engine.model_check(structure, phi) is True
        del phi
        gc.collect()
        assert ref() is None

    def test_reads_and_writes_leave_no_cyclic_garbage(self, engine):
        """A warm read and a single-tuple insert and delete must free all
        they allocate by reference counting: cyclic garbage waits for the
        cycle collector and inflates peak memory on write streams."""
        from repro.core.clterms import BasicClTerm
        from repro.core.incremental import IncrementalUnaryCache
        from repro.logic.parser import parse_term
        from repro.structures.builders import grid_graph

        structure = grid_graph(6, 7)
        degree = BasicClTerm(
            ("y1", "y2"), parse_formula("E(y1, y2)"), 0, 1, frozenset({(1, 2)}), unary=True
        )
        cache = IncrementalUnaryCache(structure, degree)
        read = parse_term("#(x). @eq(#(y). E(x, y), 4)")
        warm = engine.ground_term_value(structure, read)
        u, v = structure.universe_order[0], structure.universe_order[20]
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert engine.ground_term_value(cache.structure, read) == warm
            cache.insert("E", (u, v))
            cache.delete("E", (u, v))
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_repeated_calls_agree(self, engine):
        structure = path_graph(10)
        results = set()
        for _ in range(5):
            phi = parse_formula("E(x, y) & E(y, z)")
            results.add(engine.count(structure, phi, ["x", "y", "z"]))
        assert len(results) == 1
