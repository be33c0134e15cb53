"""Regression tests for the evaluator's memo lifetime contract.

The hazard: the engine's memo tables key on ``id(node)``.  CPython recycles
ids, so a memo entry that outlives its AST node can alias a structurally
*different* node allocated later at the same address — a silent wrong
answer.  The contract (documented on ``_Session``) is therefore:

1. every memoised node is pinned alive in ``_pins`` for as long as its
   memo entry exists, and the two are dropped together (``_reset_memos``);
2. sessions are scoped to one public engine call, so repeated queries do
   not accumulate pinned ASTs across calls.
"""

import gc
import weakref

import pytest

from repro.core.evaluator import Foc1Evaluator, _Session
from repro.logic.parser import parse_formula
from repro.logic.predicates import standard_collection
from repro.structures.builders import path_graph


@pytest.fixture
def engine():
    return Foc1Evaluator()


def _session(structure):
    return _Session(
        structure,
        standard_collection(),
        use_factoring=True,
        use_guards=True,
    )


class TestPinsStayInSyncWithMemos:
    def test_memoised_nodes_are_pinned(self):
        session = _session(path_graph(6))
        phi = parse_formula("E(x, y) & E(y, z)")
        session.free(phi)
        session.free_sorted(phi)
        session._conjuncts(phi)
        assert id(phi) in session._pins
        for key in session._free_memo:
            assert key in session._pins
        for key in session._free_sorted_memo:
            assert key in session._pins
        for key in session._conjunct_memo:
            assert key in session._pins

    def test_count_memo_pins_its_body(self):
        session = _session(path_graph(6))
        phi = parse_formula("E(x, y)")
        session.count(("y",), phi, {"x": 1})
        # Memo keys are canonical text; the key-text cache maps the node.
        assert (id(phi), ("y",)) in session._count_key_memo
        assert session._count_memo
        assert id(phi) in session._pins

    def test_count_memo_keys_are_alpha_canonical(self):
        """Alpha-variants of the same count share one memo entry."""
        session = _session(path_graph(6))
        first = parse_formula("E(x, y)")
        second = parse_formula("E(x, z)")
        session.count(("y",), first, {"x": 1})
        session.count(("z",), second, {"x": 1})
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
        assert ("exists _b0. E(x, _b0)", (("x", 1),)) in session._holds_memo

    def test_search_nodes_are_compiled_once_on_pinned_containers(self):
        """The dynamic path keys its search nodes on the cached
        factorisation, so a second count with other bindings reuses every
        node, and each node's conjunct container is pinned."""
        session = _session(path_graph(6))
        phi = parse_formula("E(x, y) & E(y, z)")
        session.count(("y", "z"), phi, {"x": 1})
        nodes = dict(session._search_nodes)
        assert nodes
        session.count(("y", "z"), phi, {"x": 2})
        assert session._search_nodes == nodes
        for root, _, _ in nodes:
            assert root in session._pins

    def test_holds_memo_pins_its_formula(self):
        session = _session(path_graph(6))
        phi = parse_formula("E(x, y)")
        session.holds(phi, {"x": 1, "y": 2})
        assert id(phi) in session._pins

    def test_reset_drops_memos_and_pins_together(self):
        session = _session(path_graph(6))
        phi = parse_formula("E(x, y) & E(y, z)")
        session.free(phi)
        session.holds(phi, {"x": 1, "y": 2, "z": 3})
        session._reset_memos()
        assert not session._pins
        assert not session._free_memo
        assert not session._free_sorted_memo
        assert not session._conjunct_memo
        assert not session._holds_memo
        assert not session._count_memo
        assert not session._canon_memo
        assert not session._count_key_memo
        assert not session._forall_memo
        assert not session._overlap_memo
        assert not session._search_nodes
        assert not session._factor_memo

    def test_pinned_node_survives_caller_dropping_it(self):
        """The id-recycling scenario: the caller drops its reference, the
        session's memo must keep the node alive (not just the id)."""
        session = _session(path_graph(6))
        phi = parse_formula("E(x, y)")
        ref = weakref.ref(phi)
        session.holds(phi, {"x": 1, "y": 2})
        del phi
        gc.collect()
        assert ref() is not None  # pinned: id cannot be recycled

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
