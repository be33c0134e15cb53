"""Regression tests for the Structure cache contract.

The stale-cache hazard: the columnar view (the structure's Gaifman graph),
index() and projection() are lazy caches on an immutable structure.  A
query warms them; an update that mutated the relations in place (or any
derivation that leaked the parent's caches into a structure with
*different* relational content) would make the next query read derived
data for the old relations.  ``with_tuple`` must therefore
give the derived structure fresh-or-still-valid caches, and
``invalidate_caches`` must reset a structure whose internals were mutated.
"""

import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.stats import structure_stats
from repro.errors import ArityError, SignatureError, UniverseError
from repro.robust.checkpoint import structure_digest
from repro.structures.builders import path_graph
from repro.structures.signature import Signature
from repro.structures.structure import Structure

from ..reference import gaifman_adjacency


@pytest.fixture
def sig():
    return Signature.of(E=2, R=1)


@pytest.fixture
def path(sig):
    # 1 - 2 - 3 - 4, plus a unary mark on 1.
    return Structure(
        sig,
        [1, 2, 3, 4],
        {"E": [(1, 2), (2, 3), (3, 4)], "R": [(1,)]},
    )


def _view_neighbours(structure, element):
    """The neighbours of ``element`` in the structure's columnar view."""
    view = structure.columnar()
    elements = view.interner.elements
    return {elements[i] for i in view.neighbours(view.interner.id_of(element))}


def _view_graph(structure):
    """The columnar view's neighbour tuples as an element-keyed graph."""
    return {a: _view_neighbours(structure, a) for a in structure.universe_order}


class TestWithTupleDerivation:
    def test_query_update_query_sees_the_new_edge(self, path):
        # Query (warms both caches) ...
        assert 3 not in _view_neighbours(path, 1)
        assert path.index("E", 0).get(1) == ((1, 2),)
        # ... update ...
        derived = path.with_tuple("E", (1, 3))
        # ... query again: the derived structure answers for the new content.
        assert 3 in _view_neighbours(derived, 1)
        assert 1 in _view_neighbours(derived, 3)
        assert sorted(derived.index("E", 0)[1]) == [(1, 2), (1, 3)]
        assert derived.has_tuple("E", (1, 3))

    def test_deletion_recomputes_adjacency(self, path):
        path.columnar().neighbours(0)  # warm
        derived = path.with_tuple("E", (2, 3), present=False)
        adjacency = gaifman_adjacency(derived)
        assert 3 not in adjacency[2]
        assert 2 not in adjacency[3]
        # 1-2 and 3-4 survive.
        assert 2 in adjacency[1]
        assert 4 in adjacency[3]

    def test_deletion_keeps_edges_witnessed_elsewhere(self, sig):
        # Two tuples witness the same Gaifman edge; deleting one keeps it.
        s = Structure(sig, [1, 2], {"E": [(1, 2), (2, 1)]})
        s.columnar().neighbours(0)  # warm
        derived = s.with_tuple("E", (1, 2), present=False)
        assert 2 in gaifman_adjacency(derived)[1]

    def test_parent_is_untouched(self, path):
        before_adj = _view_graph(path)
        before_idx = path.index("E", 0)
        derived = path.with_tuple("E", (1, 4))
        assert derived is not path
        assert _view_graph(path) == before_adj
        assert path.index("E", 0) == before_idx
        assert not path.has_tuple("E", (1, 4))
        assert 4 not in _view_neighbours(path, 1)

    def test_untouched_relation_index_is_shared(self, path):
        r_index = path.index("R", 0)
        r_projection = path.projection("R", (), (0,))
        derived = path.with_tuple("E", (1, 4))
        assert derived.index("R", 0) is r_index
        assert derived.projection("R", (), (0,)) is r_projection

    def test_touched_relation_index_is_not_shared(self, path):
        e_index = path.index("E", 0)
        e_projection = path.projection("E", (0,), (1,))
        derived = path.with_tuple("E", (1, 4))
        assert derived.index("E", 0) is not e_index
        assert sorted(derived.projection("E", (0,), (1,))[1]) == [2, 4]
        assert e_projection[1] == (2,)

    def test_noop_update_returns_self(self, path):
        assert path.with_tuple("E", (1, 2)) is path
        assert path.with_tuple("E", (1, 4), present=False) is path

    def test_size_and_order_bookkeeping(self, path):
        derived = path.with_tuple("E", (1, 4))
        assert derived.order() == path.order()
        assert derived.size() == path.size() + 1
        assert derived.with_tuple("E", (1, 4), present=False).size() == path.size()

    def test_unary_insert_shares_adjacency(self, path):
        neighbours = path.columnar()._neighbour_ids()
        derived = path.with_tuple("R", (3,))
        assert derived.columnar()._neighbour_ids() is neighbours

    def test_cold_parent_builds_fresh(self, path):
        # No caches warmed on the parent: the derived structure still
        # answers correctly (nothing to share, everything lazy).
        derived = path.with_tuple("E", (1, 3))
        assert 3 in _view_neighbours(derived, 1)

    def test_validates_the_delta(self, path):
        with pytest.raises(ArityError):
            path.with_tuple("E", (1,))
        with pytest.raises(UniverseError):
            path.with_tuple("E", (1, 99))
        with pytest.raises(SignatureError):
            path.with_tuple("Nope", (1, 2))

    def test_extensional_equality_with_full_rebuild(self, path, sig):
        derived = path.with_tuple("E", (1, 3))
        rebuilt = Structure(
            sig,
            [1, 2, 3, 4],
            {"E": [(1, 2), (2, 3), (3, 4), (1, 3)], "R": [(1,)]},
        )
        assert derived == rebuilt
        assert hash(derived) == hash(rebuilt)
        assert _view_graph(derived) == gaifman_adjacency(rebuilt)
        assert derived.index("E", 1) == rebuilt.index("E", 1)


class TestWithTupleViewDerivation:
    """The columnar leg of ``with_tuple``: a built view is derived, on
    deletion as on insertion, and answers for the derived relations."""

    def test_deletion_recomputes_adjacency(self, path):
        _view_neighbours(path, 1)  # warm
        derived = path.with_tuple("E", (2, 3), present=False)
        assert 3 not in _view_neighbours(derived, 2)
        assert 2 not in _view_neighbours(derived, 3)
        # 1-2 and 3-4 survive.
        assert 2 in _view_neighbours(derived, 1)
        assert 4 in _view_neighbours(derived, 3)
        # The parent's view still answers for the parent.
        assert 3 in _view_neighbours(path, 2)

    @pytest.mark.parametrize(
        "witness",
        [("E", (2, 1)), ("T", (2, 1, 2)), ("T", (3, 2, 1))],
        ids=["reverse-edge", "ternary-repeat", "ternary"],
    )
    def test_deletion_keeps_edges_witnessed_elsewhere(self, witness):
        # Two tuples witness the same Gaifman edge; deleting one keeps it.
        s = Structure(Signature.of(E=2, T=3), [1, 2, 3], {"E": [(1, 2)]})
        s = s.with_tuple(*witness)
        _view_neighbours(s, 1)
        derived = s.with_tuple("E", (1, 2), present=False)
        assert derived is not s
        assert 2 in _view_neighbours(derived, 1)
        assert 1 in _view_neighbours(derived, 2)

    def test_deletion_keeps_the_view(self, path):
        path.columnar().neighbours(0)  # build the view's adjacency
        derived = path.with_tuple("E", (2, 3), present=False)
        assert derived._columnar is not None
        assert derived._columnar._neigh is not None


#: Per relation, the index positions and projection shapes (bound,
#: targets) warmed on every version of the write streams below.  Shapes
#: whose positions cover the relation are patched by ``with_tuple``;
#: ``(), (0, 1)`` is ``E(x, x)`` and ``(0,), (1, 2)`` is ``T(a, y, y)``.
SHAPES = {
    "E": ((0, 1), (((0,), (1,)), ((1,), (0,)), ((), (0, 1)), ((), (0,)))),
    "T": (
        (0, 2),
        (
            ((0,), (1, 2)),
            ((0, 1), (2,)),
            ((2,), (0, 1)),
            ((), (0, 1, 2)),
            ((0,), (1,)),
        ),
    ),
    "U": ((0,), (((), (0,)),)),
}


def _warm(structure):
    for name, (positions, shapes) in SHAPES.items():
        for position in positions:
            structure.index(name, position)
        for bound, targets in shapes:
            structure.projection(name, bound, targets)


def _members(table):
    """A table's groups and their members, after checking that each pool
    is non-empty and duplicate-free."""
    for pool in table.values():
        assert pool and len(set(pool)) == len(pool)
    return {group: set(pool) for group, pool in table.items()}


class TestPatchedCaches:
    """``with_tuple`` patches the written relation's indexes and covering
    projections: after every write each carried table has exactly the
    groups and members of the same table built on a fresh structure."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_write_streams_keep_carried_caches_exact(self, seed):
        rng = random.Random(seed)
        nodes = list(range(5))
        arity = {"E": 2, "T": 3, "U": 1}

        def draw(name):
            if rng.random() < 0.25:  # a self-loop / all-equal tuple
                return (rng.choice(nodes),) * arity[name]
            return tuple(rng.choice(nodes) for _ in range(arity[name]))

        structure = Structure(
            Signature.of(**arity),
            nodes,
            {name: {draw(name) for _ in range(4)} for name in arity},
        )
        _warm(structure)
        for _ in range(30):
            name = rng.choice(sorted(arity))
            current = sorted(structure.relation(name))
            if current and rng.random() < 0.5:
                derived = structure.with_tuple(name, rng.choice(current), present=False)
            else:
                derived = structure.with_tuple(name, draw(name))
            fresh = _fresh(derived)
            for (relation, position), table in derived._indexes.items():
                assert _members(table) == _members(fresh.index(relation, position))
            for (relation, bound, targets), table in derived._projections.items():
                built = fresh.projection(relation, bound, targets)
                assert _members(table) == _members(built)
            for bound, targets in SHAPES[name][1]:
                covering = len(set(bound + targets)) == arity[name]
                carried = (name, bound, targets) in derived._projections
                assert carried == (covering or derived is structure)
            _warm(derived)
            structure = derived

    def test_delete_removes_an_emptied_group(self):
        s = Structure(Signature.of(E=2), [1, 2, 3], {"E": [(1, 2), (2, 2), (3, 1)]})
        s.index("E", 0)
        s.projection("E", (0,), (1,))
        assert s.projection("E", (), (0, 1)) == {(): (2,)}
        derived = s.with_tuple("E", (2, 2), present=False)
        assert 2 not in derived._indexes[("E", 0)]
        assert 2 not in derived._projections[("E", (0,), (1,))]
        assert () not in derived._projections[("E", (), (0, 1))]
        looped = derived.with_tuple("E", (3, 3))
        assert looped._projections[("E", (), (0, 1))] == {(): (3,)}
        assert sorted(looped._projections[("E", (0,), (1,))][3]) == [1, 3]
        # The parent's tables are untouched.
        assert s.index("E", 0)[2] == ((2, 2),)
        assert s.projection("E", (), (0, 1)) == {(): (2,)}

    def test_concurrent_expansions_and_writes_keep_the_parent_exact(self):
        """Threads expanding one parent by their own ``Mark`` (as the
        service's quantum threads may) store the pools they build for ``E``
        on the parent, while other threads derive writes from it: every
        thread reads its own ``Mark``, each write's tables match a fresh
        build, and the parent ends with exact ``E`` pools and no ``Mark``
        pool.  A new parent per round reopens the window in which the
        parent's cache mappings grow under a deriving write."""
        nodes = range(200)
        parents = [
            Structure(
                Signature.of(E=2),
                nodes,
                {"E": [(i, (i * step) % 200) for i in nodes]},
            )
            for step in range(3, 23)
        ]
        marked = Signature.of(E=2, Mark=1)
        shapes = (((0,), (1,)), ((1,), (0,)), ((), (0, 1)), ((), (0,)), ((), (1,)))
        barrier = threading.Barrier(8)
        failures = []

        def expand(parent, k):
            child = parent.with_relations(marked, {"Mark": [(k,)]})
            for bound, targets in shapes:
                child.projection("E", bound, targets)
            child.index("E", k % 2)
            assert child.projection("Mark", (), (0,)) == {(): (k,)}

        def write(parent, k):
            for step in range(5):
                tup = (k, (k + step) % 200)
                child = parent.with_tuple("E", tup, present=tup not in parent.relation("E"))
                fresh = _fresh(child)
                for (relation, bound, targets), table in child._projections.items():
                    built = fresh.projection(relation, bound, targets)
                    assert _members(table) == _members(built)

        def run(k):
            try:
                for parent in parents:
                    barrier.wait(timeout=30)
                    (expand if k % 2 else write)(parent, k)
            except Exception as error:  # an assertion in a thread is lost
                failures.append((k, error))
                barrier.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        for parent in parents:
            fresh = _fresh(parent)
            for bound, targets in shapes:
                assert _members(parent._projections[("E", bound, targets)]) == _members(
                    fresh.projection("E", bound, targets)
                )
            assert not any(key[0] == "Mark" for key in parent._projections)


class TestInvalidateCaches:
    def test_stale_caches_after_internal_mutation(self, path):
        """The regression scenario: mutate internals, observe staleness,
        then invalidate_caches() repairs it."""
        _view_neighbours(path, 1)
        path.index("E", 0)
        path.projection("E", (0,), (1,))
        symbol = path.signature["E"]
        path._relations[symbol] = path._relations[symbol] | {(1, 4)}
        # The caches are now stale — this is exactly the hazard.
        assert 4 not in _view_neighbours(path, 1)
        assert (1, 4) not in path.index("E", 0).get(1, ())
        assert 4 not in path.projection("E", (0,), (1,))[1]
        path.invalidate_caches()
        assert 4 in _view_neighbours(path, 1)
        assert (1, 4) in path.index("E", 0)[1]
        assert 4 in path.projection("E", (0,), (1,))[1]

    def test_size_is_recounted(self):
        s = path_graph(6)
        symbol = s.signature["E"]
        s._relations[symbol] = s._relations[symbol] | {(1, 3), (3, 1)}
        s.invalidate_caches()
        assert s.size() == 18
        assert structure_stats(s).relation_card("E") == 12

    def test_idempotent_on_cold_structure(self, path):
        path.invalidate_caches()
        path.invalidate_caches()
        assert 2 in _view_neighbours(path, 1)


def _fresh(structure):
    """A structure with the same content, built by ``__init__``."""
    return Structure(
        structure.signature, structure.universe_order, structure.relations()
    )


class TestDigestCache:
    """``structure_digest`` caches in ``_digest``: a structure that does not
    come from ``__init__`` starts without one, and ``invalidate_caches``
    drops it."""

    def test_built_once_then_read(self, path):
        assert path._digest is None
        digest = structure_digest(path)
        assert path._digest == digest
        assert structure_digest(path) is digest

    def test_invalidate_caches_after_internal_mutation(self, path):
        before = structure_digest(path)
        symbol = path.signature["E"]
        path._relations[symbol] = path._relations[symbol] | {(1, 4)}
        assert structure_digest(path) == before  # stale: the hazard
        path.invalidate_caches()
        assert path._digest is None
        assert structure_digest(path) == structure_digest(_fresh(path))
        assert structure_digest(path) != before

    @pytest.mark.parametrize(
        "key, tup, present",
        [("E", (1, 3), True), ("E", (2, 3), False), ("R", (4,), True)],
    )
    def test_with_tuple_children_digest_fresh(self, path, key, tup, present):
        parent = structure_digest(path)
        child = path.with_tuple(key, tup, present=present)
        assert child._digest is None
        assert structure_digest(child) == structure_digest(_fresh(child))
        assert structure_digest(child) != parent
        assert path._digest == parent == structure_digest(_fresh(path))

    def test_with_relations_expansion_digests_fresh(self, path):
        parent = structure_digest(path)
        expanded = path.with_relations(Signature.of(E=2, R=1, P=1), {"P": [(2,)]})
        assert expanded._digest is None
        assert structure_digest(expanded) == structure_digest(_fresh(expanded))
        assert structure_digest(expanded) != parent
        assert path._digest == parent

    def test_noop_with_tuple_returns_self_with_its_digest(self, path):
        digest = structure_digest(path)
        assert path.with_tuple("E", (1, 2)) is path
        assert path.with_tuple("E", (1, 4), present=False) is path
        assert path._digest == digest

    def test_pickle_carries_no_digest(self, path):
        digest = structure_digest(path)
        clone = pickle.loads(pickle.dumps(path))
        assert clone._digest is None
        assert structure_digest(clone) == digest

    def test_concurrent_first_reads_agree(self):
        # The service's event loop and its executor threads may fill the
        # slot at once; each stores the same string, so no lock is needed.
        structure = Structure(
            Signature.of(E=2), range(300), {"E": [(i, i + 1) for i in range(299)]}
        )
        expected = structure_digest(_fresh(structure))
        barrier = threading.Barrier(8)
        seen = []

        def read():
            barrier.wait()
            seen.append(structure_digest(structure))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [expected] * 8
        assert structure._digest == expected
