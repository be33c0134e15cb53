"""Regression tests for the Structure cache contract.

The stale-cache hazard: adjacency() and index() are lazy caches on an
immutable structure.  A query warms them; an update that mutated the
relations in place (or any derivation that leaked the parent's caches into
a structure with *different* relational content) would make the next query
read derived data for the old relations.  ``with_tuple`` must therefore
give the derived structure fresh-or-still-valid caches, and
``invalidate_caches`` must reset a structure whose internals were mutated.
"""

import pytest

from repro.errors import ArityError, SignatureError, UniverseError
from repro.structures.signature import Signature
from repro.structures.structure import Structure


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


class TestWithTupleDerivation:
    def test_query_update_query_sees_the_new_edge(self, path):
        # Query (warms both caches) ...
        assert 3 not in path.adjacency()[1]
        assert path.index("E", 0).get(1) == ((1, 2),)
        # ... update ...
        derived = path.with_tuple("E", (1, 3))
        # ... query again: the derived structure answers for the new content.
        assert 3 in derived.adjacency()[1]
        assert 1 in derived.adjacency()[3]
        assert sorted(derived.index("E", 0)[1]) == [(1, 2), (1, 3)]
        assert derived.has_tuple("E", (1, 3))

    def test_deletion_recomputes_adjacency(self, path):
        path.adjacency()  # warm
        derived = path.with_tuple("E", (2, 3), present=False)
        assert 3 not in derived.adjacency()[2]
        assert 2 not in derived.adjacency()[3]
        # 1-2 and 3-4 survive.
        assert 2 in derived.adjacency()[1]
        assert 4 in derived.adjacency()[3]

    def test_deletion_keeps_edges_witnessed_elsewhere(self, sig):
        # Two tuples witness the same Gaifman edge; deleting one keeps it.
        s = Structure(sig, [1, 2], {"E": [(1, 2), (2, 1)]})
        s.adjacency()
        derived = s.with_tuple("E", (1, 2), present=False)
        assert 2 in derived.adjacency()[1]

    def test_parent_is_untouched(self, path):
        before_adj = path.adjacency()
        before_idx = path.index("E", 0)
        derived = path.with_tuple("E", (1, 4))
        assert derived is not path
        assert path.adjacency() == before_adj
        assert path.index("E", 0) == before_idx
        assert not path.has_tuple("E", (1, 4))
        assert 4 not in path.adjacency()[1]

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
        adjacency = path.adjacency()
        derived = path.with_tuple("R", (3,))
        assert derived.adjacency() is adjacency

    def test_cold_parent_builds_fresh(self, path):
        # No caches warmed on the parent: the derived structure still
        # answers correctly (nothing to share, everything lazy).
        derived = path.with_tuple("E", (1, 3))
        assert 3 in derived.adjacency()[1]

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
        assert derived.adjacency() == rebuilt.adjacency()
        assert derived.index("E", 1) == rebuilt.index("E", 1)


class TestInvalidateCaches:
    def test_stale_caches_after_internal_mutation(self, path):
        """The regression scenario: mutate internals, observe staleness,
        then invalidate_caches() repairs it."""
        path.adjacency()
        path.index("E", 0)
        path.projection("E", (0,), (1,))
        symbol = path.signature["E"]
        path._relations[symbol] = path._relations[symbol] | {(1, 4)}
        # The caches are now stale — this is exactly the hazard.
        assert 4 not in path.adjacency()[1]
        assert (1, 4) not in path.index("E", 0).get(1, ())
        assert 4 not in path.projection("E", (0,), (1,))[1]
        path.invalidate_caches()
        assert 4 in path.adjacency()[1]
        assert (1, 4) in path.index("E", 0)[1]
        assert 4 in path.projection("E", (0,), (1,))[1]

    def test_idempotent_on_cold_structure(self, path):
        path.invalidate_caches()
        path.invalidate_caches()
        assert 2 in path.adjacency()[1]
