"""Unit tests for finite structures."""

import pytest

from repro.errors import ArityError, SignatureError, UniverseError
from repro.structures.signature import Signature
from repro.structures.structure import Structure


@pytest.fixture
def sig():
    return Signature.of(E=2, R=1, Flag=0)


class TestConstruction:
    def test_basic(self, sig):
        s = Structure(sig, [1, 2, 3], {"E": [(1, 2)], "R": [(3,)]})
        assert s.order() == 3
        assert s.size() == 3 + 2
        assert s.has_tuple("E", (1, 2))
        assert not s.has_tuple("E", (2, 1))

    def test_missing_relations_default_empty(self, sig):
        s = Structure(sig, [1])
        assert s.relation("E") == frozenset()
        assert s.relation("Flag") == frozenset()

    def test_zero_ary_relation(self, sig):
        s = Structure(sig, [1], {"Flag": [()]})
        assert s.has_tuple("Flag", ())

    def test_empty_universe_rejected(self, sig):
        with pytest.raises(UniverseError):
            Structure(sig, [])

    def test_duplicate_universe_elements_collapse(self, sig):
        s = Structure(sig, [1, 1, 2])
        assert s.order() == 2
        assert s.universe_order == (1, 2)

    def test_arity_mismatch_rejected(self, sig):
        with pytest.raises(ArityError):
            Structure(sig, [1, 2], {"E": [(1,)]})

    def test_tuple_outside_universe_rejected(self, sig):
        with pytest.raises(UniverseError):
            Structure(sig, [1, 2], {"E": [(1, 9)]})

    def test_unknown_relation_rejected(self, sig):
        with pytest.raises(SignatureError):
            Structure(sig, [1], {"Nope": [(1,)]})

    def test_arbitrary_hashable_elements(self, sig):
        s = Structure(sig, ["a", ("t", 1)], {"E": [("a", ("t", 1))]})
        assert ("t", 1) in s


class TestDerivedData:
    def test_adjacency_from_tuples(self, sig):
        s = Structure(sig, [1, 2, 3], {"E": [(1, 2), (2, 3)]})
        adjacency = s.adjacency()
        assert adjacency[1] == frozenset({2})
        assert adjacency[2] == frozenset({1, 3})

    def test_self_loops_do_not_create_adjacency(self, sig):
        s = Structure(sig, [1, 2], {"E": [(1, 1)]})
        assert s.adjacency()[1] == frozenset()

    def test_higher_arity_tuples_form_cliques(self):
        sig = Signature.of(T=3)
        s = Structure(sig, [1, 2, 3, 4], {"T": [(1, 2, 3)]})
        adjacency = s.adjacency()
        assert adjacency[1] == frozenset({2, 3})
        assert adjacency[4] == frozenset()

    def test_index(self, sig):
        s = Structure(sig, [1, 2, 3], {"E": [(1, 2), (1, 3), (2, 3)]})
        by_first = s.index("E", 0)
        assert sorted(by_first[1]) == [(1, 2), (1, 3)]
        assert (2, 3) in by_first[2]
        assert 3 not in by_first

    def test_index_position_out_of_range(self, sig):
        s = Structure(sig, [1])
        with pytest.raises(ArityError):
            s.index("E", 2)

    def test_projection_groups_by_bound_values_and_honours_repeats(self):
        s = Structure(
            Signature.of(T=3),
            [1, 2, 3, 4],
            {"T": [(1, 2, 1), (1, 3, 1), (1, 2, 2), (2, 2, 2), (4, 4, 3)]},
        )
        by_first = s.projection("T", (0,), (1,))
        assert {k: sorted(v) for k, v in by_first.items()} == {1: [2, 3], 2: [2], 4: [4]}
        assert s.projection("T", (0,), (1,)) is by_first  # built once
        by_ends = s.projection("T", (0, 2), (1,))
        assert sorted(by_ends[(1, 1)]) == [2, 3]
        assert by_ends[(1, 2)] == (2,)
        # A repeated target variable, T(y, y, z): only tuples with t0 == t1.
        assert s.projection("T", (2,), (0, 1)) == {2: (2,), 3: (4,)}
        # No bound position: the whole relation's projection.
        assert sorted(s.projection("T", (), (0, 2))[()]) == [1, 2]
        with pytest.raises(ArityError):
            s.projection("T", (3,), (0,))


class TestValueSemantics:
    def test_extensional_equality(self, sig):
        a = Structure(sig, [1, 2], {"E": [(1, 2)]})
        b = Structure(sig, [2, 1], {"E": [(1, 2)]})
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_relations(self, sig):
        a = Structure(sig, [1, 2], {"E": [(1, 2)]})
        b = Structure(sig, [1, 2], {"E": [(2, 1)]})
        assert a != b
