"""Tests for structure operations (expansions, reducts, unions, ...)."""

import pytest
from hypothesis import given, settings

from repro.errors import ArityError, SignatureError, UniverseError
from repro.structures.builders import graph_structure, path_graph
from repro.structures.gaifman import is_connected
from repro.structures.operations import (
    are_isomorphic,
    disjoint_union,
    expansion,
    pin_elements,
    reduct,
    relabel,
)
from repro.structures.signature import Signature

from ..conftest import small_graphs
from ..reference import gaifman_adjacency


def _view_neighbours(structure, element):
    """The neighbours of ``element`` in the structure's columnar view."""
    view = structure.columnar()
    elements = view.interner.elements
    return {elements[i] for i in view.neighbours(view.interner.id_of(element))}


class TestExpansionReduct:
    def test_expansion_adds_symbols(self, path5):
        expanded = expansion(path5, Signature.of(Mark=1), {"Mark": [(3,)]})
        assert expanded.has_tuple("Mark", (3,))
        assert expanded.relation("E") == path5.relation("E")

    def test_expansion_cannot_overwrite(self, path5):
        with pytest.raises(SignatureError):
            expansion(path5, Signature.of(E=2), {"E": []})

    def test_reduct_roundtrip(self, path5):
        expanded = expansion(path5, Signature.of(Mark=1), {"Mark": [(3,)]})
        back = reduct(expanded, path5.signature)
        assert back == path5

    def test_reduct_requires_subsignature(self, path5):
        with pytest.raises(SignatureError):
            reduct(path5, Signature.of(Nope=1))

    def test_expansion_preserves_gaifman_graph_for_unary(self, path5):
        """Unary expansions never change the Gaifman graph — the fact the
        Theorem 6.10 pipeline relies on to stay inside the class C."""
        expanded = expansion(path5, Signature.of(Mark=1), {"Mark": [(1,), (5,)]})
        assert gaifman_adjacency(expanded) == gaifman_adjacency(path5)

    def test_expansion_shares_the_parents_relations_and_caches(self, path5):
        projection = path5.projection("E", (0,), (1,))
        index = path5.index("E", 0)
        neighbours = path5.columnar()._neighbour_ids()
        interner = path5.interner()
        expanded = expansion(path5, Signature.of(Mark=1), {"Mark": [(3,)]})
        assert expanded.relation("E") is path5.relation("E")
        assert expanded.projection("E", (0,), (1,)) is projection
        assert expanded.index("E", 0) is index
        assert expanded.columnar()._neighbour_ids() is neighbours
        assert expanded.interner() is interner
        assert expanded.size() == path5.size() + 1

    def test_binary_expansion_does_not_share_the_adjacency(self, path5):
        neighbours = path5.columnar()._neighbour_ids()
        expanded = expansion(path5, Signature.of(F=2), {"F": [(1, 5)]})
        assert expanded.columnar()._neighbour_ids() is not neighbours
        assert 5 in gaifman_adjacency(expanded)[1]
        assert _view_neighbours(expanded, 1) == gaifman_adjacency(expanded)[1]
        assert _view_neighbours(path5, 1) == {2}

    def test_expansion_validates_the_fresh_tuples(self, path5):
        with pytest.raises(ArityError):
            expansion(path5, Signature.of(Mark=1), {"Mark": [(1, 2)]})
        with pytest.raises(UniverseError):
            expansion(path5, Signature.of(Mark=1), {"Mark": [(42,)]})

    def test_sibling_expansions_keep_their_own_projections(self, path5):
        """A projection of a fresh relation built on one expansion must not
        reach the parent, where a sibling interprets the same name."""
        first = expansion(path5, Signature.of(Mark=1), {"Mark": [(1,)]})
        second = expansion(path5, Signature.of(Mark=1), {"Mark": [(2,)]})
        assert first.projection("Mark", (), (0,)) == {(): (1,)}
        assert first.index("Mark", 0) == {1: ((1,),)}
        assert second.projection("Mark", (), (0,)) == {(): (2,)}
        assert second.index("Mark", 0) == {2: ((2,),)}
        third = expansion(path5, Signature.of(Mark=1), {"Mark": [(3,)]})
        assert third.projection("Mark", (), (0,)) == {(): (3,)}
        assert first.projection("Mark", (), (0,)) == {(): (1,)}
        assert not any(key[0] == "Mark" for key in path5._projections)
        assert not any(key[0] == "Mark" for key in path5._indexes)

    def test_expansion_stores_inherited_caches_on_the_parent(self, path5):
        """What an expansion builds for an inherited relation is valid on
        the parent, so the next expansion of the parent finds it."""
        expanded = expansion(path5, Signature.of(Mark=1), {"Mark": [(3,)]})
        projection = expanded.projection("E", (0,), (1,))
        index = expanded.index("E", 1)
        assert path5.projection("E", (0,), (1,)) is projection
        assert path5.index("E", 1) is index
        sibling = expansion(path5, Signature.of(Mark=1), {"Mark": [(4,)]})
        assert sibling.projection("E", (0,), (1,)) is projection

    def test_chained_expansions_store_each_relation_on_its_owner(self, path5):
        first = expansion(path5, Signature.of(Mark=1), {"Mark": [(3,)]})
        second = expansion(first, Signature.of(Flag=1), {"Flag": [(1,)]})
        projection = second.projection("E", (1,), (0,))
        mark = second.projection("Mark", (), (0,))
        second.projection("Flag", (), (0,))
        assert path5.projection("E", (1,), (0,)) is projection
        assert first.projection("E", (1,), (0,)) is projection
        assert first.projection("Mark", (), (0,)) is mark
        assert ("Mark", (), (0,)) not in path5._projections
        assert ("Flag", (), (0,)) not in first._projections
        assert ("Flag", (), (0,)) not in path5._projections

    def test_write_back_skips_a_parent_whose_relation_was_replaced(self, path5):
        """The parent's relation mutated in place (then invalidated) is no
        longer the expansion's: the expansion's pools stay its own."""
        expanded = expansion(path5, Signature.of(Mark=1), {"Mark": [(3,)]})
        symbol = path5.signature["E"]
        path5._relations[symbol] = path5._relations[symbol] | {(1, 5)}
        path5.invalidate_caches()
        assert sorted(expanded.projection("E", (0,), (1,))[1]) == [2]
        assert sorted(path5.projection("E", (0,), (1,))[1]) == [2, 5]


class TestPinElements:
    def test_pin_creates_singletons(self, path5):
        pinned = pin_elements(path5, {"X__x": 2, "X__y": 4})
        assert pinned.relation("X__x") == frozenset({(2,)})
        assert pinned.relation("X__y") == frozenset({(4,)})

    def test_pin_foreign_element_rejected(self, path5):
        with pytest.raises(UniverseError):
            pin_elements(path5, {"X__x": 42})


class TestDisjointUnion:
    def test_sizes_add(self, path5, triangle):
        union = disjoint_union(path5, triangle)
        assert union.order() == path5.order() + triangle.order()
        assert union.size() == path5.size() + triangle.size()

    def test_no_cross_edges(self, path5, triangle):
        union = disjoint_union(path5, triangle)
        assert not is_connected(union)
        for u, v in union.relation("E"):
            assert u[0] == v[0]  # same side tag

    def test_signature_mismatch_rejected(self, path5):
        other = graph_structure([1], [])
        from repro.structures.operations import expansion as expand

        coloured = expand(other, Signature.of(R=1), {"R": []})
        with pytest.raises(SignatureError):
            disjoint_union(path5, coloured)


class TestRelabelAndIsomorphism:
    def test_relabel_preserves_isomorphism_type(self, triangle):
        renamed = relabel(triangle, {1: "a", 2: "b", 3: "c"})
        assert are_isomorphic(triangle, renamed)

    def test_relabel_must_be_injective(self, triangle):
        with pytest.raises(UniverseError):
            relabel(triangle, {1: "a", 2: "a", 3: "c"})

    def test_non_isomorphic_detected(self):
        a = graph_structure([1, 2, 3], [(1, 2)])
        b = graph_structure([1, 2, 3], [(1, 2), (2, 3)])
        assert not are_isomorphic(a, b)

    def test_same_degree_sequence_non_isomorphic(self):
        # C6 vs two triangles: both 2-regular on 6 vertices.
        c6 = graph_structure(range(6), [(i, (i + 1) % 6) for i in range(6)])
        two_triangles = graph_structure(
            range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        assert not are_isomorphic(c6, two_triangles)

    @given(small_graphs(max_vertices=5))
    @settings(max_examples=25, deadline=None)
    def test_relabelled_graphs_always_isomorphic(self, structure):
        shifted = relabel(structure, lambda v: ("shift", v))
        assert are_isomorphic(structure, shifted)

    def test_size_limit_enforced(self):
        big = path_graph(20)
        with pytest.raises(ValueError):
            are_isomorphic(big, big)
