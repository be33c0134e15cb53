"""Interning edge cases: mixed-type universes, duplicate collapse, and id
stability across ``with_tuple()`` derivation chains."""

import pytest

from repro.errors import UniverseError
from repro.structures import ElementInterner, Signature, Structure
from repro.structures.builders import graph_structure


class TestElementInterner:
    def test_ids_follow_universe_order(self):
        interner = ElementInterner(["c", "a", "b"])
        assert [interner.id_of(e) for e in ("c", "a", "b")] == [0, 1, 2]
        assert interner.elements == ("c", "a", "b")

    def test_duplicates_collapse_onto_first_occurrence(self):
        interner = ElementInterner(["x", "y", "x", "z", "y"])
        assert interner.elements == ("x", "y", "z")
        assert interner.id_of("x") == 0
        assert interner.id_of("z") == 2

    def test_mixed_type_universe(self):
        # Sorting raw mixed-type elements would raise TypeError; sorting
        # their ids must not, and must reproduce universe order.
        universe = ["b", 3, (1, 2), "a", 0]
        interner = ElementInterner(universe)
        ids = sorted(interner.ids(universe))
        assert interner.elements_of(ids) == universe

    def test_tuple_elements(self):
        interner = ElementInterner([(1, 2), (2, 1), (1, 1)])
        assert interner.id_of((2, 1)) == 1
        assert (1, 1) in interner
        assert (3, 3) not in interner

    def test_foreign_element_raises(self):
        interner = ElementInterner([1, 2])
        with pytest.raises(UniverseError):
            interner.id_of(99)
        with pytest.raises(UniverseError):
            interner.ids([1, 99])
        assert interner.get(99) is None

    def test_empty_universe_raises(self):
        with pytest.raises(UniverseError):
            ElementInterner([])

    def test_len_and_iteration(self):
        interner = ElementInterner(["a", "b"])
        assert len(interner) == 2
        assert interner.n == 2
        assert list(interner) == ["a", "b"]

    def test_batch_roundtrip_preserves_order_and_duplicates(self):
        interner = ElementInterner(["p", "q", "r"])
        ids = interner.ids(["r", "p", "r"])
        assert ids == [2, 0, 2]
        assert interner.elements_of(ids) == ["r", "p", "r"]


class TestStructureInterning:
    def test_interner_matches_universe_order(self):
        structure = graph_structure([5, 1, 3], [(5, 1)])
        interner = structure.interner()
        assert interner.elements == structure.universe_order

    def test_interner_cached(self):
        structure = graph_structure([1, 2], [(1, 2)])
        assert structure.interner() is structure.interner()

    def test_id_stability_across_with_tuple_chain(self):
        structure = graph_structure([1, 2, 3, 4], [(1, 2)])
        base = structure.interner()
        derived = structure.with_tuple("E", (2, 3))
        derived = derived.with_tuple("E", (3, 4))
        derived = derived.with_tuple("E", (1, 2), present=False)
        assert derived.interner() is base
        for element in structure.universe_order:
            assert derived.interner().id_of(element) == base.id_of(element)

    def test_interner_survives_invalidate_caches(self):
        structure = graph_structure([1, 2], [(1, 2)])
        interner = structure.interner()
        columnar = structure.columnar()
        structure.invalidate_caches()
        assert structure.interner() is interner
        assert structure.columnar() is not columnar

    def test_with_tuple_gets_fresh_columnar_view(self):
        structure = graph_structure([1, 2, 3], [(1, 2)])
        parent_view = structure.columnar()
        derived = structure.with_tuple("E", (2, 3))
        derived_view = derived.columnar()
        assert derived_view is not parent_view
        # Parent's view still answers for the parent's relations; the
        # derived one sees the single inserted (directed) tuple's edge.
        interner = structure.interner()
        two = interner.id_of(2)
        assert parent_view.neighbours(two) == (interner.id_of(1),)
        assert derived_view.neighbours(two) == (
            interner.id_of(1),
            interner.id_of(3),
        )

    def test_pickled_structure_reinterns_identically(self):
        import pickle

        structure = graph_structure(["b", "a", "c"], [("b", "a")])
        structure.columnar()  # populate caches on the sending side
        clone = pickle.loads(pickle.dumps(structure))
        assert clone == structure
        assert clone.universe_order == structure.universe_order
        assert clone.interner().elements == structure.interner().elements

    def test_non_hashable_free_api_unchanged(self):
        # Interning is transparent: the element-space API still serves
        # arbitrary hashable objects.
        sig = Signature.of(R=1)
        structure = Structure(sig, [("x", 1), "y"], {"R": [(("x", 1),)]})
        assert structure.has_tuple("R", (("x", 1),))
        assert structure.interner().id_of("y") == 1
