"""Columnar kernels against the element-space ground truth: Gaifman adjacency,
BFS balls/distances, bitsets, sorted-array kernels, derived views."""

import math
import random
from array import array

import pytest

from repro.structures import (
    RelationSymbol,
    Signature,
    Structure,
    bitset_ids,
    bitset_of,
    intersect_sorted,
    union_sorted,
)
from repro.structures.builders import (
    complete_graph,
    graph_structure,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.structures.columnar import ColumnarStructure
from repro.structures.gaifman import ball, distances_from

from ..reference import gaifman_adjacency, reference_ball, reference_distances_from


def _random_graph(seed: int, n: int = 14) -> Structure:
    rng = random.Random(seed)
    vertices = list(range(1, n + 1))
    edges = [
        (u, v) for u in vertices for v in vertices if u < v and rng.random() < 0.18
    ]
    return graph_structure(vertices, edges)


class TestSortedArrayKernels:
    @pytest.mark.parametrize("seed", range(8))
    def test_intersect_matches_set_intersection(self, seed):
        rng = random.Random(seed)
        a = sorted(rng.sample(range(200), rng.randint(0, 60)))
        b = sorted(rng.sample(range(200), rng.randint(0, 60)))
        got = list(intersect_sorted(array("q", a), array("q", b)))
        assert got == sorted(set(a) & set(b))

    @pytest.mark.parametrize("seed", range(8))
    def test_union_matches_set_union(self, seed):
        rng = random.Random(seed)
        a = sorted(rng.sample(range(200), rng.randint(0, 60)))
        b = sorted(rng.sample(range(200), rng.randint(0, 60)))
        got = list(union_sorted(array("q", a), array("q", b)))
        assert got == sorted(set(a) | set(b))

    def test_intersect_disjoint_and_nested_runs(self):
        assert list(intersect_sorted([1, 2, 3], [10, 20])) == []
        assert list(intersect_sorted([5], list(range(100)))) == [5]
        assert list(intersect_sorted([], [1, 2])) == []

    def test_bitset_roundtrip(self):
        ids = [0, 3, 17, 63, 64, 100]
        bs = bitset_of(ids, 101)
        assert bitset_ids(bs) == ids
        assert bitset_of([], 10) == 0
        assert bitset_ids(0) == []

    def test_bitset_membership_and_subset(self):
        a = bitset_of([1, 2, 5], 8)
        b = bitset_of([1, 2, 5, 7], 8)
        assert (a >> 5) & 1 == 1
        assert (a >> 3) & 1 == 0
        assert a & ~b == 0  # a subset of b
        assert b & ~a != 0


class TestColumnarAdjacency:
    @pytest.mark.parametrize(
        "structure",
        [
            path_graph(9),
            grid_graph(3, 4),
            complete_graph(5),
            star_graph(6),
            _random_graph(0),
            _random_graph(1),
        ],
        ids=["path", "grid", "clique", "star", "rand0", "rand1"],
    )
    def test_neighbours_match_the_oracle(self, structure):
        kernel = structure.columnar()
        interner = kernel.interner
        adjacency = gaifman_adjacency(structure)
        for element in structure.universe_order:
            eid = interner.id_of(element)
            got = {interner.elements[i] for i in kernel.neighbours(eid)}
            assert got == set(adjacency[element])
            assert kernel.degree(eid) == len(adjacency[element])

    def test_higher_arity_tuples_induce_clique_edges(self):
        sig = Signature.of(T=3)
        structure = Structure(
            sig, [1, 2, 3, 4], {"T": [(1, 2, 3), (4, 4, 4)]}
        )
        kernel = structure.columnar()
        interner = kernel.interner
        assert set(kernel.neighbours(interner.id_of(1))) == {
            interner.id_of(2),
            interner.id_of(3),
        }
        # Singleton-support tuples contribute no Gaifman edges.
        assert list(kernel.neighbours(interner.id_of(4))) == []


#: The stream's two expansion steps (``with_relations``): by a fresh unary
#: symbol, which adds no Gaifman edge, and by a fresh binary one.
_EXPANSIONS = {13: ("M", 1), 27: ("F", 2)}


def _write_stream(seed: int, steps: int = 40):
    """A seeded structure over ``E/2``, ``T/3`` and ``U/1``, and the
    ``(parent, derived)`` structure pairs of a stream of writes from it:
    ``with_tuple`` writes, and at the steps of :data:`_EXPANSIONS` an
    expansion by a fresh symbol holding two random tuples, which later
    writes may touch.  The start has self-loops, both orientations of one
    pair and a pair witnessed by ``E`` and ``T`` at once; about half the
    writes delete a present tuple, and new tuples may repeat entries."""
    rng = random.Random(seed)
    nodes = list(range(9))
    start = Structure(
        Signature.of(E=2, T=3, U=1),
        nodes,
        {
            "E": [(0, 0), (0, 1), (1, 0), (1, 2), (3, 4), (5, 5)],
            "T": [(1, 2, 6), (7, 7, 8), (4, 4, 4)],
            "U": [(2,)],
        },
    )

    def random_tuple(arity):
        return tuple(rng.choice(nodes) for _ in range(arity))

    def writes():
        current = start
        names = "EETTU"
        for step in range(steps):
            if step in _EXPANSIONS:
                name, arity = _EXPANSIONS[step]
                signature = current.signature.extend(RelationSymbol(name, arity))
                derived = current.with_relations(
                    signature, {name: [random_tuple(arity) for _ in range(2)]}
                )
                names += name
            else:
                name = rng.choice(names)
                present_tuples = sorted(current.relation(name))
                if present_tuples and rng.random() < 0.5:
                    tup, present = rng.choice(present_tuples), False
                else:
                    tup = random_tuple(current.signature[name].arity)
                    present = True
                derived = current.with_tuple(name, tup, present)
            yield current, derived
            current = derived

    return start, writes()


def _view_graph(structure):
    """The columnar view's neighbour tuples as an element-keyed graph."""
    view = structure.columnar()
    elements = view.interner.elements
    return {
        elements[i]: frozenset(elements[j] for j in view.neighbours(i))
        for i in range(view.n)
    }


class TestDerivedViews:
    """``with_tuple`` derives the columnar view (``derive_insert`` /
    ``derive_delete``) and ``with_relations`` hands on the parent's
    neighbour tuples when the fresh symbols are at most unary; the derived
    neighbour tuples must equal a fresh build and the oracle's graph, and
    the Gaifman functions must agree with the element-space reference,
    after every step."""

    @pytest.mark.parametrize("seed", range(12))
    def test_stream_matches_fresh_build_and_reference(self, seed):
        start, writes = _write_stream(seed)
        start.columnar()._neighbour_ids()
        for parent, derived in writes:
            if derived is parent:
                continue
            view = derived._columnar
            fresh = [s for s in derived.signature if s not in parent.signature]
            if not fresh:
                assert view is not None and view._neigh is not None
            elif all(symbol.arity <= 1 for symbol in fresh):
                assert view._neigh is parent._columnar._neigh
            else:
                assert view is None
            adjacency = gaifman_adjacency(derived)
            assert _view_graph(derived) == adjacency
            assert (
                derived.columnar()._neighbour_ids()
                == ColumnarStructure(derived)._neighbour_ids()
            )
            for element in derived.universe_order:
                for radius in (0, 1, 2):
                    assert ball(derived, [element], radius) == reference_ball(
                        adjacency, [element], radius
                    )
                assert distances_from(derived, [element]) == reference_distances_from(
                    adjacency, [element]
                )

    def test_untouched_relations_and_interner_are_shared(self):
        structure = Structure(
            Signature.of(E=2, T=3), [1, 2, 3], {"E": [(1, 2)], "T": [(1, 2, 3)]}
        )
        view = structure.columnar()
        t_relation = structure.relation("T")
        for derived in (
            structure.with_tuple("E", (2, 3)),
            structure.with_tuple("E", (1, 2), present=False),
        ):
            derived_view = derived._columnar
            assert derived_view.interner is view.interner
            assert derived_view._source == derived.relations()
            assert derived_view._source[derived.signature["T"]] is t_relation


class TestBallKernels:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_ball_ids_matches_bfs(self, seed, radius):
        structure = _random_graph(seed)
        kernel = structure.columnar()
        interner = kernel.interner
        for element in structure.universe_order:
            reference = set(distances_from(structure, [element], radius))
            ids = kernel.ball_ids((interner.id_of(element),), radius)
            assert ids == sorted(ids)
            assert {interner.elements[i] for i in ids} == reference

    @pytest.mark.parametrize("seed", range(4))
    def test_multi_source_distances_match(self, seed):
        structure = _random_graph(seed)
        kernel = structure.columnar()
        interner = kernel.interner
        sources = structure.universe_order[:3]
        reference = distances_from(structure, sources)
        ids, dists = kernel.distances(interner.ids(sources))
        got = {interner.elements[i]: d for i, d in zip(ids, dists)}
        assert got == reference

    def test_distance_between_matches_reference(self):
        structure = grid_graph(3, 3)
        kernel = structure.columnar()
        interner = kernel.interner
        from repro.structures.gaifman import distance

        for a in structure.universe_order:
            for b in structure.universe_order:
                want = distance(structure, a, b)
                got = kernel.distance_between(interner.id_of(a), interner.id_of(b))
                assert (math.inf if got is None else got) == want

    def test_disconnected_ball_stays_in_component(self):
        structure = graph_structure([1, 2, 3, 4], [(1, 2)])
        kernel = structure.columnar()
        ids = kernel.ball_ids((kernel.interner.id_of(3),), 5)
        assert [kernel.interner.elements[i] for i in ids] == [3]
