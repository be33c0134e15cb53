"""Property tests for the Removal Lemma (Lemmas 7.8 and 7.9)."""

import itertools
import random

import pytest
from hypothesis import given, settings

from repro.core.removal import (
    distance_marker_name,
    removal_formula,
    removal_ground_term,
    removal_unary_term,
    remove_element,
    removed_relation_name,
    removed_signature,
)
from repro.errors import FaultInjectedError, FormulaError, UniverseError
from repro.logic.parser import parse_formula
from repro.logic.semantics import evaluate, satisfies
from repro.logic.syntax import CountTerm, DistAtom, free_variables
from repro.robust import FaultInjector, inject_faults
from repro.structures.builders import graph_structure, path_graph
from repro.structures.gaifman import ball, distances_from, induced
from repro.structures.signature import Signature
from repro.structures.structure import Structure

from ..conftest import fo_formulas, small_graphs

RADIUS = 3


class TestSurgery:
    def test_names(self):
        assert removed_relation_name("E", frozenset()) == "E__rm"
        assert removed_relation_name("E", frozenset({2, 1})) == "E__rm_1_2"
        assert distance_marker_name(2) == "S__2"

    def test_removed_signature_counts(self):
        sig = removed_signature(Signature.of(E=2), 2)
        # E: subsets of {1,2} -> 4 symbols, plus S_1, S_2
        assert len(sig) == 6
        assert sig["E__rm"].arity == 2
        assert sig["E__rm_1_2"].arity == 0
        assert sig["S__1"].arity == 1

    def test_remove_splits_relations(self):
        g = graph_structure([1, 2, 3], [(1, 2), (2, 3)])
        removed = remove_element(g, 2, 1)
        assert removed.relation("E__rm") == frozenset()
        assert removed.relation("E__rm_1") == frozenset({(1,), (3,)})
        assert removed.relation("E__rm_2") == frozenset({(1,), (3,)})
        assert removed.relation("S__1") == frozenset({(1,), (3,)})

    def test_distance_markers_use_original_distances(self):
        p = path_graph(5)
        removed = remove_element(p, 3, 2)
        # S_2 = elements at distance <= 2 from 3 in the ORIGINAL path
        assert removed.relation("S__2") == frozenset({(1,), (2,), (4,), (5,)})
        assert removed.relation("S__1") == frozenset({(2,), (4,)})

    def test_universe_shrinks(self):
        p = path_graph(4)
        removed = remove_element(p, 2, 1)
        assert 2 not in removed.universe
        assert removed.order() == 3

    def test_order_one_rejected(self):
        g = graph_structure([1], [])
        with pytest.raises(UniverseError):
            remove_element(g, 1, 1)

    def test_foreign_element_rejected(self, path5):
        with pytest.raises(UniverseError):
            remove_element(path5, 42, 1)


MIXED_SIGNATURE = Signature.of(E=2, T=3, P=1, Z=0)


def random_mixed_structure(rng):
    """A small structure over ``E/2, T/3, P/1, Z/0`` whose universe mixes
    ``int`` and ``str`` elements in shuffled order."""
    n = rng.randint(3, 14)
    universe = [i if rng.random() < 0.5 else f"v{i}" for i in range(n)]
    rng.shuffle(universe)
    pick = lambda: rng.choice(universe)  # noqa: E731
    relations = {
        "E": {(pick(), pick()) for _ in range(rng.randint(0, 2 * n))},
        "T": {(pick(), pick(), pick()) for _ in range(rng.randint(0, n))},
        "P": {(pick(),) for _ in range(rng.randint(0, n))},
        "Z": {()} if rng.random() < 0.5 else set(),
    }
    return Structure(MIXED_SIGNATURE, universe, relations)


def reference_removal(structure, d, radius):
    """``A astrix_r d`` straight from its definition: every tuple sorted by
    the positions holding ``d``, markers from the Gaifman kernels' BFS."""
    relations = {}
    for symbol in structure.signature:
        for tup in structure.relation(symbol):
            positions = frozenset(i + 1 for i, entry in enumerate(tup) if entry == d)
            relations.setdefault(
                removed_relation_name(symbol.name, positions), set()
            ).add(tuple(entry for entry in tup if entry != d))
    reach = distances_from(structure, [d], radius)
    for i in range(1, radius + 1):
        relations[distance_marker_name(i)] = {
            (b,) for b, dist in reach.items() if b != d and dist <= i
        }
    universe = [a for a in structure.universe_order if a != d]
    return Structure(removed_signature(structure.signature, radius), universe, relations)


def assert_same_structure(got, want):
    assert got.signature == want.signature
    assert got.universe_order == want.universe_order
    for symbol in want.signature:
        assert got.relation(symbol) == want.relation(symbol), symbol.name


class TestClusterSurgery:
    """``remove_element(A, d, r, within=X)`` is ``A[X] astrix_r d``."""

    @pytest.mark.parametrize("block", range(6))
    def test_matches_surgery_on_the_induced_cluster(self, block):
        for seed in range(50 * block, 50 * (block + 1)):
            rng = random.Random(seed)
            structure = random_mixed_structure(rng)
            cluster = ball(structure, [rng.choice(structure.universe_order)], rng.randint(1, 3))
            d = rng.choice([a for a in structure.universe_order if a in cluster])
            radius = rng.randint(1, 3)
            if len(cluster) < 2:
                with pytest.raises(UniverseError):
                    remove_element(structure, d, radius, within=cluster)
                continue
            got = remove_element(structure, d, radius, within=cluster)
            assert_same_structure(got, remove_element(induced(structure, cluster), d, radius))
            assert_same_structure(got, reference_removal(induced(structure, cluster), d, radius))

    @pytest.mark.parametrize("block", range(2))
    def test_whole_universe_is_the_plain_surgery(self, block):
        for seed in range(50 * block, 50 * (block + 1)):
            rng = random.Random(seed)
            structure = random_mixed_structure(rng)
            d = rng.choice(structure.universe_order)
            radius = rng.randint(1, 3)
            want = reference_removal(structure, d, radius)
            assert_same_structure(remove_element(structure, d, radius), want)
            assert_same_structure(
                remove_element(structure, d, radius, within=structure.universe), want
            )

    def test_result_equals_a_validated_structure(self):
        """The surgery skips the constructor's per-tuple checks; what it
        builds is what ``Structure(...)`` accepts and builds from the same
        data, caches and size included."""
        for seed in range(40):
            rng = random.Random(seed)
            structure = random_mixed_structure(rng)
            cluster = ball(structure, [rng.choice(structure.universe_order)], 2)
            if len(cluster) < 2:
                continue
            d = rng.choice(sorted(cluster, key=repr))
            got = remove_element(structure, d, rng.randint(1, 3), within=cluster)
            built = Structure(got.signature, got.universe_order, got.relations())
            assert got == built and hash(got) == hash(built)
            assert got.universe_order == built.universe_order
            assert got.size() == built.size()
            assert got.adjacency() == built.adjacency()

    def test_edge_witnessed_only_outside_the_cluster(self):
        """``T(1, 2, 4)`` makes 1 and 2 adjacent in A but not in A[{1, 2, 3}]:
        the markers must come from the cluster's own tuples."""
        structure = Structure(
            MIXED_SIGNATURE, [1, 2, 3, 4], {"T": {(1, 2, 4)}, "E": {(2, 3), (3, 2)}}
        )
        removed = remove_element(structure, 1, 2, within={1, 2, 3})
        assert removed.relation("S__1") == frozenset()
        assert removed.relation("S__2") == frozenset()
        assert removed.relation("T__rm_1") == frozenset()
        whole = remove_element(structure, 1, 2)
        assert whole.relation("S__1") == frozenset({(2,), (4,)})
        assert whole.relation("S__2") == frozenset({(2,), (3,), (4,)})

    def test_cluster_outside_the_universe_rejected(self, path5):
        with pytest.raises(UniverseError):
            remove_element(path5, 1, 1, within={1, 2, 99})

    def test_removed_element_outside_the_cluster_rejected(self, path5):
        with pytest.raises(UniverseError):
            remove_element(path5, 5, 1, within={1, 2, 3})

    def test_fault_site_fires_on_a_cluster_surgery(self, path5):
        with inject_faults(FaultInjector({"removal.surgery": 1})) as injector:
            with pytest.raises(FaultInjectedError):
                remove_element(path5, 2, 1, within={1, 2, 3})
        assert injector.fired["removal.surgery"] == 1


class TestLemma78:
    """A |= phi[a-bar] iff A*d |= phi~_V[a-bar \\ V]."""

    FORMULAS = [
        "E(x, y)",
        "x = y",
        "dist(x, y) <= 2",
        "dist(x, y) <= 1 & !E(x, y)",
        "exists z. (E(x, z) & E(z, y))",
        "forall z. (E(x, z) -> dist(z, y) <= 3)",
        "exists z. (E(x, z) & exists w. (E(z, w) & !(w = x)))",
    ]

    @pytest.mark.parametrize("source", FORMULAS)
    def test_on_small_graphs(self, source):
        phi = parse_formula(source)
        g = graph_structure(
            [1, 2, 3, 4, 5], [(1, 2), (2, 3), (3, 4), (4, 5), (2, 5)]
        )
        for d in g.universe_order:
            removed = remove_element(g, d, RADIUS)
            for a, b in itertools.product(g.universe_order, repeat=2):
                pinned = frozenset(
                    v for v, value in (("x", a), ("y", b)) if value == d
                )
                rewritten = removal_formula(phi, pinned, RADIUS)
                assert free_variables(rewritten) <= {"x", "y"} - pinned
                env = {
                    v: value
                    for v, value in (("x", a), ("y", b))
                    if value != d
                }
                assert satisfies(g, phi, {"x": a, "y": b}) == satisfies(
                    removed, rewritten, env
                ), (source, d, a, b)

    @given(small_graphs(min_vertices=2, max_vertices=5), fo_formulas(max_depth=2))
    @settings(max_examples=25, deadline=None)
    def test_random_formulas_sentences(self, structure, phi):
        from repro.logic.syntax import exists_block

        sentence = exists_block(sorted(free_variables(phi)), phi)
        d = structure.universe_order[0]
        removed = remove_element(structure, d, RADIUS)
        rewritten = removal_formula(sentence, frozenset(), RADIUS)
        assert satisfies(structure, sentence) == satisfies(removed, rewritten)

    def test_distance_bound_beyond_radius_rejected(self):
        phi = DistAtom("x", "y", 10)
        with pytest.raises(FormulaError):
            removal_formula(phi, frozenset(), 3)

    def test_counting_constructs_rejected(self):
        phi = parse_formula("@geq1(#(y). E(x, y))")
        with pytest.raises(FormulaError):
            removal_formula(phi, frozenset(), 3)


class TestLemma79:
    @given(small_graphs(min_vertices=2, max_vertices=5))
    @settings(max_examples=20, deadline=None)
    def test_ground_terms(self, structure):
        body = parse_formula("E(y1, y2) | dist(y1, y2) <= 2")
        term = CountTerm(("y1", "y2"), body)
        original = evaluate(term, structure)
        for d in list(structure.universe_order)[:2]:
            removed = remove_element(structure, d, RADIUS)
            parts = removal_ground_term(("y1", "y2"), body, RADIUS)
            assert len(parts) == 4  # subsets of {y1, y2}
            total = sum(evaluate(p.count_term(), removed) for p in parts)
            assert total == original

    @given(small_graphs(min_vertices=2, max_vertices=5))
    @settings(max_examples=20, deadline=None)
    def test_unary_terms(self, structure):
        body = parse_formula("E(x1, y2) & !(x1 = y2)")
        term = CountTerm(("y2",), body)
        d = structure.universe_order[-1]
        removed = remove_element(structure, d, RADIUS)
        ground_parts, unary_parts = removal_unary_term("x1", ("y2",), body, RADIUS)
        for a in structure.universe_order:
            original = evaluate(term, structure, {"x1": a})
            if a == d:
                got = sum(evaluate(p.count_term(), removed) for p in ground_parts)
            else:
                got = sum(
                    evaluate(p.count_term(), removed, {"x1": a})
                    for p in unary_parts
                )
            assert got == original, (d, a)

    def test_part_counts(self):
        body = parse_formula("E(x1, y2)")
        ground_parts, unary_parts = removal_unary_term("x1", ("y2",), body, 2)
        assert len(ground_parts) == 2  # y2 pinned or not, x1 always pinned
        assert len(unary_parts) == 2
