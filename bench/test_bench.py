"""Self-tests of the benchmark: ``PYTHONPATH=src python -m pytest bench -q``."""

from __future__ import annotations

import json
import sys
from itertools import islice

import pytest

import repro
from repro.core.local_eval import evaluate_basic_unary
from repro.core.main_algorithm import evaluate_unary_main_algorithm

import compare
import inputs
import oracles
import spans
import workloads


def small_graphs():
    for family, n in (("grid", 49), ("tree", 60), ("bd3", 60), ("dense", 16)):
        for seed in (1, 2):
            yield f"{family}{n}-{seed}", inputs.make_graph(family, n, seed, "test")


GRAPHS = list(small_graphs())


@pytest.fixture(scope="module")
def engine():
    return repro.Foc1Evaluator(plan_cache=repro.PlanCache(), workers=1)


# -- closed forms against the engines --------------------------------------------


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_serve_templates_match_foc1(name, graph, engine):
    structure = workloads.build(graph)
    nbrs = inputs.adjacency(graph)
    mix = workloads.ServeMix.__new__(workloads.ServeMix)
    mix.nbrs, mix.census, mix._answers = [nbrs], [oracles.degree_census(nbrs)], {}
    for entry in inputs.serve_catalogue(thresholds=5, variants=2):
        got = workloads.ServeMix.execute(engine, structure, entry)
        assert got == mix.expected(entry, 0), (name, entry["text"])


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_scaling_queries_match_foc1(name, graph, engine):
    scaling = workloads.Scaling.__new__(workloads.Scaling)
    structure = workloads.build(graph)
    queries = {
        "paths2": repro.parse_formula(inputs.SCALING_QUERIES["paths2"]),
        "census4": repro.parse_term(inputs.SCALING_QUERIES["census4"]),
        "high_nbrs": repro.parse_term(inputs.SCALING_QUERIES["high_nbrs"]),
    }
    nbrs = inputs.adjacency(graph)
    assert scaling.call(engine, structure, queries, "paths2") == oracles.paths2(nbrs)
    assert scaling.call(engine, structure, queries, "census4") == oracles.census_eq(
        oracles.degree_census(nbrs), 4
    )
    assert scaling.call(engine, structure, queries, "high_nbrs") == oracles.high_nbrs(nbrs, 2)


@pytest.mark.parametrize("name,graph", GRAPHS[:6], ids=[g[0] for g in GRAPHS[:6]])
def test_cover_terms_match_ball_exploration_and_main_algorithm(name, graph):
    structure = workloads.build(graph)
    nbrs = inputs.adjacency(graph)
    terms = workloads.cover_terms()
    for term_name, want in (("degree", oracles.degrees(nbrs)), ("path", oracles.path_term(nbrs))):
        assert evaluate_basic_unary(structure, terms[term_name]) == want
        assert evaluate_unary_main_algorithm(structure, terms[term_name], workers=1) == want


def test_directed_writes_keep_the_degree_oracles(engine):
    graph = inputs.make_graph("bd3", 50, 3, "test")
    structure = workloads.build(graph)
    out = {v: set(ns) for v, ns in inputs.adjacency(graph).items()}
    for kind, (u, v) in islice(inputs.update_stream(graph, 3, 20, 0.6), 120):
        structure = structure.with_tuple("E", (u, v), kind == "insert")
        (out[u].add if kind == "insert" else out[u].discard)(v)
    term = workloads.cover_terms()["degree"]
    assert evaluate_basic_unary(structure, term) == oracles.degrees(out)
    read = repro.parse_term(workloads.UpdateStream.READ)
    census = oracles.degree_census(out)
    assert engine.ground_term_value(structure, read) == oracles.census_eq(census, 4)


# -- seeded inputs ----------------------------------------------------------------


def all_inputs(seed: int) -> bytes:
    p = inputs.PARAMS["serve-mix"]
    catalogue = inputs.serve_catalogue(p["thresholds"], p["alpha_variants"])
    graph = inputs.make_graph("bd3", 500, seed, "update")
    payload = {
        "graphs": [
            inputs.make_graph(family, 300, seed, salt)
            for family in inputs.FAMILIES
            for salt in ("scaling", "cover", "serve")
        ],
        "stream": list(islice(inputs.update_stream(graph, seed, 20, 0.65), 500)),
        "requests": inputs.serve_requests(seed, 500, p, catalogue),
        "arrivals": inputs.arrival_gaps(seed, 500, p["open_rate_rps"]),
    }
    return json.dumps(payload).encode()


def test_same_seed_gives_byte_identical_inputs_and_schedules():
    assert all_inputs(7) == all_inputs(7)


def test_different_seed_gives_different_inputs():
    assert all_inputs(7) != all_inputs(8)


def test_catalogue_outgrows_the_plan_cache():
    p = inputs.PARAMS["serve-mix"]
    catalogue = inputs.serve_catalogue(p["thresholds"], p["alpha_variants"])
    texts = [entry["text"] for entry in catalogue]
    assert len(set(texts)) == len(texts) > repro.PlanCache().capacity


# -- self-time arithmetic -----------------------------------------------------------


def span(id, name, start, end, parent):
    return spans.Span(id, name, start, end, parent, "", 0)


def test_self_times_are_exact_on_a_nested_tree():
    # op [0, 16): a [1, 9) holding b [2, 4) and c [4, 8) holding d [5, 6); e [10, 15)
    tree = [
        span(0, "op", 0.0, 16.0, None),
        span(1, "a", 1.0, 9.0, 0),
        span(2, "b", 2.0, 4.0, 1),
        span(3, "c", 4.0, 8.0, 1),
        span(4, "d", 5.0, 6.0, 3),
        span(5, "e", 10.0, 15.0, 0),
    ]
    assert spans.self_times(tree) == {0: 3.0, 1: 2.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 5.0}


def test_recorder_aggregates_match_the_offline_arithmetic():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0, 15.0, 16.0, 20.0, 22.0])
    recorder = spans.Recorder(clock=lambda: next(ticks))
    recorder.enter("op", "r1")
    recorder.enter("a")
    recorder.enter("b")
    recorder.exit()
    recorder.enter("c")
    recorder.enter("d")
    recorder.exit()
    recorder.exit()
    recorder.exit()
    recorder.enter("e")
    recorder.exit()
    recorder.exit()
    recorder.enter("e")  # a layer call outside any op: its own root
    recorder.exit()
    offline = spans.self_times(recorder.spans)
    for name, (calls, total, self_s) in recorder.totals.items():
        assert self_s == sum(offline[s.id] for s in recorder.spans if s.name == name)
    assert recorder.root_time == 18.0
    assert {s.request for s in recorder.spans if s.parent is not None} == {"r1"}
    report = spans.layer_report(recorder, ("op",))
    assert report["unattributed_ratio"] == 3.0 / 18.0


# -- patching -----------------------------------------------------------------------


def bindings():
    """Every module or class binding a patch target may touch, by identity."""
    seen = {}
    for _, target in spans.Patches(spans.Recorder()).targets():
        owner, attr = spans._resolve(target)
        if isinstance(owner, type):
            seen[(owner, attr)] = owner.__dict__[attr]
            continue
        original = getattr(owner, attr)
        for name, module in list(sys.modules.items()):
            if module is not None and module.__dict__.get(attr) is original:
                seen[(name, attr)] = original
    return seen


def test_every_patched_function_is_restored_after_a_traced_run(engine):
    before = bindings()
    recorder = spans.Recorder()
    structure = workloads.build(inputs.make_graph("grid", 36, 1, "test"))
    term = workloads.cover_terms()["degree"]
    with pytest.raises(RuntimeError):
        with spans.Patches(recorder, (workloads.__name__,)):
            with recorder.op("op"):
                workloads.evaluate_unary_main_algorithm(structure, term, workers=1)
                engine.count(structure, repro.parse_formula("E(x, y)"), ["x", "y"])
            raise RuntimeError("traced code failed")
    assert bindings() == before
    for layer in ("sparse.cover", "core.removal", "core.foc1", "plan.execute", "logic.parse"):
        assert recorder.totals[layer][0] > 0, layer


# -- paired comparison --------------------------------------------------------------


@pytest.mark.parametrize(
    "change,status",
    [
        ([90.0 + i for i in range(10)], "improved"),  # every pair faster, beyond the IQR
        ([100.5 + i for i in range(10)], "unchanged"),  # within the bound
        ([130.0 + i for i in range(10)], "regressed"),  # median 30 % worse, bound 20 %
    ],
)
def test_verdicts_follow_the_pairwise_rule(change, status):
    parent = [100.0 + i for i in range(10)]
    assert compare.verdict(parent, change, higher=False, bound=0.2)["status"] == status


def test_too_few_pairs_or_too_much_spread_is_unresolved():
    assert compare.verdict([1.0] * 9, [2.0] * 9, higher=False, bound=0.2)["status"] == "unresolved"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, noisy[::-1], higher=False, bound=0.2)["status"] == "unresolved"
