"""E14 — incremental maintenance under updates (open question 2 prototype).

[16] maintains FOC(P) answers under updates on bounded-degree classes in
constant time per update.  Our locality-based cache recomputes only the
dependency ball of the touched tuple; measured here against recompute-from-
scratch on bounded-degree graphs of growing size.

Measured shape: per-update cost of the incremental cache is flat in n
(constant-size balls), while full recomputation grows linearly.

The write-then-read cycle is the end-to-end benchmark's update-stream
cycle: 20 single-tuple writes through the cache on a max-degree-3 graph at
n = 4000, then a foc1 read of the current version.  The read runs on the
projections the writes patched, so every read is checked (untimed) against
the answer on a freshly built structure.

The write-only stream times single-tuple writes alone on max-degree-3
graphs at n = 4000, 16000 and 64000 and records write p50 per order in
``extra_info``: a write copies only its patches, so p50 should stay flat
in n.  Every written value is checked (untimed) and ``verify()`` runs at
the end.
"""

import random
import time
from collections import Counter

import pytest

from repro.core.clterms import BasicClTerm
from repro.core.evaluator import Foc1Evaluator
from repro.core.incremental import IncrementalUnaryCache
from repro.core.local_eval import evaluate_basic_unary
from repro.logic.builder import Rel
from repro.logic.parser import parse_term
from repro.plan.cache import PlanCache
from repro.sparse.classes import bounded_degree_graph
from repro.structures.structure import Structure

E = Rel("E", 2)

TERM = BasicClTerm(
    ("y1", "y2"), E("y1", "y2"), 0, 1, frozenset({(1, 2)}), unary=True
)

SIZES = (100, 400, 1600)

#: The write-then-read cycle: graph order, writes per read, the read.
CYCLE_ORDER = 4000
CYCLE_WRITES = 20
READ = parse_term("#(x). @eq(#(y). E(x, y), 4)")

#: The write-only stream: graph orders, warm-up writes, timed writes.
STREAM_ORDERS = (4000, 16000, 64000)
STREAM_WARMUP = 300
STREAM_TIMED = 400


def _draw_writes(rng, cache, nodes, edges, present, count):
    """``count`` writes, each deleting a present tuple or inserting an
    absent one with even odds; ``edges`` and ``present`` are kept in step."""
    writes = []
    for _ in range(count):
        if rng.random() < 0.5:
            i = rng.randrange(len(edges))
            edges[i], edges[-1] = edges[-1], edges[i]
            tup = edges.pop()
            present.discard(tup)
            writes.append((cache.delete, tup))
        else:
            tup = tuple(rng.sample(nodes, 2))
            while tup in present:
                tup = tuple(rng.sample(nodes, 2))
            edges.append(tup)
            present.add(tup)
            writes.append((cache.insert, tup))
    return writes


@pytest.mark.parametrize("n", SIZES)
def test_incremental_update(benchmark, n):
    structure = bounded_degree_graph(n, 3, seed=n)
    cache = IncrementalUnaryCache(structure, TERM)
    nodes = list(structure.universe_order)
    state = {"flip": False}

    def toggle_edge():
        # alternate insert/delete of the same edge: a steady update stream
        if state["flip"]:
            cache.delete("E", (nodes[0], nodes[1]))
        else:
            cache.insert("E", (nodes[0], nodes[1]))
        state["flip"] = not state["flip"]

    benchmark(toggle_edge)
    cache.verify()
    benchmark.extra_info["order"] = n
    benchmark.extra_info["recompute_ratio"] = round(
        cache.stats.recompute_ratio(n), 4
    )


@pytest.mark.parametrize("n", SIZES)
def test_full_recompute_baseline(benchmark, n):
    structure = bounded_degree_graph(n, 3, seed=n)
    values = benchmark(evaluate_basic_unary, structure, TERM)
    benchmark.extra_info["order"] = n
    benchmark.extra_info["total"] = sum(values.values())


def test_write_then_read_cycle(benchmark):
    structure = bounded_degree_graph(CYCLE_ORDER, 3, seed=CYCLE_ORDER)
    cache = IncrementalUnaryCache(structure, TERM)
    engine = Foc1Evaluator(plan_cache=PlanCache(), workers=1)
    engine.ground_term_value(structure, READ)  # warm-up compile
    rng = random.Random(CYCLE_ORDER)
    nodes = list(structure.universe_order)
    edges = sorted(structure.relation("E"))  # kept in step with the writes
    present = set(edges)
    reads = []

    def draw():
        """The next cycle's writes."""
        return _draw_writes(rng, cache, nodes, edges, present, CYCLE_WRITES)

    def cycle(writes):
        for write, tup in writes:
            write("E", tup)
        version = cache.structure
        reads.append((version, engine.ground_term_value(version, READ)))

    def check():
        """Each read against the read of a fresh build."""
        while reads:
            version, value = reads.pop()
            fresh = Structure(
                version.signature, version.universe_order, version.relations()
            )
            assert value == engine.ground_term_value(fresh, READ)

    def setup():
        """Untimed: check the last read, draw the next writes."""
        check()
        return (draw(),), {}

    # A few checked cycles first, so a --benchmark-disable run (one round)
    # still checks several versions.
    for _ in range(3):
        cycle(draw())
        check()
    benchmark.pedantic(cycle, setup=setup, rounds=20)
    check()
    cache.verify()
    benchmark.extra_info["order"] = CYCLE_ORDER
    benchmark.extra_info["writes_per_read"] = CYCLE_WRITES
    benchmark.extra_info["recomputed_per_write"] = round(
        cache.stats.recomputed_elements / cache.stats.updates, 2
    )


@pytest.mark.parametrize("n", STREAM_ORDERS)
def test_write_only_stream(benchmark, n):
    structure = bounded_degree_graph(n, 3, seed=n)
    cache = IncrementalUnaryCache(structure, TERM)
    rng = random.Random(n)
    edges = sorted(structure.relation("E"))
    out_degree = Counter(u for u, _ in edges)
    writes = _draw_writes(
        rng, cache, list(structure.universe_order), edges, set(edges),
        STREAM_WARMUP + STREAM_TIMED,
    )
    times = []

    def stream():
        for write, (u, v) in writes:
            start = time.perf_counter()
            write("E", (u, v))
            times.append(time.perf_counter() - start)
            out_degree[u] += 1 if write == cache.insert else -1
            assert cache.value(u) == out_degree[u]

    benchmark.pedantic(stream, rounds=1, iterations=1)
    cache.verify()
    timed = sorted(times[STREAM_WARMUP:])
    benchmark.extra_info["order"] = n
    benchmark.extra_info["write_p50_ms"] = round(1000 * timed[len(timed) // 2], 4)
    benchmark.extra_info["write_p99_ms"] = round(1000 * timed[int(0.99 * len(timed))], 4)
