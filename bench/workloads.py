"""The four benchmark workloads; ``run.py`` runs each in its own process.

Usage (normally through ``run.py``, which sets ``PYTHONPATH`` and the
environment)::

    python3 bench/workloads.py --workload scaling --seed 1 --seconds 20 \\
        --trace 0 --result bench/out/scaling.json

Each workload generates its inputs from the seed (not timed), sets up
``SETUP_REPEATS`` times (``setup_s`` is the import time plus the median
set-up), measures for ``--seconds`` and checks every answer against the
closed forms in ``oracles.py``.  With ``--trace 1`` it measures half the
time untraced and half with the layer wrappers of ``spans.py`` installed,
and reports per-layer metrics instead of end-to-end ones.

Every reported time is rescaled to nominal machine speed by the gauge
of ``gauge.py``.
"""

from __future__ import annotations

import time

import gauge

# The imports are part of set-up; the gauge brackets them.
_IMPORT_GAUGE = gauge.Gauge()
_IMPORT_START = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from typing import Callable, Dict, List, Optional, Tuple  # noqa: E402

import repro  # noqa: E402
from repro.approx.planner import DEFAULT_MIN_DENSITY  # noqa: E402
from repro.core.clterms import BasicClTerm  # noqa: E402
from repro.core.incremental import IncrementalUnaryCache  # noqa: E402
from repro.core.local_eval import evaluate_basic_unary  # noqa: E402
from repro.core.main_algorithm import (  # noqa: E402
    MainAlgorithmStats,
    evaluate_unary_main_algorithm,
)
from repro.obs import collect_metrics, hit_rate  # noqa: E402
from repro.serve import AdmissionError, QueryRequest, QueryService, TenantQuota  # noqa: E402
from repro.sparse.covers import sparse_cover  # noqa: E402

IMPORT_S = (time.perf_counter() - _IMPORT_START) * gauge.Gauge.factor(
    _IMPORT_GAUGE.probe(3), _IMPORT_GAUGE.probe(3)
)

import inputs  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 3


# -- small helpers -----------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def loglog_slope(points: List[Tuple[float, float]]) -> float:
    """Least-squares exponent of time against size over (size, time) points."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


class Tally:
    """Attempted and failed operations; keeps the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)


def op_span(recorder: "Optional[spans.Recorder]"):
    """A root ``op`` span around one benchmark operation when tracing."""
    return recorder.op("op") if recorder is not None else nullcontext()


def build(edge_list) -> repro.Structure:
    vertices, edges = edge_list
    structure = repro.graph_structure(vertices, edges)
    structure.columnar()
    return structure


Op = Tuple[tuple, Callable[[], object], Callable[[object], bool]]


def run_ops(
    ops: List[Op], seconds: float, recorder, tally: Tally, speed: gauge.Gauge
) -> Dict[tuple, List[float]]:
    """Cycle a fixed op list until ``seconds`` pass, finishing at least one
    full pass.  ``ops`` holds ``(label, thunk, check)``; returns the
    rescaled time samples per label."""
    samples: Dict[tuple, List[float]] = {label: [] for label, _, _ in ops}
    deadline = time.perf_counter() + seconds
    first_pass = True
    while first_pass or time.perf_counter() < deadline:
        for label, thunk, check in ops:
            if not first_pass and time.perf_counter() >= deadline:
                break
            with op_span(recorder):
                start = time.perf_counter()
                value = thunk()
                speed.add(samples[label], time.perf_counter() - start)
            tally.check(check(value), repr(label))
        first_pass = False
    speed.flush()
    return samples


def medians(samples: Dict[tuple, List[float]]) -> Dict[tuple, float]:
    return {label: statistics.median(ts) for label, ts in samples.items()}


# -- scaling -----------------------------------------------------------------------


class Scaling:
    """Foc1Evaluator on grid, random-tree and max-degree-3 graphs at three
    sizes, plus a dense G(n, 1/2) control; three fixed queries."""

    def __init__(self, seed: int):
        p = inputs.PARAMS["scaling"]
        self.cases = [
            (family, n, inputs.make_graph(family, n, seed, "scaling"))
            for family in p["families"]
            for n in p["sizes"]
        ] + [("dense", n, inputs.make_graph("dense", n, seed, "scaling")) for n in p["dense_sizes"]]
        self.expected = []
        for _, _, edge_list in self.cases:
            nbrs = inputs.adjacency(edge_list)
            self.expected.append(
                {
                    "paths2": oracles.paths2(nbrs),
                    "census4": oracles.census_eq(oracles.degree_census(nbrs), 4),
                    "high_nbrs": oracles.high_nbrs(nbrs, 2),
                }
            )

    @staticmethod
    def call(engine, structure, queries, op):
        if op == "paths2":
            return engine.count(structure, queries[op], ["x", "y", "z"])
        if op == "census4":
            return engine.ground_term_value(structure, queries[op])
        return engine.unary_term_values(structure, queries[op], "x")

    def setup(self):
        queries = {
            "paths2": repro.parse_formula(inputs.SCALING_QUERIES["paths2"]),
            "census4": repro.parse_term(inputs.SCALING_QUERIES["census4"]),
            "high_nbrs": repro.parse_term(inputs.SCALING_QUERIES["high_nbrs"]),
        }
        structures = [build(edge_list) for _, _, edge_list in self.cases]
        engine = repro.Foc1Evaluator(plan_cache=repro.PlanCache(), workers=1)
        smallest = min(structures, key=lambda s: s.size())
        for op in queries:  # warm-up compile of the three plans
            self.call(engine, smallest, queries, op)
        return engine, queries, structures

    def run(self, state, seconds, recorder, tally, speed):
        engine, queries, structures = state
        ops = [
            (
                (family, n, op, structure.size()),
                lambda s=structure, op=op: self.call(engine, s, queries, op),
                lambda value, want=expected[op]: value == want,
            )
            for (family, n, _), structure, expected in zip(self.cases, structures, self.expected)
            for op in inputs.PARAMS["scaling"]["ops"]
        ]
        samples = run_ops(ops, seconds, recorder, tally, speed)
        typical = medians(samples)
        slopes = {}
        for family in dict.fromkeys(family for family, _, _ in self.cases):
            for op in inputs.PARAMS["scaling"]["ops"]:
                points = [(k[3], t) for k, t in typical.items() if k[0] == family and k[2] == op]
                slopes[f"{family}.{op}"] = loglog_slope(points)
        sparse = {k: t for k, t in typical.items() if k[0] != "dense"}
        per_op = list(typical.values())
        return {
            "throughput": sum(k[3] for k in sparse) / sum(sparse.values()),
            "latency_p50_ms": 1000 * percentile(per_op, 50),
            "latency_p90_ms": 1000 * percentile(per_op, 90),
            "work_cost": sum(per_op),
            "extras": {
                "slope": statistics.median(v for k, v in slopes.items() if not k.startswith("dense")),
                "slope_dense": statistics.median(v for k, v in slopes.items() if k.startswith("dense")),
                "slopes": slopes,
                "dense_control_s": sum(t for k, t in typical.items() if k[0] == "dense"),
                "passes": min(len(ts) for ts in samples.values()),
            },
        }


# -- cover-main --------------------------------------------------------------------


def cover_terms() -> Dict[str, BasicClTerm]:
    """The Section 8.2 degree term and a 3-variable path term."""
    return {
        "degree": BasicClTerm(
            ("y1", "y2"), repro.parse_formula("E(y1, y2)"), 0, 1, frozenset({(1, 2)}), unary=True
        ),
        "path": BasicClTerm(
            ("y1", "y2", "y3"),
            repro.parse_formula("E(y1, y2) & E(y2, y3) & !(y1 = y3)"),
            0,
            1,
            frozenset({(1, 2), (2, 3)}),
            unary=True,
        ),
    }


def confinement(term: BasicClTerm) -> int:
    """The cover radius the main algorithm uses for ``term``."""
    return term.evaluation_radius() + max(term.psi_radius, term.link_distance)


class CoverMain:
    """The Section 8.2 main algorithm against ball exploration, plus direct
    Theorem 8.1 cover construction, on the three sparse families."""

    def __init__(self, seed: int):
        p = inputs.PARAMS["cover-main"]
        self.cases = [
            (family, n, inputs.make_graph(family, n, seed, "cover"))
            for family in p["families"]
            for n in p["sizes"]
        ]
        self.warm_graph = inputs.make_graph("grid", 64, seed, "cover-warm")
        self.expected = []
        for _, _, edge_list in self.cases:
            nbrs = inputs.adjacency(edge_list)
            self.expected.append({"degree": oracles.degrees(nbrs), "path": oracles.path_term(nbrs)})

    def main(self, structure, term, cache, stats=None):
        return evaluate_unary_main_algorithm(
            structure, term, depth=1, plan_cache=cache, workers=1, stats=stats
        )

    def setup(self):
        terms = cover_terms()
        structures = [build(edge_list) for _, _, edge_list in self.cases]
        cache = repro.PlanCache()
        warm = build(self.warm_graph)
        for term in terms.values():  # warm-up compile of the rewritten sub-terms
            self.main(warm, term, cache)
        return terms, structures, cache

    def run(self, state, seconds, recorder, tally, speed):
        terms, structures, cache = state
        stats = MainAlgorithmStats()
        covers = {}
        ops = []
        for (family, n, _), structure, expected in zip(self.cases, structures, self.expected):
            for name, term in terms.items():
                key = (family, n, name, structure.size())
                check = lambda value, want=expected[name]: value == want  # noqa: E731
                ops.append(
                    (("main",) + key, lambda s=structure, t=term: self.main(s, t, cache, stats), check)
                )
                ops.append((("ball",) + key, lambda s=structure, t=term: evaluate_basic_unary(s, t), check))

                def cover(s=structure, t=term, key=key):
                    covers[key] = sparse_cover(s, confinement(t))
                    return covers[key]

                ops.append((("cover",) + key, cover, lambda value: len(value.clusters) > 0))
        samples = run_ops(ops, seconds, recorder, tally, speed)
        for key, cover in covers.items():  # untimed: the covers satisfy Theorem 8.1
            try:
                cover.verify()
                ok = True
            except repro.ReproError:
                ok = False
            tally.check(ok, f"cover {key}")
        typical = medians(samples)
        main = {k[1:]: t for k, t in typical.items() if k[0] == "main"}
        ball = {k[1:]: t for k, t in typical.items() if k[0] == "ball"}
        sizes = inputs.PARAMS["cover-main"]["sizes"]
        over_ball = {
            f"main_over_ball.n{n}": sum(t for k, t in main.items() if k[1] == n)
            / sum(t for k, t in ball.items() if k[1] == n)
            for n in sizes
        }
        slopes = [
            loglog_slope([(k[3], t) for k, t in main.items() if k[0] == family and k[2] == name])
            for family in inputs.PARAMS["cover-main"]["families"]
            for name in terms
        ]
        return {
            "throughput": sum(k[3] for k in main) / sum(main.values()),
            "latency_p50_ms": 1000 * percentile(list(main.values()), 50),
            "latency_p90_ms": 1000 * percentile(list(main.values()), 90),
            "work_cost": sum(main.values()),
            "extras": {
                **over_ball,
                "slope_main": statistics.median(slopes),
                "cover_s": sum(t for k, t in typical.items() if k[0] == "cover"),
                "cover_max_degree": max(cover.max_degree() for cover in covers.values()),
                "clusters_processed": stats.clusters_processed,
                "removals": stats.removals,
                "passes": min(len(ts) for ts in samples.values()),
            },
        }


# -- update-stream -----------------------------------------------------------------


class UpdateStream:
    """Single-tuple writes through IncrementalUnaryCache with a foc1 read
    of the current structure version after every ``read_every`` writes.
    The latency unit is that client cycle: ``read_every`` writes, then the
    read."""

    READ = "#(x). @eq(#(y). E(x, y), 4)"

    def __init__(self, seed: int):
        self.seed = seed
        self.params = inputs.PARAMS["update-stream"]
        self.graph = inputs.make_graph("bd3", self.params["n"], seed, "update")

    def setup(self):
        structure = build(self.graph)
        term = cover_terms()["degree"]
        cache = IncrementalUnaryCache(structure, term)
        read = repro.parse_term(self.READ)
        engine = repro.Foc1Evaluator(plan_cache=repro.PlanCache(), workers=1)
        engine.ground_term_value(structure, read)  # warm-up compile
        return cache, read, engine

    def run(self, state, seconds, recorder, tally, speed):
        cache, read, engine = state
        p = self.params
        out = {v: set(ns) for v, ns in inputs.adjacency(self.graph).items()}
        census = oracles.degree_census(out)
        stream = inputs.update_stream(self.graph, self.seed, p["warm_inserts"], p["insert_share"])
        writes: List[float] = []
        reads: List[float] = []
        cycles: List[float] = []
        cycle: List[float] = []
        pending_writes = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            kind, (u, v) = next(stream)
            census[len(out[u])] -= 1
            (out[u].add if kind == "insert" else out[u].discard)(v)
            census[len(out[u])] += 1
            with op_span(recorder):
                start = time.perf_counter()
                if kind == "insert":
                    cache.insert("E", (u, v))
                else:
                    cache.delete("E", (u, v))
                speed.add(cycle, time.perf_counter() - start)
            tally.check(cache.value(u) == len(out[u]), f"write {kind} {(u, v)}")
            pending_writes += 1
            if pending_writes == p["read_every"]:
                with op_span(recorder):
                    start = time.perf_counter()
                    value = engine.ground_term_value(cache.structure, read)
                    speed.add(reads, time.perf_counter() - start)
                speed.flush()
                tally.check(value == census[4], f"read after write {len(writes) + len(cycle)}")
                cycles.append(sum(cycle) + reads[-1])
                writes.extend(cycle)
                cycle, pending_writes = [], 0
        speed.flush()
        writes.extend(cycle)
        try:  # untimed: full recomputation agrees with the maintained values
            cache.verify()
            ok = cache.values == {v: len(ns) for v, ns in out.items()}
        except AssertionError:
            ok = False
        tally.check(ok, "final verify")
        return {
            "throughput": (len(writes) + len(reads)) / (sum(writes) + sum(reads)),
            "latency_p50_ms": 1000 * percentile(cycles, 50),
            "latency_p90_ms": 1000 * percentile(cycles, 90),
            "work_cost": (sum(writes) + sum(reads)) / (len(writes) + len(reads)),
            "extras": {
                "writes": len(writes),
                "reads": len(reads),
                "write_p50_ms": 1000 * percentile(writes, 50),
                "write_p99_ms": 1000 * percentile(writes, 99),
                "read_p50_ms": 1000 * percentile(reads, 50),
                "read_p90_ms": 1000 * percentile(reads, 90),
                "recomputed_per_write": cache.stats.recomputed_elements / max(1, cache.stats.updates),
            },
        }


# -- serve-mix ---------------------------------------------------------------------


class ServeMix:
    """QueryService: four zipf tenants over a zipf query catalogue larger
    than the plan cache, eight sparse graphs and one dense graph; an
    open-loop phase, then a closed-loop phase.

    The service gets one executor thread: with the event-loop thread that
    makes two, the machine's core count, and on a GIL interpreter a second
    executor thread adds handoff jitter rather than throughput.
    """

    def __init__(self, seed: int):
        self.params = p = inputs.PARAMS["serve-mix"]
        # Fixed shapes, relabelled per seed: how many requests cross the
        # quantum depends on the graphs' shapes, and the seed should move
        # the traffic, not the preemption share.
        shapes = [inputs.make_graph(f, n, 0, "serve") for f, n in p["sparse"]]
        shapes.append(inputs.make_graph("dense", p["dense_n"], 0, "serve"))
        self.graphs = [inputs.relabelled(g, seed, f"serve{i}") for i, g in enumerate(shapes)]
        self.nbrs = [inputs.adjacency(g) for g in self.graphs]
        self.census = [oracles.degree_census(nbrs) for nbrs in self.nbrs]
        self.catalogue = inputs.serve_catalogue(p["thresholds"], p["alpha_variants"])
        self.requests = inputs.serve_requests(seed, p["max_requests"], p, self.catalogue)
        self.gaps = inputs.arrival_gaps(seed, p["max_requests"], p["open_rate_rps"])
        self._answers: Dict[tuple, object] = {}

    def expected(self, entry: Dict, target: int):
        key = (entry["template"], entry["k"], target)
        if key not in self._answers:
            nbrs, census, k = self.nbrs[target], self.census[target], entry["k"]
            self._answers[key] = {
                "paths2": lambda: oracles.paths2(nbrs),
                "census_eq": lambda: oracles.census_eq(census, k),
                "census_gt": lambda: oracles.census_gt(census, k),
                "high_nbrs": lambda: oracles.high_nbrs(nbrs, k),
                "exists_gt": lambda: oracles.exists_gt(census, k),
                "heavy_ends": lambda: oracles.heavy_ends(nbrs, k),
            }[entry["template"]]()
        return self._answers[key]

    def correct(self, response, entry: Dict, target: int) -> bool:
        if response.status != "ok":
            return False
        want = self.expected(entry, target)
        if not response.approximate:
            return response.value == want
        # The sampler's contract: additive error epsilon * floor, where the
        # floor is at least the count and at least min_density * space.
        space = len(self.nbrs[target]) ** max(1, len(entry["variables"]))
        floor = max(want, DEFAULT_MIN_DENSITY * space)
        return abs(response.value - want) <= self.params["epsilon"] * floor

    def setup(self):
        structures = [build(g) for g in self.graphs]
        cache = repro.PlanCache()
        engine = repro.Foc1Evaluator(plan_cache=cache, workers=1)
        warm = structures[-1]  # the small dense graph: compiling is the point
        for entry in reversed(self.catalogue[: self.params["warm_entries"]]):
            self.execute(engine, warm, entry)
        return structures, cache

    @staticmethod
    def execute(engine, structure, entry):
        text, operation = entry["text"], entry["operation"]
        if operation == "count":
            return engine.count(structure, repro.parse_formula(text), entry["variables"])
        if operation == "term":
            return engine.ground_term_value(structure, repro.parse_term(text))
        if operation == "unary":
            return engine.unary_term_values(structure, repro.parse_term(text), entry["variable"])
        return engine.model_check(structure, repro.parse_formula(text))

    def run(self, state, seconds, recorder, tally, speed):
        return asyncio.run(self._run(state, seconds, tally, speed))

    async def _run(self, state, seconds, tally, speed):
        structures, cache = state
        p = self.params
        service = QueryService(
            workers=1,
            eval_workers=1,
            quantum_steps=p["quantum_steps"],
            quota=TenantQuota(max_inflight=512, max_queue=512),
            max_total_inflight=2048,
            degrade_cost_threshold=p["degrade_cost_threshold"],
            epsilon=p["epsilon"],
            delta=p["delta"],
            plan_cache=cache,
        )
        responses = []
        sheds = 0
        loop = asyncio.get_running_loop()
        timeline = gauge.Timeline()

        async def watch():
            while True:
                timeline.sample(loop.time())
                await asyncio.sleep(p["gauge_every_s"])

        async def one(spec: Dict, due: float) -> Optional[float]:
            """Submit one request; its latency from ``due`` in nominal time."""
            nonlocal sheds
            entry = self.catalogue[spec["entry"]]
            request = QueryRequest(
                tenant=spec["tenant"],
                operation=entry["operation"],
                structure=structures[spec["target"]],
                expression=entry["text"],
                variables=tuple(entry["variables"]),
                variable=entry["variable"],
                request_id=spec["id"],
                seed=spec["seed"],
            )
            try:
                response = await service.submit(request)
            except AdmissionError:
                sheds += 1
                tally.check(False, f"shed {spec['id']}")
                return None
            responses.append(response)
            tally.check(self.correct(response, entry, spec["target"]), f"answer {spec['id']}")
            return timeline.nominal(due, loop.time())

        # Open loop: the seeded gaps are nominal time, stretched by the
        # current slowdown, so the offered load per unit of work holds on a
        # slow machine.  Closed loop: ``clients`` callers back to back.
        open_count = int(p["open_rate_rps"] * p["open_share"] * seconds)
        async with service:
            watcher = loop.create_task(watch())
            await asyncio.sleep(0)
            due, tasks, lateness = loop.time(), [], []
            for spec, gap in zip(self.requests[:open_count], self.gaps):
                due += gap * timeline.slowdowns[-1]
                if due > loop.time():
                    await asyncio.sleep(due - loop.time())
                lateness.append(loop.time() - due)
                tasks.append(loop.create_task(one(spec, due)))
            open_latency = [t for t in await asyncio.gather(*tasks) if t is not None]

            closed_start = loop.time()
            deadline = time.perf_counter() + (1 - p["open_share"]) * seconds
            queue = iter(self.requests[open_count:])

            async def client() -> int:
                done = 0
                for spec in queue:
                    if await one(spec, loop.time()) is not None:
                        done += 1
                    if time.perf_counter() >= deadline:
                        break
                return done

            completed = sum(await asyncio.gather(*(client() for _ in range(p["clients"]))))
            closed_s = timeline.nominal(closed_start, loop.time())
            watcher.cancel()
            try:
                await watcher
            except asyncio.CancelledError:
                pass
        total = max(1, len(responses))
        return {
            "throughput": completed / closed_s,
            "latency_p50_ms": 1000 * percentile(open_latency, 50),
            "latency_p90_ms": 1000 * percentile(open_latency, 90),
            "work_cost": closed_s / max(1, completed),
            "extras": {
                "open_requests": open_count,
                "closed_requests": completed,
                "generator_late_max_ms": 1000 * max(lateness, default=0.0),
                "queue_wait_p50_ms": 1000 * percentile([r.queue_wait_s for r in responses], 50),
                "slowdown_serving": statistics.median(timeline.slowdowns),
                "quanta_per_request": sum(r.quanta for r in responses) / total,
                "preempted_ratio": sum(r.quanta > 1 for r in responses) / total,
                "degraded_ratio": sum(r.approximate for r in responses) / total,
                "batched_ratio": sum(r.batched for r in responses) / total,
                "shed_ratio": sheds / (len(responses) + sheds or 1),
                "plan_cache": cache.stats(),
            },
        }


WORKLOADS = {
    "scaling": Scaling,
    "cover-main": CoverMain,
    "update-stream": UpdateStream,
    "serve-mix": ServeMix,
}


# -- one run ---------------------------------------------------------------------


#: Per-layer metrics read from a workload's extras, 0 where the workload
#: has no such figure: metric name -> extras key.  Ratios of op times come
#: from the untraced half of a traced run, so the wrappers do not skew them.
UNTRACED_EXTRAS = {
    "scaling.slope": "slope",
    "scaling.slope_dense": "slope_dense",
    "core.main_over_ball.n256": "main_over_ball.n256",
    "core.main_over_ball.n1024": "main_over_ball.n1024",
}
TRACED_EXTRAS = {
    "sparse.cover_max_degree": "cover_max_degree",
    "core.recomputed_per_write": "recomputed_per_write",
    "serve.queue_wait_p50_ms": "queue_wait_p50_ms",
    "serve.quanta_per_request": "quanta_per_request",
    "serve.preempted_ratio": "preempted_ratio",
    "serve.degraded_ratio": "degraded_ratio",
    "serve.batched_ratio": "batched_ratio",
    "serve.shed_ratio": "shed_ratio",
}


def measure(name: str, seed: int, seconds: float, trace: bool, spans_path: str) -> Dict:
    workload = WORKLOADS[name](seed)
    speed = gauge.Gauge()
    setups = []
    for _ in range(SETUP_REPEATS):
        before = speed.probe()
        start = time.perf_counter()
        state = workload.setup()
        elapsed = time.perf_counter() - start
        setups.append(elapsed * speed.factor(before, speed.probe()))
    tally = Tally()
    if not trace:
        result = workload.run(state, seconds, None, tally, speed)
        metrics = {
            "throughput": result["throughput"],
            "latency_p50_ms": result["latency_p50_ms"],
            "latency_p90_ms": result["latency_p90_ms"],
            "setup_s": IMPORT_S + statistics.median(setups),
        }
        extras = dict(result["extras"], slowdown=speed.slowdown())
        return {"tally": tally, "metrics": metrics, "extras": extras}

    untraced = workload.run(state, seconds / 2, None, tally, speed)
    state = workload.setup()
    recorder = spans.Recorder()
    with collect_metrics() as registry, spans.Patches(recorder, (__name__,)):
        traced = workload.run(state, seconds / 2, recorder, tally, speed)
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    recorder.write_jsonl(spans_path)
    metrics = spans.layer_report(recorder, ("op", "serve.quantum"))
    metrics["trace_overhead_ratio"] = traced["work_cost"] / untraced["work_cost"]
    metrics.update(counter_metrics(registry.snapshot()["counters"]))
    for metric, key in UNTRACED_EXTRAS.items():
        metrics[metric] = untraced["extras"].get(key, 0.0)
    for metric, key in TRACED_EXTRAS.items():
        metrics[metric] = traced["extras"].get(key, 0.0)
    extras = dict(traced["extras"], slowdown=speed.slowdown())
    return {"tally": tally, "metrics": metrics, "extras": extras, "spans_dropped": recorder.dropped}


def counter_metrics(counters: Dict[str, int]) -> Dict[str, float]:
    """Per-table hit ratios (0 when a table saw no lookups) and counts from
    the program's own counters."""

    def ratio(prefix: str) -> float:
        rate = hit_rate(counters.get(f"{prefix}.hit", 0), counters.get(f"{prefix}.miss", 0))
        return rate if rate is not None else 0.0

    return {
        "plan.cache_hit_ratio": ratio("plan.cache"),
        "plan.holds_memo_hit_ratio": ratio("evaluator.holds.memo"),
        "plan.count_memo_hit_ratio": ratio("evaluator.count.memo"),
        "structures.ball_memo_hit_ratio": ratio("local.ball.memo"),
        "approx.samples": counters.get("approx.samples", 0),
        "sparse.cover_clusters": counters.get("cover.clusters", 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    args = parser.parse_args(argv)
    spans_path = os.path.splitext(args.result)[0] + ".spans.jsonl"
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), spans_path)
    tally = outcome.pop("tally")
    outcome.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        attempted=tally.attempted,
        failed=tally.failed,
        failure_notes=tally.notes,
    )
    if not args.trace:
        outcome["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as handle:
        json.dump(outcome, handle, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
