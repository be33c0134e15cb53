"""Seeded inputs for the benchmark: graphs, query texts, streams, schedules.

Everything here is plain data built with ``random.Random(seed)``: edge
lists, query strings, write streams and arrival gaps.  Nothing imports
``repro``; the workloads hand the generated edge lists to
``repro.graph_structure`` themselves, so the program under test never sees
the benchmark's generators.  The same seed gives byte-identical inputs
(``test_bench.py`` checks it).

The frozen workload parameters live in ``PARAMS``.  They were calibrated
once against the benchmark's per-run time budget and must not be changed
by a change that claims a gain.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator, List, Sequence, Tuple

Edge = Tuple[int, int]
Graph = Tuple[List[int], List[Edge]]

PARAMS: Dict[str, Dict] = {
    "scaling": {
        "families": ("grid", "tree", "bd3"),
        "sizes": (1000, 2000, 4000),
        "dense_sizes": (20, 40, 80),
        "ops": ("paths2", "census4", "high_nbrs"),
    },
    "cover-main": {
        "families": ("grid", "tree", "bd3"),
        "sizes": (256, 1024),
    },
    "update-stream": {
        "n": 4000,
        "warm_inserts": 200,
        "insert_share": 0.5,
        "read_every": 20,
    },
    "serve-mix": {
        "sparse": (
            ("grid", 144), ("grid", 150), ("grid", 156),
            ("tree", 144), ("tree", 150), ("tree", 156),
            ("bd3", 144), ("bd3", 156),
        ),
        "dense_n": 16,
        "tenants": 4,
        "thresholds": 60,
        "alpha_variants": 2,
        "zipf_s": 1.1,
        "open_rate_rps": 22.0,
        "open_share": 0.75,
        "clients": 2,
        "gauge_every_s": 0.1,
        "max_requests": 4000,
        "block": 96,
        "warm_entries": 128,
        "quantum_steps": 3100,
        "degrade_cost_threshold": 1000.0,
        "epsilon": 0.1,
        "delta": 0.01,
    },
}

#: The scaling workload's three queries.
SCALING_QUERIES = {
    "paths2": "E(x, y) & E(y, z) & !(x = z)",
    "census4": "#(x). @eq(#(y). E(x, y), 4)",
    "high_nbrs": "#(y). (E(x, y) & @gt(#(z). E(y, z), 2))",
}

#: serve-mix templates: name -> (operation, text, counted variable slots or
#: the unary slot).  ``{a}``/``{b}``/``{c}`` are variable slots, renamed per
#: variant, and ``{k}`` is a threshold.
SERVE_TEMPLATES = {
    "paths2": ("count", "E({a}, {b}) & E({b}, {c}) & !({a} = {c})", "abc"),
    "census_eq": ("term", "#({a}). @eq(#({b}). E({a}, {b}), {k})", ""),
    "census_gt": ("term", "#({a}). @gt(#({b}). E({a}, {b}), {k})", ""),
    "high_nbrs": ("unary", "#({b}). (E({a}, {b}) & @gt(#({c}). E({b}, {c}), {k}))", "a"),
    "exists_gt": ("check", "exists {a}. @gt(#({b}). E({a}, {b}), {k})", ""),
    "heavy_ends": ("count", "E({a}, {b}) & @leq({k}, #({c}). E({b}, {c}))", "ab"),
}

#: Popularity ranks of the paths2 variants in the serve-mix catalogue.
PATHS2_RANKS = (2, 20)

_VARIABLE_SETS = (("x", "y", "z"), ("u", "v", "w"))


# -- graph families ------------------------------------------------------------


def grid(n: int, rng: random.Random) -> Graph:
    """A rows x cols grid (rows = floor(sqrt n)) with shuffled labels."""
    rows = max(1, int(math.isqrt(n)))
    cols = max(1, n // rows)
    labels = list(range(rows * cols))
    rng.shuffle(labels)
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((labels[v], labels[v + 1]))
            if i + 1 < rows:
                edges.append((labels[v], labels[v + cols]))
    rng.shuffle(edges)
    return list(range(rows * cols)), edges


def tree(n: int, rng: random.Random) -> Graph:
    """A random recursive tree: vertex i hangs off a uniform earlier vertex."""
    return list(range(n)), [(i, rng.randrange(i)) for i in range(1, n)]


def bd3(n: int, rng: random.Random) -> Graph:
    """A random simple graph of maximum degree 3 (random pairing, 3n tries)."""
    degree = [0] * n
    edges = set()
    for _ in range(3 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u == v or degree[u] >= 3 or degree[v] >= 3 or key in edges:
            continue
        edges.add(key)
        degree[u] += 1
        degree[v] += 1
    return list(range(n)), sorted(edges)


def dense(n: int, rng: random.Random) -> Graph:
    """G(n, 1/2)."""
    return list(range(n)), [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]


FAMILIES = {"grid": grid, "tree": tree, "bd3": bd3, "dense": dense}


def make_graph(family: str, n: int, seed: int, salt: str) -> Graph:
    """One graph, seeded by (seed, family, n, salt) so inputs are independent."""
    return FAMILIES[family](n, random.Random(f"{seed}:{salt}:{family}:{n}"))


def relabelled(graph: Graph, seed: int, salt: str) -> Graph:
    """An isomorphic copy: a seeded permutation of the vertex labels and a
    seeded edge order."""
    rng = random.Random(f"{seed}:{salt}:relabel")
    vertices, edges = graph
    image = list(vertices)
    rng.shuffle(image)
    label = dict(zip(vertices, image))
    edges = [(label[u], label[v]) for u, v in edges]
    rng.shuffle(edges)
    return list(vertices), edges


def adjacency(graph: Graph) -> Dict[int, set]:
    """Undirected neighbour sets of an edge list (the benchmark's own view)."""
    vertices, edges = graph
    neighbours: Dict[int, set] = {v: set() for v in vertices}
    for u, v in edges:
        if u != v:
            neighbours[u].add(v)
            neighbours[v].add(u)
    return neighbours


# -- update stream ----------------------------------------------------------------


def update_stream(
    graph: Graph, seed: int, warm_inserts: int, insert_share: float
) -> Iterator[Tuple[str, Edge]]:
    """An endless seeded stream of single directed ``E`` tuple writes.

    The first ``warm_inserts`` writes insert; after that each write inserts
    with probability ``insert_share`` and deletes otherwise.  Deletes pick a
    present tuple uniformly, inserts an absent ordered pair uniformly, so
    every write changes the structure (no no-op updates).
    """
    rng = random.Random(f"{seed}:stream")
    vertices, edges = graph
    present: List[Edge] = []
    for u, v in edges:
        present.extend(((u, v), (v, u)))
    slots = {tup: i for i, tup in enumerate(present)}
    written = 0
    while True:
        if written < warm_inserts or not present or rng.random() < insert_share:
            while True:
                u, v = rng.choice(vertices), rng.choice(vertices)
                if u != v and (u, v) not in slots:
                    break
            slots[(u, v)] = len(present)
            present.append((u, v))
            yield "insert", (u, v)
        else:
            i = rng.randrange(len(present))
            tup = present[i]
            last = present.pop()
            if i < len(present):
                present[i] = last
                slots[last] = i
            del slots[tup]
            yield "delete", tup
        written += 1


# -- serve-mix catalogue and traffic --------------------------------------------


def serve_catalogue(thresholds: int, variants: int) -> List[Dict]:
    """Distinct query texts: every template x threshold x alpha variant.

    Listed hottest first for the zipf draw, in a fixed shuffled order (the
    same for every seed), so popularity does not follow template or
    threshold; the tail far exceeds a 256-entry plan cache.
    """
    entries = []
    for k in range(thresholds):
        for variant in range(variants):
            names = _VARIABLE_SETS[variant % len(_VARIABLE_SETS)]
            slots = {"a": names[0], "b": names[1], "c": names[2]}
            for template, (operation, text, free) in SERVE_TEMPLATES.items():
                if template == "paths2" and k:
                    continue
                entries.append(
                    {
                        "template": template,
                        "operation": operation,
                        "text": text.format(k=k, **slots),
                        "k": k,
                        "variables": [slots[s] for s in free] if operation == "count" else [],
                        "variable": slots[free] if operation == "unary" else "",
                    }
                )
    random.Random("catalogue").shuffle(entries)
    # paths2 has no threshold, so only its alpha variants exist; keep them
    # in the head, or the dense graph would hardly ever see a count.
    paths = [e for e in entries if e["template"] == "paths2"]
    entries = [e for e in entries if e["template"] != "paths2"]
    for rank, entry in zip(PATHS2_RANKS, paths):
        entries.insert(rank, entry)
    return entries


def zipf_weights(count: int, s: float) -> List[float]:
    return [1.0 / (rank + 1) ** s for rank in range(count)]


def serve_requests(seed: int, count: int, params: Dict, catalogue: Sequence[Dict]) -> List[Dict]:
    """``count`` seeded requests: catalogue entry, target structure, tenant.

    The stream is built in blocks of ``params["block"]`` requests.  Each
    block takes catalogue entries by systematic sampling of the zipf
    weights from a seeded offset, so every entry, and every template,
    appears its expected number of times rounded up or down; within a block
    each template's requests go round-robin over the sparse graphs from a
    seeded start, and the block is shuffled.  Seeds then differ in order,
    tail entries, pairing and labels, not in the mix of (template, graph)
    classes, which keeps the service's load comparable across seeds.  ``paths2`` counts
    go to the dense graph: they are what the degradation policy's cost
    threshold is meant to send to the sampler (on the sparse graphs a
    preempted one takes tens of quanta, enough to stall the open loop).
    Tenants are zipf.
    """
    rng = random.Random(f"{seed}:serve")
    block = params["block"]
    weights = zipf_weights(len(catalogue), params["zipf_s"])
    scale = block / sum(weights)
    tenant_weights = zipf_weights(params["tenants"], 1.0)
    sparse_count = len(params["sparse"])
    requests: List[Dict] = []
    # Walking the entries grouped by template makes each template's count
    # per block fixed too, up to one.
    walk = sorted(range(len(catalogue)), key=lambda e: catalogue[e]["template"])
    while len(requests) < count:
        offset, mass, picks = rng.random(), 0.0, []
        for entry in walk:
            mass += weights[entry] * scale
            while len(picks) + offset < mass:
                picks.append(entry)
        start = rng.randrange(sparse_count)
        pairs = [
            (e, sparse_count if catalogue[e]["template"] == "paths2" else (start + i) % sparse_count)
            for i, e in enumerate(picks)
        ]
        rng.shuffle(pairs)
        for entry, target in pairs:
            requests.append(
                {
                    "id": f"r{len(requests)}",
                    "tenant": f"t{rng.choices(range(params['tenants']), tenant_weights)[0]}",
                    "entry": entry,
                    "target": target,
                    "seed": rng.randrange(1 << 30),
                }
            )
    return requests[:count]


def arrival_gaps(seed: int, count: int, rate: float) -> List[float]:
    """Poisson arrivals: seeded exponential gaps (seconds) at ``rate``/s."""
    rng = random.Random(f"{seed}:arrivals")
    return [rng.expovariate(rate) for _ in range(count)]
