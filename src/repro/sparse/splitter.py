"""The (rho, r)-splitter game of Section 8.

A class is nowhere dense iff for every radius r there is a bound lambda(r)
such that Splitter wins the (lambda(r), r)-game on every member.  The game
engine here plays Connector against Splitter on the Gaifman graph of a
structure and reports how many rounds Splitter needed — the empirical
quantity benchmark E6 sweeps: bounded on sparse families, ~n on cliques.

Both players are pluggable strategies.  The shipped Splitter strategies are
sound (always legal) and the engine verifies every move, so a buggy strategy
raises instead of corrupting measurements.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..errors import ReproError
from ..structures.structure import Element, Structure

Adjacency = Dict[Element, FrozenSet[Element]]

#: A strategy gets (adjacency of current graph, its vertex set, extra info)
#: and returns a vertex.  Connector picks any vertex; Splitter picks inside
#: the ball handed to it.
ConnectorStrategy = Callable[[Adjacency, Tuple[Element, ...]], Element]
SplitterStrategy = Callable[[Adjacency, Tuple[Element, ...], Element, FrozenSet[Element]], Element]


class SplitterGameError(ReproError):
    """A strategy made an illegal move."""


def _subgraph(adjacency: Adjacency, vertices: Set[Element]) -> Adjacency:
    return {
        v: frozenset(w for w in adjacency[v] if w in vertices)
        for v in adjacency
        if v in vertices
    }


def _ball(adjacency: Adjacency, centre: Element, radius: int) -> FrozenSet[Element]:
    seen = {centre}
    frontier = deque([(centre, 0)])
    while frontier:
        node, dist = frontier.popleft()
        if dist >= radius:
            continue
        for neighbour in adjacency[node]:
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append((neighbour, dist + 1))
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def connector_max_ball(radius: int) -> ConnectorStrategy:
    """Adversarial Connector: picks the vertex with the largest r-ball,
    i.e. keeps the game alive as long as possible against naive Splitters."""

    def strategy(adjacency: Adjacency, vertices: Tuple[Element, ...]) -> Element:
        best = None
        best_size = -1
        for vertex in vertices:
            size = len(_ball(adjacency, vertex, radius))
            if size > best_size:
                best = vertex
                best_size = size
        assert best is not None
        return best

    return strategy


def connector_first() -> ConnectorStrategy:
    """Deterministic cheap Connector: the first vertex in order."""

    def strategy(adjacency: Adjacency, vertices: Tuple[Element, ...]) -> Element:
        return vertices[0]

    return strategy


def splitter_take_connector() -> SplitterStrategy:
    """Splitter removes Connector's own vertex — the simplest sound strategy
    (wins on trees and more, in possibly many rounds)."""

    def strategy(
        adjacency: Adjacency,
        vertices: Tuple[Element, ...],
        connector_vertex: Element,
        ball_vertices: FrozenSet[Element],
    ) -> Element:
        return connector_vertex

    return strategy


def splitter_ball_centre() -> SplitterStrategy:
    """Splitter removes a most-central vertex of the ball: the vertex of the
    ball minimising its eccentricity *within the induced ball subgraph*.

    Intuition: central vertices separate the ball into smaller pieces,
    mirroring the inductive strategy in [13]'s nowhere-dense proof.
    """

    def strategy(
        adjacency: Adjacency,
        vertices: Tuple[Element, ...],
        connector_vertex: Element,
        ball_vertices: FrozenSet[Element],
    ) -> Element:
        ball_adjacency = _subgraph(adjacency, set(ball_vertices))
        best = connector_vertex
        best_score = None
        for candidate in sorted(ball_vertices, key=repr):
            # eccentricity of candidate within the ball subgraph
            seen = {candidate: 0}
            frontier = deque([candidate])
            while frontier:
                node = frontier.popleft()
                for neighbour in ball_adjacency[node]:
                    if neighbour not in seen:
                        seen[neighbour] = seen[node] + 1
                        frontier.append(neighbour)
            reached = len(seen)
            eccentricity = max(seen.values()) if seen else 0
            # Prefer reaching everything (connected view), then low eccentricity,
            # then high degree (a separator heuristic).
            score = (-reached, eccentricity, -len(ball_adjacency[candidate]))
            if best_score is None or score < best_score:
                best_score = score
                best = candidate
        return best

    return strategy


def splitter_max_degree() -> SplitterStrategy:
    """Splitter removes the highest-degree vertex of the ball (hub removal)."""

    def strategy(
        adjacency: Adjacency,
        vertices: Tuple[Element, ...],
        connector_vertex: Element,
        ball_vertices: FrozenSet[Element],
    ) -> Element:
        ball_adjacency = _subgraph(adjacency, set(ball_vertices))
        return max(
            sorted(ball_vertices, key=repr),
            key=lambda v: len(ball_adjacency[v]),
        )

    return strategy


# ---------------------------------------------------------------------------
# Game engine
# ---------------------------------------------------------------------------


@dataclass
class SplitterGameResult:
    """Outcome of one play of the (rounds_limit, radius)-splitter game."""

    radius: int
    rounds_played: int
    splitter_won: bool
    history: List[Tuple[Element, Element]] = field(default_factory=list)
    #: Size of the game graph at the start of each round (diagnostics).
    graph_sizes: List[int] = field(default_factory=list)


def play_splitter_game(
    structure: Structure,
    radius: int,
    rounds_limit: int,
    splitter: "Optional[SplitterStrategy]" = None,
    connector: "Optional[ConnectorStrategy]" = None,
) -> SplitterGameResult:
    """Play the (rounds_limit, radius)-splitter game on the Gaifman graph.

    Returns after Splitter wins (the ball minus her pick is empty) or after
    ``rounds_limit`` rounds (Connector wins).  Every move is validated.
    """
    if radius < 0:
        raise SplitterGameError("radius must be non-negative")
    if rounds_limit < 1:
        raise SplitterGameError("the game needs at least one round")
    splitter = splitter or splitter_ball_centre()
    connector = connector or connector_max_ball(radius)

    view = structure.columnar()
    elements = view.interner.elements
    adjacency: Adjacency = {
        elements[i]: frozenset(elements[j] for j in view.neighbours(i))
        for i in range(view.n)
    }
    vertices: Tuple[Element, ...] = tuple(structure.universe_order)
    result = SplitterGameResult(radius=radius, rounds_played=0, splitter_won=False)

    for _ in range(rounds_limit):
        result.graph_sizes.append(len(vertices))
        connector_vertex = connector(adjacency, vertices)
        if connector_vertex not in set(vertices):
            raise SplitterGameError("Connector picked a vertex outside the game graph")
        ball_vertices = _ball(adjacency, connector_vertex, radius)
        splitter_vertex = splitter(adjacency, vertices, connector_vertex, ball_vertices)
        if splitter_vertex not in ball_vertices:
            raise SplitterGameError("Splitter must pick inside Connector's ball")
        result.history.append((connector_vertex, splitter_vertex))
        result.rounds_played += 1
        remaining = set(ball_vertices) - {splitter_vertex}
        if not remaining:
            result.splitter_won = True
            return result
        adjacency = _subgraph(adjacency, remaining)
        vertices = tuple(v for v in vertices if v in remaining)
    return result


def rounds_needed(
    structure: Structure,
    radius: int,
    rounds_cap: "Optional[int]" = None,
    splitter: "Optional[SplitterStrategy]" = None,
    connector: "Optional[ConnectorStrategy]" = None,
) -> int:
    """Rounds our Splitter strategy needs to win; ``rounds_cap`` (default
    |A| + 1, which always suffices for the take-connector strategy on finite
    graphs where balls shrink) bounds the play."""
    cap = rounds_cap if rounds_cap is not None else structure.order() + 1
    result = play_splitter_game(structure, radius, cap, splitter, connector)
    if not result.splitter_won:
        return cap
    return result.rounds_played
