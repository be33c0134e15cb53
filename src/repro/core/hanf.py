"""Hanf-type evaluation on bounded-degree structures — the [16] baseline.

Kuske and Schweikardt's fixed-parameter *linear* algorithm for FOC(P) on
bounded-degree classes rests on Hanf normal form: the value of an r-local
unary term at ``a`` depends only on the isomorphism type of the pointed
r-neighbourhood ``(N_r(a), a)``, and on bounded-degree structures only a
constant number of such types occur.

This module implements the operational core of that idea:

* :func:`neighbourhood_type_census` — partition the universe into classes
  of elements with isomorphic pointed r-neighbourhoods (cheap invariant
  buckets refined by exact isomorphism, which is affordable precisely
  because bounded degree keeps balls small);
* :func:`evaluate_basic_unary_hanf` — evaluate a unary basic cl-term once
  per type and broadcast, instead of once per element.

On a degree-<= d structure the number of types is a function of (d, r)
only, so the census pass is the whole cost — the paper's Section 1 summary
of [16] made executable.  The tests check type-soundness (same type =>
same value) and agreement with element-wise evaluation; benchmark E8
measures the speedup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import FormulaError
from ..logic.predicates import PredicateCollection
from ..structures.gaifman import ball, distances_from, induced
from ..structures.operations import are_isomorphic, relabel
from ..structures.structure import Element, Structure
from .clterms import BasicClTerm
from .local_eval import evaluate_basic_unary


@dataclass(frozen=True)
class PointedBall:
    """The r-neighbourhood of an element with the element distinguished."""

    structure: Structure
    centre: Element

    def invariant(self) -> Tuple:
        """A cheap isomorphism invariant for pre-bucketing: order, relation
        sizes, sorted distance-degree profile, and the centre's profile."""
        view = self.structure.columnar()
        layers = distances_from(self.structure, [self.centre])
        profile = tuple(
            sorted(
                (layers.get(a, -1), view.degree(i))
                for i, a in enumerate(view.interner.elements)
            )
        )
        relation_sizes = tuple(
            sorted((s.name, len(rel)) for s, rel in self.structure.relations().items())
        )
        return (
            self.structure.order(),
            relation_sizes,
            profile,
            view.degree(view.interner.id_of(self.centre)),
        )

    def isomorphic_to(self, other: "PointedBall", limit: int) -> bool:
        """Exact pointed isomorphism: relabel both centres to a reserved
        marker so any isomorphism must map centre to centre."""
        if self.structure.order() != other.structure.order():
            return False

        def pin(ball_: "PointedBall") -> Structure:
            return relabel(
                ball_.structure,
                lambda v, centre=ball_.centre: ("CENTRE",) if v == centre else ("o", v),
            )

        left = _mark_centre(pin(self))
        right = _mark_centre(pin(other))
        return are_isomorphic(left, right, limit=limit)


def _mark_centre(structure: Structure) -> Structure:
    """Add a unary relation holding exactly the centre marker element."""
    from ..structures.operations import expansion
    from ..structures.signature import Signature

    if "CentreMark" in structure.signature:
        return structure
    return expansion(
        structure,
        Signature.of(CentreMark=1),
        {"CentreMark": [(("CENTRE",),)]},
    )


@dataclass
class TypeCensus:
    """The outcome of a neighbourhood-type census."""

    radius: int
    #: one representative element per type
    representatives: List[Element]
    #: element -> index into representatives
    assignment: Dict[Element, int]

    def class_sizes(self) -> List[int]:
        sizes = [0] * len(self.representatives)
        for index in self.assignment.values():
            sizes[index] += 1
        return sizes


def neighbourhood_type_census(
    structure: Structure,
    radius: int,
    iso_limit: int = 16,
) -> TypeCensus:
    """Partition elements by the isomorphism type of their pointed
    r-neighbourhood.

    ``iso_limit`` caps the ball size for which exact isomorphism testing is
    attempted; larger balls fall back to invariant-only classes, which can
    only *split* true types (never merge them), keeping downstream
    evaluation sound at the cost of fewer shared computations.
    """
    if radius < 0:
        raise FormulaError("radius must be non-negative")
    buckets: Dict[Tuple, List[Tuple[Element, PointedBall]]] = {}
    for element in structure.universe_order:
        region = ball(structure, [element], radius)
        pointed = PointedBall(induced(structure, region), element)
        buckets.setdefault(pointed.invariant(), []).append((element, pointed))

    representatives: List[Element] = []
    assignment: Dict[Element, int] = {}
    for _, members in sorted(buckets.items(), key=lambda kv: repr(kv[0])):
        classes: List[Tuple[PointedBall, int]] = []
        for element, pointed in members:
            placed = False
            if pointed.structure.order() <= iso_limit:
                for class_ball, class_index in classes:
                    if class_ball.structure.order() <= iso_limit and pointed.isomorphic_to(
                        class_ball, iso_limit
                    ):
                        assignment[element] = class_index
                        placed = True
                        break
            if not placed:
                index = len(representatives)
                representatives.append(element)
                classes.append((pointed, index))
                assignment[element] = index
    return TypeCensus(radius, representatives, assignment)


def evaluate_basic_unary_hanf(
    structure: Structure,
    term: BasicClTerm,
    predicates: "Optional[PredicateCollection]" = None,
    iso_limit: int = 16,
) -> Dict[Element, int]:
    """Evaluate ``u^A[a]`` for all ``a`` by computing one value per
    neighbourhood type (the [16] strategy).

    Sound because the term's value at ``a`` is determined by the pointed
    ball of radius ``evaluation_radius + psi_radius`` around ``a``
    (Lemma 6.1 plus psi's locality).
    """
    if not term.unary:
        raise FormulaError("Hanf evaluation needs a unary basic cl-term")
    dependency_radius = term.evaluation_radius() + term.psi_radius
    census = neighbourhood_type_census(structure, dependency_radius, iso_limit)
    per_type = evaluate_basic_unary(
        structure, term, census.representatives, predicates
    )
    return {
        element: per_type[census.representatives[index]]
        for element, index in census.assignment.items()
    }
