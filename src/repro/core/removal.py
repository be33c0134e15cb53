"""The Removal Lemma (Section 7.3): the structure surgery ``A astrix_r d``
and the matching formula/term transformations of Lemmas 7.8 and 7.9.

Removing an element ``d`` from a structure must preserve enough information
to re-evaluate formulas that used to talk about ``d``:

* each relation ``R`` splits into relations ``R~_I`` recording, for every
  set ``I`` of argument positions, the projections of the ``R``-tuples whose
  entries equalled ``d`` exactly at the positions in ``I``;
* unary relations ``S_i`` (i = 1..r) record the elements at distance <= i
  from ``d`` *in the original structure*, so distance atoms survive.

Lemma 7.8 then rewrites any FO+ formula ``phi(x-bar)`` and any set ``V`` of
variables pinned to ``d`` into ``phi~_V`` over the new signature, with
``A |= phi[a-bar]  iff  A astrix_r d |= phi~_V[a-bar minus V]``; Lemma 7.9
lifts this to basic counting terms.  This is the recursion step of the main
algorithm (Section 8.2, step 5c-e), where ``d`` is Splitter's move.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..errors import FormulaError, UniverseError
from ..obs import traced
from ..robust.faults import fault_check
from ..logic.syntax import (
    And,
    Atom,
    Bottom,
    CountTerm,
    DistAtom,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    Variable,
    disjunction,
    subexpressions,
)
from ..structures.gaifman import in_universe_order
from ..structures.signature import RelationSymbol, Signature
from ..structures.structure import Element, Structure


def removed_relation_name(base: str, positions: FrozenSet[int]) -> str:
    """Deterministic name for ``R~_I`` (1-based positions)."""
    if not positions:
        return f"{base}__rm"
    return f"{base}__rm_" + "_".join(str(i) for i in sorted(positions))


def distance_marker_name(i: int) -> str:
    """Name for the unary relation ``S_i``."""
    return f"S__{i}"


@lru_cache(maxsize=64)
def removed_signature(signature: Signature, radius: int) -> Signature:
    """``sigma~_r``: all ``R~_I`` plus the distance markers ``S_1..S_r``
    (memoised: the main algorithm asks once per cluster)."""
    symbols: List[RelationSymbol] = []
    for symbol in signature:
        if symbol.arity == 0:
            symbols.append(RelationSymbol(removed_relation_name(symbol.name, frozenset()), 0))
            continue
        positions = range(1, symbol.arity + 1)
        for size in range(symbol.arity + 1):
            for subset in itertools.combinations(positions, size):
                symbols.append(
                    RelationSymbol(
                        removed_relation_name(symbol.name, frozenset(subset)),
                        symbol.arity - size,
                    )
                )
    for i in range(1, radius + 1):
        symbols.append(RelationSymbol(distance_marker_name(i), 1))
    return Signature(symbols)


@traced("removal.surgery")
def remove_element(
    structure: Structure,
    element: Element,
    radius: int,
    within: "Optional[Iterable[Element]]" = None,
) -> Structure:
    """``A astrix_r d`` — computable in linear time for fixed signature and r.

    ``within`` names a cluster ``X`` (``None``: the whole universe) and
    makes the result ``A[X] astrix_r d``, equal to
    ``remove_element(induced(A, X), d, r)`` but built straight from ``A``'s
    per-position indexes, without building ``A[X]``: one pass over the
    tuples that touch ``X`` keeps those inside ``X``, the tuples holding
    ``d`` go to the ``R~_I`` of the positions ``I`` that hold it, and the
    markers ``S_i`` come from a BFS from ``d`` over the tuples inside
    ``X``.  ``A``'s own Gaifman adjacency restricted to ``X`` would not do
    for the BFS: a tuple of arity >= 3 that leaves ``X`` can be the only
    witness of an edge between two members of ``X``.
    """
    fault_check("removal.surgery")
    if within is None:
        members = structure.universe_order
        inside = structure.universe
    else:
        members = in_universe_order(structure, within)
        inside = set(members)
    if element not in inside:
        raise UniverseError(f"{element!r} is not in the universe")
    if len(members) < 2:
        raise UniverseError("removal needs a structure of order >= 2")
    is_inside = inside.issuperset

    relations: Dict[str, Iterable[Tuple[Element, ...]]] = {}
    edge_indexes = []
    for symbol in structure.signature:
        if symbol.arity == 0:
            relations[removed_relation_name(symbol.name, frozenset())] = (
                structure.relation(symbol)
            )
            continue
        indexes = [structure.index(symbol, p) for p in range(symbol.arity)]
        if symbol.arity > 1:
            edge_indexes.extend(indexes)
        pinned = {
            tup
            for index in indexes
            for tup in index.get(element, ())
            if is_inside(tup)
        }
        for tup in pinned:
            positions = frozenset(
                i + 1 for i, entry in enumerate(tup) if entry == element
            )
            relations.setdefault(
                removed_relation_name(symbol.name, positions), set()
            ).add(tuple(entry for entry in tup if entry != element))
        first = indexes[0]
        rest = {tup for a in members for tup in first.get(a, ()) if is_inside(tup)}
        rest -= pinned
        relations[removed_relation_name(symbol.name, frozenset())] = rest

    # S_i: the elements at distance 1..i from d in A[X].
    seen = {element}
    frontier = [element]
    for i in range(1, radius + 1):
        following = []
        for a in frontier:
            for index in edge_indexes:
                for tup in index.get(a, ()):
                    if is_inside(tup):
                        for b in tup:
                            if b not in seen:
                                seen.add(b)
                                following.append(b)
        frontier = following
        relations[distance_marker_name(i)] = [(b,) for b in seen if b != element]
    # Every tuple is one of A's, restricted to X minus d, so the result
    # skips the constructor's per-tuple validation.
    signature = removed_signature(structure.signature, radius)
    resolved = {
        symbol: frozenset(relations.get(symbol.name, ())) for symbol in signature
    }
    universe = tuple(a for a in members if a != element)
    return Structure.__new__(Structure)._fill(signature, universe, resolved)


# ---------------------------------------------------------------------------
# Lemma 7.8: formula transformation
# ---------------------------------------------------------------------------


def removal_formula(formula: Formula, pinned: FrozenSet[Variable], radius: int) -> Formula:
    """``phi~_V``: rewrite an FO+ formula for evaluation in ``A astrix_r d``.

    ``pinned`` is the set V of variables whose assigned value is the removed
    element d.  Every distance atom's bound must be <= radius (the q-rank
    bookkeeping of Section 7 guarantees this in the paper's pipeline).
    """
    for node in subexpressions(formula):
        if isinstance(node, DistAtom) and node.bound > radius:
            raise FormulaError(
                f"distance bound {node.bound} exceeds the removal radius {radius}"
            )
    return _rewrite(formula, frozenset(pinned), radius)


def _rewrite(formula: Formula, pinned: FrozenSet[Variable], radius: int) -> Formula:
    if isinstance(formula, Atom):
        positions = frozenset(
            i + 1 for i, arg in enumerate(formula.args) if arg in pinned
        )
        kept = tuple(arg for arg in formula.args if arg not in pinned)
        return Atom(removed_relation_name(formula.relation, positions), kept)
    if isinstance(formula, Eq):
        in_left = formula.left in pinned
        in_right = formula.right in pinned
        if in_left and in_right:
            return Top()
        if in_left or in_right:
            return Bottom()
        return formula
    if isinstance(formula, DistAtom):
        in_left = formula.left in pinned
        in_right = formula.right in pinned
        bound = formula.bound
        if in_left and in_right:
            return Top()
        if in_left:
            if bound == 0:
                return Bottom()  # x2 != d, so dist(d, x2) >= 1
            return Atom(distance_marker_name(bound), (formula.right,))
        if in_right:
            if bound == 0:
                return Bottom()
            return Atom(distance_marker_name(bound), (formula.left,))
        options: List[Formula] = [formula]
        for i1 in range(1, bound):
            i2 = bound - i1
            options.append(
                And(
                    Atom(distance_marker_name(i1), (formula.left,)),
                    Atom(distance_marker_name(i2), (formula.right,)),
                )
            )
        return disjunction(options)
    if isinstance(formula, (Top, Bottom)):
        return formula
    if isinstance(formula, Not):
        return Not(_rewrite(formula.inner, pinned, radius))
    if isinstance(formula, Or):
        return Or(
            _rewrite(formula.left, pinned, radius),
            _rewrite(formula.right, pinned, radius),
        )
    if isinstance(formula, And):
        return And(
            _rewrite(formula.left, pinned, radius),
            _rewrite(formula.right, pinned, radius),
        )
    if isinstance(formula, Implies):
        return Implies(
            _rewrite(formula.left, pinned, radius),
            _rewrite(formula.right, pinned, radius),
        )
    if isinstance(formula, Iff):
        return Iff(
            _rewrite(formula.left, pinned, radius),
            _rewrite(formula.right, pinned, radius),
        )
    if isinstance(formula, Exists):
        # The witness is either d itself or an element that survives.
        with_d = _rewrite(formula.inner, pinned | {formula.variable}, radius)
        without_d = Exists(
            formula.variable,
            _rewrite(formula.inner, pinned - {formula.variable}, radius),
        )
        return Or(with_d, without_d)
    if isinstance(formula, Forall):
        with_d = _rewrite(formula.inner, pinned | {formula.variable}, radius)
        without_d = Forall(
            formula.variable,
            _rewrite(formula.inner, pinned - {formula.variable}, radius),
        )
        return And(with_d, without_d)
    raise FormulaError(
        f"removal transformation is defined for FO+; found {type(formula).__name__}"
    )


# ---------------------------------------------------------------------------
# Lemma 7.9: term transformation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RemovedGroundTerm:
    """One summand ``#(x-bar minus I). phi~_I`` of Lemma 7.9(a)."""

    variables: Tuple[Variable, ...]
    formula: Formula

    def count_term(self) -> CountTerm:
        return CountTerm(self.variables, self.formula)


@dataclass(frozen=True)
class RemovedUnaryTerm:
    """One unary summand of Lemma 7.9(b): free variable plus counted rest."""

    free_variable: Variable
    variables: Tuple[Variable, ...]
    formula: Formula

    def count_term(self) -> CountTerm:
        return CountTerm(self.variables, self.formula)


def removal_ground_term(
    variables: Sequence[Variable], body: Formula, radius: int
) -> List[RemovedGroundTerm]:
    """Lemma 7.9(a): ``g^A = sum_i g_hat_i^{A astrix_r d}`` for
    ``g = #(variables). body``."""
    parts: List[RemovedGroundTerm] = []
    names = list(variables)
    for size in range(len(names) + 1):
        for subset in itertools.combinations(range(len(names)), size):
            pinned = frozenset(names[i] for i in subset)
            kept = tuple(name for name in names if name not in pinned)
            parts.append(
                RemovedGroundTerm(kept, removal_formula(body, pinned, radius))
            )
    return parts


def removal_unary_term(
    free_variable: Variable,
    counted: Sequence[Variable],
    body: Formula,
    radius: int,
) -> Tuple[List[RemovedGroundTerm], List[RemovedUnaryTerm]]:
    """Lemma 7.9(b) for ``u(x1) = #(counted). body``:

    * at ``a = d``: ``u^A[d] = sum of the ground parts`` in ``A astrix_r d``
      (these pin x1, and possibly some counted variables, to d);
    * at ``a != d``: ``u^A[a] = sum of the unary parts at a``.
    """
    ground_parts: List[RemovedGroundTerm] = []
    unary_parts: List[RemovedUnaryTerm] = []
    names = list(counted)
    for size in range(len(names) + 1):
        for subset in itertools.combinations(range(len(names)), size):
            pinned_counted = frozenset(names[i] for i in subset)
            kept = tuple(name for name in names if name not in pinned_counted)
            # Case a = d: x1 is pinned too.
            ground_parts.append(
                RemovedGroundTerm(
                    kept,
                    removal_formula(
                        body, pinned_counted | {free_variable}, radius
                    ),
                )
            )
            # Case a != d: x1 stays free.
            unary_parts.append(
                RemovedUnaryTerm(
                    free_variable,
                    kept,
                    removal_formula(body, pinned_counted, radius),
                )
            )
    return ground_parts, unary_parts
