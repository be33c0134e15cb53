"""Database updates — a prototype for the paper's open question (2).

Section 9 asks whether the evaluation machinery can support updates; [16]
achieved this for FOC(P) on bounded-degree classes.  The locality analysis
suggests the natural algorithm: the value ``u^A[a]`` of a unary basic
cl-term depends only on the ball of radius

    D = evaluation_radius + psi_radius

around ``a`` (Lemma 6.1 for the counted tuples, plus psi's own locality).
Inserting or deleting one tuple can therefore only change the values of
elements within distance D of the touched entries.  One ball serves both
structures: the write changes Gaifman edges only between the tuple's own
entries, which are all BFS sources, and a shortest path from the source
set meets that set only at its start, so the radius-D ball around the
entries is the same before and after the write.  A 0-ary tuple has no
entries and lies in every neighbourhood, so writing one repairs the whole
universe.  On bounded-degree structures the affected set of any other
write has constant size, so the values cost constant time per update.

:class:`IncrementalUnaryCache` maintains ``u^A[a]`` for all ``a`` under
single-tuple insertions and deletions, recomputing only the affected
elements; the tests compare every state against full recomputation.
Structures stay immutable: a write derives a new version by
:meth:`Structure.with_tuple`, which copies only what the write changes.
The written relation, its patched indexes and projections and the
columnar view's neighbour tuples — the Gaifman adjacency the ball is read
from — each share the previous version's container and carry the write
in a small patch, folded once it passes the square root of the
container's size (:mod:`repro.structures.overlay`); a patched pool holds
a rebuild's members, perhaps in another order.  Releasing the previous
version frees its patches only.

The values come from the FOC1 engine's plan executor: the term's
``count_term()`` is compiled once, at construction, and each repair runs
the plan's ``unary_term_values`` on the new version for the affected
elements only, serially and with no fragment check.  For a term such as
the degree term, whose count the plan runs as a column kernel, a repair
reads the patched projection.  :meth:`IncrementalUnaryCache.verify` stays
on ball exploration (:func:`repro.core.local_eval.evaluate_basic_unary`)
over a rebuilt structure, an independent check of both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import FormulaError
from ..logic.predicates import PredicateCollection, standard_collection
from ..plan.compiler import compile_plan
from ..plan.executor import PlanExecutor
from ..robust.budget import EvaluationBudget
from ..structures.gaifman import ball, in_universe_order
from ..structures.structure import Element, Structure, Tup
from .clterms import BasicClTerm
from .local_eval import evaluate_basic_unary


@dataclass
class UpdateStats:
    """Bookkeeping for one maintained cache."""

    updates: int = 0
    recomputed_elements: int = 0

    def recompute_ratio(self, order: int) -> float:
        if self.updates == 0 or order == 0:
            # No updates, or an empty universe (nothing to recompute per
            # update): the ratio is 0 by convention, never a division crash.
            return 0.0
        return self.recomputed_elements / (self.updates * order)


class IncrementalUnaryCache:
    """Maintains ``u^A[a]`` for all ``a`` under single-tuple updates.

    Parameters
    ----------
    structure:
        The initial structure.
    term:
        A *unary* basic cl-term whose ``psi`` is genuinely
        ``psi_radius``-local (Definition 6.2's contract).
    predicates:
        The numerical predicate collection; the standard one when None.
    budget:
        Optional :class:`~repro.robust.budget.EvaluationBudget`: each
        repair ticks ``incremental.repair`` by the affected set's size,
        then the plan executor's ``evaluator.*`` steps.  A write that
        runs out leaves :attr:`values` and :attr:`structure` as they were.
    """

    def __init__(
        self,
        structure: Structure,
        term: BasicClTerm,
        predicates: "Optional[PredicateCollection]" = None,
        budget: "Optional[EvaluationBudget]" = None,
    ):
        if not term.unary:
            raise FormulaError("incremental maintenance needs a unary basic cl-term")
        self.term = term
        self.predicates = predicates
        self.budget = budget
        self.structure = structure
        self.stats = UpdateStats()
        self._dependency_radius = term.evaluation_radius() + term.psi_radius
        self._oracle = predicates if predicates is not None else standard_collection()
        self._plan = compile_plan(
            "unary_term", (term.count_term(),), (term.free_variable,), structure.signature
        )
        self.values: Dict[Element, int] = self._evaluate(structure, None)

    def _evaluate(
        self, structure: Structure, elements: "Optional[List[Element]]"
    ) -> Dict[Element, int]:
        """``u^A[a]`` for the listed elements (all when None), by the
        compiled plan."""
        executor = PlanExecutor(self._plan, structure, self._oracle, self.budget)
        return executor.unary_term_values(self.term.free_variable, elements)

    def value(self, element: Element) -> int:
        return self.values[element]

    def insert(self, relation: object, tup: Tup) -> None:
        """Insert a tuple into a relation (by symbol or name) and repair the
        affected values."""
        self._apply(relation, tup, present=True)

    def delete(self, relation: object, tup: Tup) -> None:
        """Delete a tuple from a relation (by symbol or name) and repair the
        affected values."""
        self._apply(relation, tup, present=False)

    def _apply(self, relation: object, tup: Tup, present: bool) -> None:
        old_structure = self.structure
        new_structure = old_structure.with_tuple(relation, tuple(tup), present)
        if new_structure is old_structure:
            return  # no-op update (tuple already present/absent)
        if tup:
            # The same ball in the old and the new structure (see the
            # module docstring).
            affected = in_universe_order(
                new_structure, ball(new_structure, tup, self._dependency_radius)
            )
        else:
            affected = list(new_structure.universe_order)
        # Compute first, commit after: a budget exhaustion mid-repair must
        # leave the cache at its pre-update (consistent) state, not with a
        # new structure and stale values.
        if self.budget is not None:
            self.budget.tick("incremental.repair", weight=len(affected))
        repaired = self._evaluate(new_structure, affected)
        self.structure = new_structure
        self.values.update(repaired)
        self.stats.updates += 1
        self.stats.recomputed_elements += len(affected)

    def verify(self) -> None:
        """Full recomputation check (test/debug helper); raises on mismatch.

        Recomputes by ball exploration on a structure rebuilt from the
        current relations, so neither the plan executor nor any cache that
        the writes derived (the columnar view's adjacency, the patched
        projections) takes part in the check.  The rebuild reads the
        relations through their patches, leaving no flattened copy cached
        on the current version.
        """
        current = self.structure
        rebuilt = Structure(
            current.signature,
            current.universe_order,
            {symbol: current.tuples(symbol) for symbol in current.signature},
        )
        fresh = evaluate_basic_unary(rebuilt, self.term, None, self.predicates)
        if fresh != self.values:
            broken = {
                a: (self.values.get(a), fresh[a])
                for a in fresh
                if self.values.get(a) != fresh[a]
            }
            raise AssertionError(f"incremental cache out of sync at {broken}")
