"""The FOC1(P) evaluation engine (Theorem 5.5 / Lemma 5.7 pipeline).

Since the plan-layer refactor the engine is a *facade* over
:mod:`repro.plan`: every public call canonicalises its input
(:func:`repro.plan.normalise.canonicalise`), fetches or compiles an
immutable :class:`~repro.plan.ir.QueryPlan` from the plan cache, and runs
it through a fresh :class:`~repro.plan.executor.PlanExecutor`.  The paper's
static analyses — stratification by #-depth (Theorem 6.10), counting-term
decomposition (Lemma 6.4), guard selection (Remark 6.3) — happen once per
distinct (normalised expression, signature, options) triple instead of
once per call; the runtime machinery (guarded enumeration, memoisation,
budgets, faults, metrics) lives in the shared executor.

The cache is keyed on the *canonicalised* AST, so alpha-equivalent queries
share a plan, and every node a plan retains is a compile-time deep copy —
caller ASTs are never pinned by the cache (see the memo-lifetime contract
in :mod:`repro.plan.executor`).

The brute-force oracle with the same API lives in
:mod:`repro.core.baseline`; it keeps the literal Definition 3.1 semantics
and no plan layer, which is exactly what makes it a useful differential
oracle.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from ..errors import EvaluationError
from ..logic.foc1 import assert_foc1
from ..logic.predicates import PredicateCollection, standard_collection
from ..logic.syntax import (
    Expression,
    Formula,
    Term,
    Variable,
    free_variables,
)
from ..obs import traced
from ..parallel import ParallelError
from ..plan.cache import PlanCache, default_plan_cache
from ..plan.compiler import compile_plan
from ..plan.executor import PlanExecutor
from ..plan.ir import PlanOptions, QueryPlan
from ..plan.normalise import canonicalise
from ..robust.budget import EvaluationBudget
from ..structures.signature import Signature
from ..structures.structure import Element, Structure
from .query import Foc1Query


class Foc1Evaluator:
    """Evaluator for FOC1(P) sentences, terms, counting, and queries.

    Parameters
    ----------
    predicates:
        The numerical predicate collection (the P-oracle).  Defaults to the
        paper's standard collection.
    use_factoring:
        Factor conjunctions into variable-disjoint components and multiply
        counts (the Lemma 6.4 product step).  Disable for ablation E10.
    use_guards:
        Generate candidates from relation indexes / balls instead of the
        whole universe (Remark 6.3).  Disable for ablation E10.
    check_fragment:
        Verify inputs are in FOC1(P) and raise
        :class:`~repro.errors.FragmentError` otherwise.  The check is the
        contract of Theorem 5.5; disable only to experiment with the
        (intractable) full logic.
    budget:
        Optional :class:`~repro.robust.budget.EvaluationBudget` consumed
        cooperatively by the hot loops (memo misses, guarded enumeration,
        predicate materialisation).  Exhaustion raises
        :class:`~repro.errors.BudgetExceededError`; Section 4's hardness
        results mean dense/adversarial inputs *will* need this.
    plan_cache:
        The :class:`~repro.plan.cache.PlanCache` compiled plans are stored
        in.  Defaults to the process-wide shared cache, so repeated and
        cross-engine evaluations of the same query reuse one plan; pass a
        private instance to isolate (benchmarks do).
    workers:
        ``None`` or 1: every entry point runs inline, whatever
        ``REPRO_WORKERS`` says; any other value raises
        :class:`~repro.parallel.ParallelError`.  The process fan-outs are
        :func:`~repro.core.cover_eval.evaluate_per_cluster` and the
        sampler (see ``docs/PARALLEL.md``).
    """

    def __init__(
        self,
        predicates: "Optional[PredicateCollection]" = None,
        use_factoring: bool = True,
        use_guards: bool = True,
        check_fragment: bool = True,
        budget: "Optional[EvaluationBudget]" = None,
        plan_cache: "Optional[PlanCache]" = None,
        workers: "Optional[int]" = None,
    ):
        if workers not in (None, 1):
            raise ParallelError(
                f"this engine runs inline; workers must be None or 1, got "
                f"{workers!r} (evaluate_per_cluster and the sampler fan out)"
            )
        self.predicates = predicates if predicates is not None else standard_collection()
        self.use_factoring = use_factoring
        self.use_guards = use_guards
        self.check_fragment = check_fragment
        self.budget = budget
        self.plan_cache = plan_cache if plan_cache is not None else default_plan_cache()

    # -- compile-once plumbing ----------------------------------------------------

    def _plan(
        self,
        kind: str,
        expressions: Sequence[Expression],
        variables: Sequence[Variable],
        structure: Structure,
    ) -> QueryPlan:
        """Fetch (or compile) the plan for one engine operation.

        The cache key is built from the canonicalised expressions, so
        alpha-equivalent inputs share an entry and the key never references
        caller AST objects.
        """
        return self._plan_for_signature(
            kind, expressions, variables, structure.signature
        )

    def _plan_for_signature(
        self,
        kind: str,
        expressions: Sequence[Expression],
        variables: Sequence[Variable],
        signature: Signature,
    ) -> QueryPlan:
        """The signature-keyed core of :meth:`_plan` — what batch entry
        points use to compile once and execute across many structures."""
        options = PlanOptions(self.use_factoring, self.use_guards)
        canon = tuple(canonicalise(e) for e in expressions)
        key: Hashable = (
            kind,
            canon,
            tuple(variables),
            signature,
            options,
        )
        return self.plan_cache.get_or_compile(
            key,
            lambda: compile_plan(
                kind, canon, tuple(variables), signature, options
            ),
        )

    def _executor(self, plan: QueryPlan, structure: Structure) -> PlanExecutor:
        return PlanExecutor(plan, structure, self.predicates, self.budget)

    # -- public API --------------------------------------------------------------

    @traced("foc1.model_check")
    def model_check(self, structure: Structure, sentence: Formula) -> bool:
        """Decide ``A |= phi`` for an FOC1(P) sentence."""
        if free_variables(sentence):
            raise EvaluationError("model_check expects a sentence; use count()")
        if self.check_fragment:
            assert_foc1(sentence)
        plan = self._plan("model_check", (sentence,), (), structure)
        return self._executor(plan, structure).model_check()

    @traced("foc1.ground_term_value")
    def ground_term_value(self, structure: Structure, term: Term) -> int:
        """Compute ``t^A`` for a ground FOC1(P) counting term."""
        if free_variables(term):
            raise EvaluationError("ground_term_value expects a ground term")
        if self.check_fragment:
            assert_foc1(term)
        plan = self._plan("ground_term", (term,), (), structure)
        return self._executor(plan, structure).ground_term_value()

    @traced("foc1.unary_term_values")
    def unary_term_values(
        self,
        structure: Structure,
        term: Term,
        variable: Variable,
        elements: "Optional[Sequence[Element]]" = None,
    ) -> Dict[Element, int]:
        """``t^A[a]`` for all ``a`` (the simultaneous evaluation of Lemma 5.7's
        stronger form); a target outside the universe is an error."""
        extra = free_variables(term) - {variable}
        if extra:
            raise EvaluationError(f"term has unexpected free variables {sorted(extra)}")
        if self.check_fragment:
            assert_foc1(term)
        plan = self._plan("unary_term", (term,), (variable,), structure)
        targets = list(structure.universe_order if elements is None else elements)
        for element in targets if elements is not None else ():
            if element not in structure:
                raise EvaluationError(
                    f"assignment sends {variable!r} to {element!r}, "
                    "which is outside the universe"
                )
        return self._executor(plan, structure).unary_term_values(variable, targets)

    @traced("foc1.count_many")
    def count_many(
        self,
        structures: Sequence[Structure],
        formula: Formula,
        variables: Sequence[Variable],
    ) -> List[int]:
        """``|phi(A_i)|`` for a batch of structures — one plan, many inputs.

        The formula is validated once and compiled once per *distinct
        signature* in the batch (plans are structure-independent, so a
        homogeneous batch reuses a single compiled plan for every input);
        the inputs then run inline, in input order, each on a fresh
        executor.
        """
        structures = list(structures)
        missing = free_variables(formula) - set(variables)
        if missing:
            raise EvaluationError(f"free variables {sorted(missing)} not listed")
        if len(set(variables)) != len(variables):
            raise EvaluationError("count variables must be pairwise distinct")
        if self.check_fragment:
            assert_foc1(formula)
        plans = [
            self._plan_for_signature(
                "count", (formula,), tuple(variables), s.signature
            )
            for s in structures
        ]
        return [
            self._executor(plan, s).count_value()
            for plan, s in zip(plans, structures)
        ]

    @traced("foc1.count")
    def count(
        self, structure: Structure, formula: Formula, variables: Sequence[Variable]
    ) -> int:
        """The counting problem: ``|phi(A)|`` over the listed variables
        (Corollary 5.6)."""
        missing = free_variables(formula) - set(variables)
        if missing:
            raise EvaluationError(f"free variables {sorted(missing)} not listed")
        if len(set(variables)) != len(variables):
            raise EvaluationError("count variables must be pairwise distinct")
        if self.check_fragment:
            assert_foc1(formula)
        plan = self._plan("count", (formula,), tuple(variables), structure)
        return self._executor(plan, structure).count_value()

    def solutions(
        self, structure: Structure, formula: Formula, variables: Sequence[Variable]
    ) -> Iterator[Tuple[Element, ...]]:
        """Enumerate ``phi(A)`` using guarded enumeration."""
        missing = free_variables(formula) - set(variables)
        if missing:
            raise EvaluationError(f"free variables {sorted(missing)} not listed")
        if self.check_fragment:
            assert_foc1(formula)
        plan = self._plan("solutions", (formula,), tuple(variables), structure)
        yield from self._executor(plan, structure).solutions()

    @traced("foc1.evaluate_query")
    def evaluate_query(self, structure: Structure, query: Foc1Query) -> List[Tuple]:
        """``q(A)`` for an FOC1(P)-query (Definition 5.2)."""
        if self.check_fragment:
            query.validate_foc1()
        plan = self._plan(
            "query",
            (query.condition, *query.head_terms),
            query.head_variables,
            structure,
        )
        return self._executor(plan, structure).query_rows()
