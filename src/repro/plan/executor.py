"""The plan executor: runtime state for one structure, one plan.

:class:`ExecutionState` is the engine's evaluation machinery — memo
tables, ball caches, guarded enumeration, the predicate-elimination
pipeline — factored out of ``core/evaluator.py`` so that every engine
(the FOC1 evaluator, the Section 8.2 main algorithm, the robustness
cascade) runs queries through one instrumented code path.  It executes
in two modes:

* **planned** — a compiled :class:`~repro.plan.ir.QueryPlan` supplies the
  stratification steps and the Lemma 6.4 count DAG; the executor applies
  the materialisation steps in stratum order and dispatches counting
  through the plan's precompiled steps (``_execute_count_step``).  Memo
  tables survive across materialisation steps: the auxiliary relations
  are at most unary, so they add no Gaifman edges and invalidate neither
  ball caches nor prior satisfaction/count entries.
* **dynamic** — with no plan, the executor re-derives stratification and
  decomposition on the fly (``reduce_formula`` / ``_count``), preserving
  the pre-plan engine behaviour exactly; out-of-fragment inputs and the
  memo-lifetime tests exercise this path.

Budget ticks (``evaluator.materialise`` / ``evaluator.count`` /
``evaluator.enumerate`` / ``evaluator.holds``), fault-injection sites
(``predicate.oracle`` / ``memo.insert``) and all ``evaluator.*`` metrics
live here and only here.

Memo lifetime contract
----------------------
Atoms are tested in place, not memoised: ``R(x, y)``, ``x = y``,
``dist(x, y) <= d``, Top, Bottom and the negation of a relation atom or
an equality are decided by a membership probe on the relation's
frozenset, an equality, or a lookup in the state's cached ball.  All but
the distance atom compile once per node into a closure (:meth:`_test`)
over the relation's frozenset.  An atom test builds no memo key, stores
no entry, ticks no ``evaluator.holds`` step and reaches no
``memo.insert`` fault site; the per-candidate ``evaluator.enumerate``
tick of guarded enumeration still pays for every atom test, so a budget
bounds all work.  The closures capture the relation frozensets of the
current structure, so they are rebuilt after each materialisation step.
Guarded enumeration also skips the atom, equality or distance atom that
supplied a candidate pool once all its variables are bound: every
candidate already satisfies it.

Compound formulas, predicate atoms and counts go through the
satisfaction/count memos, which key on *alpha-canonical text*: the node
is canonicalised (:func:`~repro.plan.normalise.canonicalise` — bound
variables renamed ``_b0, _b1, ...``, free variables untouched) and
pretty-printed, so alpha-equivalent subterms share one entry — e.g.
``#(y). E(x, y)`` and ``#(z). E(x, z)`` hit the same count cell.  The
canonical text itself is expensive to compute, so it is cached per
``id(node)`` in ``_canon_memo`` (and, with the sorted free variables
whose bindings complete a count key, per ``(id(body), variables)`` in
``_count_key_memo``), and the rewrite nodes the dynamic paths fabricate —
``Not(inner)`` for a Forall, the ``And`` overlap of an Or — are cached
per ``id`` too (``_forall_memo`` / ``_overlap_memo``), so re-evaluating
a quantifier never mints fresh AST nodes whose ids would defeat every
id-keyed cache.

The id-keyed caches (the per-node tests included) are only sound while
the node object stays alive: CPython recycles ids, so an entry that
outlives its node can alias a *different* node created later.  The state
therefore pins every node that enters an id-keyed memo in ``_pins``
(id -> node), and pins are only ever dropped **together** with the memos,
via :meth:`_reset_memos`.  (Dropping the tests alone after a
materialisation step is safe: a pin without an entry only keeps a node
alive.)  States themselves
are scoped to one public engine call (facades create fresh states per
call and hold no reference afterwards), so repeated queries do not
accumulate memory across calls.  Plan-driven execution strengthens the
contract: every node a plan references is plan-owned (deep-copied at
compile time), so memo ids are stable for the lifetime of the cached
plan, never a caller's object.
"""

from __future__ import annotations

import hashlib
import itertools
from functools import partial
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import EvaluationError, FragmentError, SuspendedError
from ..logic.predicates import PredicateCollection
from ..logic.syntax import (
    Add,
    And,
    Atom,
    Bottom,
    CountTerm,
    DistAtom,
    Eq,
    Exists,
    Expression,
    Forall,
    Formula,
    Iff,
    Implies,
    IntTerm,
    Mul,
    Not,
    Or,
    PredicateAtom,
    Term,
    Top,
    Variable,
    free_variables,
    subexpressions,
)
from ..obs import active_metrics
from ..robust.budget import EvaluationBudget
from ..robust.checkpoint import StratumRecord, active_checkpoint_session
from ..robust.faults import fault_check
from ..structures.gaifman import ball as gaifman_ball
from ..structures.signature import RelationSymbol, Signature
from ..structures.structure import Element, Structure, Tup
from .ir import (
    CountComplement,
    CountConstant,
    CountDecomposition,
    CountInclusionExclusion,
    CountRewrite,
    CountStep,
    MaterialiseStep,
    QueryPlan,
)
from ..logic.printer import pretty
from .normalise import canonicalise, flatten_conjuncts, replace_atoms

__all__ = ["ExecutionState", "PlanExecutor"]

#: A compiled satisfaction test (see :meth:`ExecutionState._test`).
Test = Callable[[Dict[Variable, Element]], bool]


def _unassigned(error: KeyError) -> EvaluationError:
    return EvaluationError(f"free variable {error.args[0]!r} is not assigned")


class ExecutionState:
    """Evaluation state for one (possibly expanded) structure: memo tables,
    ball caches, the predicate-elimination pipeline, and — when a plan is
    attached — plan-step dispatch.  See the module docstring for the memo
    lifetime contract."""

    def __init__(
        self,
        structure: Structure,
        predicates: PredicateCollection,
        use_factoring: bool,
        use_guards: bool,
        budget: "Optional[EvaluationBudget]" = None,
        plan: "Optional[QueryPlan]" = None,
    ):
        self.structure = structure
        self.predicates = predicates
        self.use_factoring = use_factoring
        self.use_guards = use_guards
        self.budget = budget
        self.plan = plan
        self._plan_counts: Dict[int, CountStep] = plan.counts if plan is not None else {}
        self._metrics = active_metrics()
        self._holds_memo: Dict[Tuple, bool] = {}
        self._count_memo: Dict[Tuple, int] = {}
        self._free_memo: Dict[int, FrozenSet[Variable]] = {}
        # Pin every node that enters an id-keyed memo (id -> node, so a
        # node pinned through several memos is stored once).  Dropped
        # only together with the memos in _reset_memos().
        self._pins: Dict[int, Expression] = {}
        self._free_sorted_memo: Dict[int, Tuple[Variable, ...]] = {}
        self._conjunct_memo: Dict[int, List[Formula]] = {}
        # Alpha-canonical memo-key texts, cached per node identity (the
        # canonicalise + pretty walk is O(|node|); the id lookup is O(1)).
        self._canon_memo: Dict[int, str] = {}
        self._count_key_memo: Dict[
            Tuple[int, Tuple[Variable, ...]], Tuple[str, Tuple[Variable, ...]]
        ] = {}
        # Per-node satisfaction tests (in place for atoms, through the
        # memo otherwise); rebuilt whenever the structure is extended.
        self._tests: Dict[int, Test] = {}
        # Rewrite nodes the dynamic paths fabricate, cached per source
        # node so repeated evaluation reuses one object (and its memos).
        self._forall_memo: Dict[int, Not] = {}
        self._overlap_memo: Dict[int, And] = {}
        self._ball_caches: Dict[int, Dict[Element, FrozenSet[Element]]] = {}
        self._aux_counter = itertools.count()

    def _reset_memos(self) -> None:
        """Drop every id-keyed memo *and* its pins, atomically.

        Clearing the pins without the memos (or vice versa) would let a
        recycled id alias a stale entry; this is the only place either
        is cleared.
        """
        self._holds_memo.clear()
        self._count_memo.clear()
        self._free_memo.clear()
        self._free_sorted_memo.clear()
        self._conjunct_memo.clear()
        self._canon_memo.clear()
        self._count_key_memo.clear()
        self._tests.clear()
        self._forall_memo.clear()
        self._overlap_memo.clear()
        self._ball_caches.clear()
        self._pins.clear()

    # -- small caches ------------------------------------------------------------

    def free(self, node: Expression) -> FrozenSet[Variable]:
        key = id(node)
        cached = self._free_memo.get(key)
        if cached is None:
            cached = free_variables(node)
            self._free_memo[key] = cached
            self._pins[key] = node
        return cached

    def free_sorted(self, node: Expression) -> Tuple[Variable, ...]:
        key = id(node)
        cached = self._free_sorted_memo.get(key)
        if cached is None:
            cached = tuple(sorted(self.free(node)))
            self._free_sorted_memo[key] = cached
            self._pins[key] = node
        return cached

    def _conjuncts(self, formula: Formula) -> List[Formula]:
        key = id(formula)
        cached = self._conjunct_memo.get(key)
        if cached is None:
            cached = flatten_conjuncts(formula)
            self._conjunct_memo[key] = cached
            self._pins[key] = formula
        return cached

    def _canon_key(self, node: Expression) -> str:
        """The node's alpha-canonical text — the satisfaction-memo key.

        Canonicalisation preserves free-variable names and renames bound
        variables in traversal order, so two nodes share a key iff they
        are alpha-equivalent — which, for a fixed structure and fixed
        relevant bindings, implies the same memoised value.
        """
        key = id(node)
        cached = self._canon_memo.get(key)
        if cached is None:
            # Canonical text is a pure function of the (immutable) node,
            # so it can live on the node itself: plan-owned nodes are
            # shared by every session executing the cached plan, and the
            # attribute spares each new session the canonicalise walk.
            cached = getattr(node, "_canon_cache", None)
            if cached is None:
                cached = pretty(canonicalise(node))
                object.__setattr__(node, "_canon_cache", cached)
            self._canon_memo[key] = cached
            self._pins[key] = node
        return cached

    def _count_key(
        self, variables: Tuple[Variable, ...], body: Formula
    ) -> Tuple[str, Tuple[Variable, ...]]:
        """The fixed half of the count-memo key for ``#(variables). body``:
        its canonical text, and the sorted free variables of ``body``
        outside ``variables`` (whose bindings are the other half).

        Wrapping in a CountTerm before canonicalising folds the counted
        variables into the binder renaming, so ``#(y). E(x, y)`` and
        ``#(z). E(x, z)`` share one key.
        """
        key = (id(body), variables)
        cached = self._count_key_memo.get(key)
        if cached is None:
            by_vars = getattr(body, "_count_canon_cache", None)
            if by_vars is None:
                by_vars = {}
                object.__setattr__(body, "_count_canon_cache", by_vars)
            text = by_vars.get(variables)
            if text is None:
                text = pretty(canonicalise(CountTerm(variables, body)))
                by_vars[variables] = text
            cached = (text, tuple(sorted(self.free(body) - set(variables))))
            self._count_key_memo[key] = cached
            self._pins[id(body)] = body
        return cached

    def ball(self, element: Element, distance: int) -> FrozenSet[Element]:
        cache = self._ball_caches.setdefault(distance, {})
        cached = cache.get(element)
        if cached is None:
            # gaifman.ball picks the backend adaptively: the columnar BFS
            # kernel on a settled structure, the incrementally maintained
            # dict adjacency mid-update-sequence (see structures/gaifman.py).
            cached = gaifman_ball(self.structure, (element,), distance)
            cache[element] = cached
            if self._metrics is not None:
                self._metrics.inc("evaluator.ball.expansion")
        return cached

    def _extend(self, symbol: RelationSymbol, tuples: Iterable[Tup]) -> None:
        """Expand the structure by one auxiliary relation.

        Memos survive (aux relations are <=1-ary: no new Gaifman edges, no
        change to existing relations); the per-node tests captured the old
        structure's relations, so they are rebuilt on next use.
        """
        from ..structures.operations import expansion

        self.structure = expansion(
            self.structure, Signature([symbol]), {symbol.name: tuples}
        )
        self._tests.clear()

    # -- Theorem 6.10 stratification: planned path --------------------------------

    def apply_materialise_step(self, step: MaterialiseStep) -> Set[Tup]:
        """Execute one compiled materialisation step: evaluate the predicate
        atom everywhere and extend the structure by the plan's auxiliary
        relation.  Memos survive (aux relations are <=1-ary: no new Gaifman
        edges, no change to existing relations).  Returns the materialised
        tuples so callers (the checkpoint machinery) can record the stratum."""
        if step.symbol in self.structure.signature:
            raise EvaluationError(
                f"plan symbol {step.symbol!r} already present; "
                "was this plan compiled for a different signature?"
            )
        if step.arity == 0:
            values = tuple(self.term_value(t, {}) for t in step.terms)
            fault_check("predicate.oracle")
            holds = self.predicates.query(step.predicate, values)
            tuples: Set[Tup] = {()} if holds else set()
        else:
            assert step.variable is not None
            tuples = set()
            for element in self.structure.universe_order:
                if self.budget is not None:
                    self.budget.tick("evaluator.materialise")
                env = {step.variable: element}
                values = tuple(self.term_value(t, env) for t in step.terms)
                fault_check("predicate.oracle")
                if self.predicates.query(step.predicate, values):
                    tuples.add((element,))
        if self._metrics is not None:
            self._metrics.inc("evaluator.predicate.materialised")
        self._extend(RelationSymbol(step.symbol, step.arity), tuples)
        return tuples

    def apply_recorded_stratum(
        self, step: MaterialiseStep, tuples: Iterable[Tup]
    ) -> None:
        """Replay a checkpointed stratum: extend the structure by the
        recorded auxiliary relation without re-querying the predicate
        oracle and without paying budget ticks (the recording run already
        paid for this work — that is the whole point of resuming)."""
        if step.symbol in self.structure.signature:
            raise EvaluationError(
                f"plan symbol {step.symbol!r} already present; "
                "was this plan compiled for a different signature?"
            )
        if self._metrics is not None:
            self._metrics.inc("checkpoint.stratum.replayed")
        self._extend(RelationSymbol(step.symbol, step.arity), set(tuples))

    # -- Theorem 6.10 stratification: dynamic path --------------------------------

    def reduce_formula(self, formula: Formula) -> Tuple[Structure, Formula]:
        return self._reduce(formula)  # type: ignore[return-value]

    def reduce_term(self, term: Term) -> Tuple[Structure, Term]:
        return self._reduce(term)  # type: ignore[return-value]

    def _reduce(self, expression: Expression) -> Tuple[Structure, Expression]:
        """Iteratively materialise innermost predicate atoms as fresh <=1-ary
        relations (the L_1..L_{d+1} stages of Theorem 6.10)."""
        current = expression
        while True:
            innermost = self._innermost_predicate_atoms(current)
            if not innermost:
                return self.structure, current
            replacements: Dict[PredicateAtom, Atom] = {}
            for atom in innermost:
                replacements[atom] = self._materialise(atom)
            current = replace_atoms(current, replacements)
            # Rebuild memo state against the expanded structure.
            self._reset_memos()

    def _innermost_predicate_atoms(self, expression: Expression) -> List[PredicateAtom]:
        """Predicate atoms ready for materialisation: no nested predicate
        atoms and at most one joint free variable (rule 4').

        Atoms with more free variables (full FOC(P), outside the fragment)
        are left in place; :meth:`_holds` evaluates them inline, which is
        correct but loses the fpt structure — exactly the paper's point, and
        what experiment E4 measures.
        """
        found: Dict[PredicateAtom, None] = {}
        for node in subexpressions(expression):
            if isinstance(node, PredicateAtom):
                nested = any(
                    isinstance(inner, PredicateAtom) and inner is not node
                    for inner in subexpressions(node)
                )
                if not nested and len(self.free(node)) <= 1:
                    found.setdefault(node, None)
        return list(found)

    def _materialise(self, atom: PredicateAtom) -> Atom:
        """Evaluate a predicate atom everywhere and add it as a relation."""
        names = sorted(self.free(atom))
        if len(names) > 1:
            raise FragmentError(
                f"predicate atom @{atom.predicate} has free variables {names}; "
                "not FOC1(P)"
            )
        fresh = f"Paux__{next(self._aux_counter)}"
        while fresh in self.structure.signature:
            fresh = f"Paux__{next(self._aux_counter)}"
        if not names:
            values = tuple(self.term_value(t, {}) for t in atom.terms)
            fault_check("predicate.oracle")
            holds = self.predicates.query(atom.predicate, values)
            tuples: Set[Tup] = {()} if holds else set()
            symbol = RelationSymbol(fresh, 0)
            replacement = Atom(fresh, ())
        else:
            variable = names[0]
            tuples = set()
            for element in self.structure.universe_order:
                if self.budget is not None:
                    self.budget.tick("evaluator.materialise")
                env = {variable: element}
                values = tuple(self.term_value(t, env) for t in atom.terms)
                fault_check("predicate.oracle")
                if self.predicates.query(atom.predicate, values):
                    tuples.add((element,))
            symbol = RelationSymbol(fresh, 1)
            replacement = Atom(fresh, (variable,))
        if self._metrics is not None:
            self._metrics.inc("evaluator.predicate.materialised")
        self._extend(symbol, tuples)
        return replacement

    # -- terms ----------------------------------------------------------------------

    def term_value(self, term: Term, env: Dict[Variable, Element]) -> int:
        if isinstance(term, IntTerm):
            return term.value
        if isinstance(term, Add):
            return self.term_value(term.left, env) + self.term_value(term.right, env)
        if isinstance(term, Mul):
            left = self.term_value(term.left, env)
            if left == 0:
                return 0
            return left * self.term_value(term.right, env)
        if isinstance(term, CountTerm):
            return self.count(term.variables, term.inner, env)
        raise EvaluationError(f"unexpected term node {type(term).__name__}")

    # -- counting ---------------------------------------------------------------------

    def count(
        self,
        variables: Tuple[Variable, ...],
        body: Formula,
        env: Dict[Variable, Element],
    ) -> int:
        # Outer bindings of the counted variables are shadowed by the binder.
        if any(v in env for v in variables):
            env = {k: val for k, val in env.items() if k not in variables}
        text, names = self._count_key(variables, body)
        key = (text, tuple((v, env[v]) for v in names if v in env))
        cached = self._count_memo.get(key)
        if cached is None:
            if self.budget is not None:
                self.budget.tick("evaluator.count")
            if self._metrics is not None:
                self._metrics.inc("evaluator.count.memo.miss")
            cached = self._count(variables, body, env)
            fault_check("memo.insert")
            self._count_memo[key] = cached
        elif self._metrics is not None:
            self._metrics.inc("evaluator.count.memo.hit")
        return cached

    def _count(
        self,
        variables: Tuple[Variable, ...],
        body: Formula,
        env: Dict[Variable, Element],
    ) -> int:
        n = self.structure.order()
        k = len(variables)
        if k == 0:
            return 1 if self.holds(body, env) else 0
        step = self._plan_counts.get(id(body))
        if step is not None and step.variables == variables:
            return self._execute_count_step(step, env, n, k)
        if self._plan_counts and self._metrics is not None:
            # A planned run fell back to dynamic decomposition — a node the
            # compiler did not reach (should not happen for in-plan ASTs).
            self._metrics.inc("plan.count.fallback")
        if isinstance(body, Top):
            return n**k
        if isinstance(body, Bottom):
            return 0
        if isinstance(body, Not):
            return n**k - self.count(variables, body.inner, env)
        if isinstance(body, Or):
            both = self._overlap_memo.get(id(body))
            if both is None:
                both = And(body.left, body.right)
                self._overlap_memo[id(body)] = both
                self._pins[id(body)] = body
            return (
                self.count(variables, body.left, env)
                + self.count(variables, body.right, env)
                - self.count(variables, both, env)
            )
        if isinstance(body, Implies):
            return self.count(variables, Or(Not(body.left), body.right), env)
        if isinstance(body, Iff):
            rewritten = Or(
                And(body.left, body.right), And(Not(body.left), Not(body.right))
            )
            return self.count(variables, rewritten, env)

        conjuncts = self._conjuncts(body)
        counted = set(variables)

        # Conjuncts with no counted variables gate the whole count.
        active: List[Formula] = []
        for conjunct in conjuncts:
            if self.free(conjunct) & counted:
                active.append(conjunct)
            elif not self.holds(conjunct, env):
                return 0

        if not active:
            return n**k

        if not self.use_factoring:
            return self._count_component(tuple(variables), active, env)

        # Factor into variable-disjoint components (Lemma 6.4 product step).
        groups: List[Tuple[Set[Variable], List[Formula]]] = []
        for conjunct in active:
            names = set(self.free(conjunct)) & counted
            touching = [g for g in groups if g[0] & names]
            merged_names = set(names)
            merged_parts = [conjunct]
            for group in touching:
                merged_names |= group[0]
                merged_parts = group[1] + merged_parts
                groups.remove(group)
            groups.append((merged_names, merged_parts))

        used: Set[Variable] = set()
        result = 1
        for names, parts in groups:
            used |= names
            ordered = tuple(v for v in variables if v in names)
            part = self._count_component(ordered, parts, env)
            if part == 0:
                return 0
            result *= part
        unused = counted - used
        return result * (n ** len(unused))

    def _execute_count_step(
        self,
        step: CountStep,
        env: Dict[Variable, Element],
        n: int,
        k: int,
    ) -> int:
        """Dispatch one precompiled Lemma 6.4 step.  Child counts re-enter
        :meth:`count` (and so the memo) with plan-owned nodes, giving stable
        memo identities for the lifetime of the cached plan."""
        if isinstance(step, CountConstant):
            return 0 if step.zero else n**k
        if isinstance(step, CountComplement):
            return n**k - self.count(step.variables, step.inner, env)
        if isinstance(step, CountInclusionExclusion):
            return (
                self.count(step.variables, step.left, env)
                + self.count(step.variables, step.right, env)
                - self.count(step.variables, step.overlap, env)
            )
        if isinstance(step, CountRewrite):
            return self.count(step.variables, step.rewritten, env)
        if isinstance(step, CountDecomposition):
            for gate in step.gates:
                if not self.holds(gate, env):
                    return 0
            result = 1
            for component in step.components:
                part = self._count_component(
                    component.variables, list(component.conjuncts), env
                )
                if part == 0:
                    return 0
                result *= part
            return result * (n ** len(step.unused))
        raise EvaluationError(f"unexpected plan step {type(step).__name__}")

    def _count_component(
        self,
        variables: Tuple[Variable, ...],
        conjuncts: List[Formula],
        env: Dict[Variable, Element],
    ) -> int:
        """Guarded backtracking count of one variable-connected component."""
        local_env = dict(env)
        total = 0
        for _ in self._assignments(variables, conjuncts, local_env):
            total += 1
        return total

    def _assignments(
        self,
        variables: Tuple[Variable, ...],
        conjuncts: List[Formula],
        env: Dict[Variable, Element],
    ) -> Iterator[None]:
        """Yield once per assignment of ``variables`` satisfying the
        conjuncts; ``env`` is mutated in place and restored."""
        remaining = [v for v in variables if v not in env]
        if not remaining:
            if all(self.holds(c, env) for c in conjuncts):
                yield None
            return

        variable, candidates, satisfied = self._choose_variable(
            remaining, conjuncts, env
        )
        # Conjuncts fully bound once ``variable`` is are checked per
        # candidate (bar the guard whose pool already satisfies them);
        # the rest wait for deeper levels.
        checks: List[Test] = []
        later: List[Formula] = []
        remaining_after = set(remaining) - {variable}
        for conjunct in conjuncts:
            if self.free(conjunct) & remaining_after:
                later.append(conjunct)
            elif conjunct is not satisfied:
                checks.append(self._test(conjunct) or partial(self.holds, conjunct))
        rest = tuple(v for v in variables if v != variable)

        budget = self.budget
        for candidate in candidates:
            if budget is not None:
                budget.tick("evaluator.enumerate")
            env[variable] = candidate
            for check in checks:
                if not check(env):
                    break
            else:
                if remaining_after:
                    yield from self._assignments(rest, later, env)
                else:
                    yield None
        env.pop(variable, None)

    def _choose_variable(
        self,
        remaining: List[Variable],
        conjuncts: List[Formula],
        env: Dict[Variable, Element],
    ) -> "Tuple[Variable, Iterable, Optional[Formula]]":
        """Pick the next variable and its candidate pool, preferring the
        tightest available guard (index lookup, equality, distance ball).

        The third item is the conjunct every pool candidate satisfies, so
        the caller need not test it: the guard that supplied the pool,
        when it is a relation atom, equality or distance atom whose
        variables are all bound once the chosen variable is.
        """
        universe = self.structure.universe_order
        metrics = self._metrics
        if not self.use_guards:
            if metrics is not None:
                metrics.inc("evaluator.guard.disabled")
            return remaining[0], universe, None
        # Phase 1: only guards anchored at an already-bound variable (index
        # or ball lookups — cheap).  Phase 2: un-anchored relation scans,
        # which cost O(|R|) to materialise and therefore must not run at
        # every search node; with connected conjunct components they are
        # needed at most once, for the first variable.
        for anchored_only in (True, False):
            best: "Optional[Tuple[int, Variable, List[Element], Formula]]" = None
            for variable in remaining:
                found = self._guard_candidates(variable, conjuncts, env, anchored_only)
                if found is None:
                    continue
                size = len(found[0])
                if best is None or size < best[0]:
                    best = (size, variable, found[0], found[1])
                    if size <= 1:
                        break
            if best is not None:
                if metrics is not None:
                    metrics.inc(
                        "evaluator.guard.anchored"
                        if anchored_only
                        else "evaluator.guard.scan"
                    )
                    metrics.observe("evaluator.guard.pool_size", best[0])
                _, variable, pool, guard = best
                exact = isinstance(guard, (Atom, Eq, DistAtom)) and all(
                    v == variable or v in env for v in self.free(guard)
                )
                return variable, pool, guard if exact else None
        if metrics is not None:
            metrics.inc("evaluator.guard.universe")
        return remaining[0], universe, None

    def _guard_candidates(
        self,
        variable: Variable,
        conjuncts: List[Formula],
        env: Dict[Variable, Element],
        anchored_only: bool = False,
    ) -> "Optional[Tuple[List[Element], Formula]]":
        """Smallest candidate pool any positive guard offers for ``variable``
        and the conjunct offering it, or None when no guard applies."""
        best: "Optional[Tuple[Set[Element], Formula]]" = None
        for conjunct in conjuncts:
            pool = self._candidates_from(conjunct, variable, env, anchored_only)
            if pool is None:
                continue
            if best is None or len(pool) < len(best[0]):
                best = (pool, conjunct)
                if len(pool) <= 1:
                    break
        return None if best is None else (list(best[0]), best[1])

    def _candidates_from(
        self,
        conjunct: Formula,
        variable: Variable,
        env: Dict[Variable, Element],
        anchored_only: bool = False,
    ) -> "Optional[Set[Element]]":
        if isinstance(conjunct, Eq):
            other = None
            if conjunct.left == variable and conjunct.right != variable:
                other = conjunct.right
            elif conjunct.right == variable and conjunct.left != variable:
                other = conjunct.left
            if other is not None and other in env:
                return {env[other]}
            return None
        if isinstance(conjunct, DistAtom):
            other = None
            if conjunct.left == variable and conjunct.right != variable:
                other = conjunct.right
            elif conjunct.right == variable and conjunct.left != variable:
                other = conjunct.left
            if other is not None and other in env:
                return set(self.ball(env[other], conjunct.bound))
            return None
        if isinstance(conjunct, Atom):
            if variable not in conjunct.args:
                return None
            symbol = self.structure.signature.get(conjunct.relation)
            if symbol is None:
                raise EvaluationError(
                    f"relation {conjunct.relation!r} missing from the signature"
                )
            positions = [i for i, arg in enumerate(conjunct.args) if arg == variable]
            bound_positions = [
                (i, env[arg])
                for i, arg in enumerate(conjunct.args)
                if arg != variable and arg in env
            ]
            if bound_positions:
                anchor, value = bound_positions[0]
                tuples = self.structure.index(symbol, anchor).get(value, ())
            elif anchored_only:
                return None
            else:
                tuples = self.structure.relation(symbol)
            pool: Set[Element] = set()
            for tup in tuples:
                consistent = True
                for i, value in bound_positions:
                    if tup[i] != value:
                        consistent = False
                        break
                if not consistent:
                    continue
                first = tup[positions[0]]
                if any(tup[p] != first for p in positions[1:]):
                    continue
                pool.add(first)
            return pool
        if isinstance(conjunct, Exists):
            # Look through an exists-block: a positive atom inside it still
            # restricts the candidates for a variable free in the block
            # (the pool is a superset of the witnesses, which is sound —
            # every candidate is re-checked against the full conjunct).
            shadowed: Set[Variable] = set()
            inner: Formula = conjunct
            while isinstance(inner, Exists):
                shadowed.add(inner.variable)
                inner = inner.inner
            if variable in shadowed:
                return None
            if shadowed & set(env):
                env = {k: v for k, v in env.items() if k not in shadowed}
            best: "Optional[Set[Element]]" = None
            for piece in self._conjuncts(inner):
                pool = self._candidates_from(piece, variable, env, anchored_only)
                if pool is None:
                    continue
                if best is None or len(pool) < len(best):
                    best = pool
            return best
        return None

    # -- first-order satisfaction -----------------------------------------------------

    def holds(self, formula: Formula, env: Dict[Variable, Element]) -> bool:
        test = self._test(formula)
        if test is not None:
            return test(env)
        if isinstance(formula, DistAtom):
            try:
                a, b = env[formula.left], env[formula.right]
            except KeyError as error:
                raise _unassigned(error) from None
            return b in self.ball(a, formula.bound)
        relevant = tuple(
            (v, env[v]) for v in self.free_sorted(formula) if v in env
        )
        key = (self._canon_key(formula), relevant)
        cached = self._holds_memo.get(key)
        if cached is None:
            if self.budget is not None:
                self.budget.tick("evaluator.holds")
            if self._metrics is not None:
                self._metrics.inc("evaluator.holds.memo.miss")
            cached = self._holds(formula, env)
            fault_check("memo.insert")
            self._holds_memo[key] = cached
        elif self._metrics is not None:
            self._metrics.inc("evaluator.holds.memo.hit")
        return cached

    def _test(self, formula: Formula) -> Optional[Test]:
        """The formula's in-place test, compiled once per node (see the
        module docstring), or None for a formula :meth:`holds` evaluates
        itself: a distance atom (in place, through the cached ball) or
        anything else (through the satisfaction memo).

        A test holds no reference to the state, so a state is still freed
        by reference counting when its engine call drops it.
        """
        key = id(formula)
        if key not in self._tests:
            self._tests[key] = self._compile_test(formula)
            self._pins[key] = formula
        return self._tests[key]

    def _compile_test(self, formula: Formula) -> Optional[Test]:
        negated = isinstance(formula, Not) and isinstance(formula.inner, (Atom, Eq))
        atom = formula.inner if negated else formula
        if isinstance(atom, Atom):
            symbol = self.structure.signature.get(atom.relation)
            if symbol is None:
                raise EvaluationError(
                    f"relation {atom.relation!r} missing from the signature"
                )
            relation = self.structure.relation(symbol)
            if len(atom.args) == 1:
                # itemgetter of one key returns the bare value, not a 1-tuple.
                (arg,) = atom.args

                def values(env):
                    return (env[arg],)

            else:
                values = itemgetter(*atom.args) if atom.args else lambda env: ()

            def test(env):
                try:
                    return (values(env) in relation) != negated
                except KeyError as error:
                    raise _unassigned(error) from None

            return test
        if isinstance(atom, Eq):
            left, right = atom.left, atom.right

            def test(env):
                try:
                    return (env[left] == env[right]) != negated
                except KeyError as error:
                    raise _unassigned(error) from None

            return test
        if isinstance(formula, Top):
            return lambda env: True
        if isinstance(formula, Bottom):
            return lambda env: False
        return None

    def _holds(self, formula: Formula, env: Dict[Variable, Element]) -> bool:
        """Evaluate a compound formula or predicate atom (atoms are tested
        in place by :meth:`holds` and never reach here)."""
        if isinstance(formula, Not):
            return not self.holds(formula.inner, env)
        if isinstance(formula, And):
            return self.holds(formula.left, env) and self.holds(formula.right, env)
        if isinstance(formula, Or):
            return self.holds(formula.left, env) or self.holds(formula.right, env)
        if isinstance(formula, Implies):
            return (not self.holds(formula.left, env)) or self.holds(formula.right, env)
        if isinstance(formula, Iff):
            return self.holds(formula.left, env) == self.holds(formula.right, env)
        if isinstance(formula, Exists):
            # Peel the whole exists-block so guards deep inside the body can
            # drive candidate generation for every bound variable at once.
            prefix: List[Variable] = []
            body: Formula = formula
            while isinstance(body, Exists) and body.variable not in prefix:
                prefix.append(body.variable)
                body = body.inner
            return self._exists_block(tuple(prefix), body, env)
        if isinstance(formula, Forall):
            negated = self._forall_memo.get(id(formula))
            if negated is None:
                negated = Not(formula.inner)
                self._forall_memo[id(formula)] = negated
                self._pins[id(formula)] = formula
            return not self._exists_block((formula.variable,), negated, env)
        if isinstance(formula, PredicateAtom):
            # Inline evaluation: reached only for atoms outside FOC1 (more
            # than one joint free variable) when fragment checking is off.
            values = tuple(self.term_value(t, env) for t in formula.terms)
            fault_check("predicate.oracle")
            return self.predicates.query(formula.predicate, values)
        raise EvaluationError(f"unexpected formula node {type(formula).__name__}")

    def _exists_block(
        self,
        variables: Tuple[Variable, ...],
        body: Formula,
        env: Dict[Variable, Element],
    ) -> bool:
        """Witness search for ``exists v1..vk. body`` with guard-driven
        candidate pools and early exit."""
        conjuncts = self._conjuncts(body)
        scratch = {k: val for k, val in env.items() if k not in variables}
        for _ in self._assignments(variables, conjuncts, scratch):
            return True
        return False

    # -- enumeration ----------------------------------------------------------------------

    def solutions(
        self, variables: Tuple[Variable, ...], body: Formula
    ) -> Iterator[Tuple[Element, ...]]:
        """Enumerate satisfying assignments (guard-driven where possible)."""
        conjuncts = self._conjuncts(body)
        env: Dict[Variable, Element] = {}
        for _ in self._assignments(tuple(variables), conjuncts, env):
            yield tuple(env[v] for v in variables)

    # -- checkpointing -----------------------------------------------------------------

    def export_memo_snapshot(self) -> List[Tuple]:
        """Serialise the satisfaction/count memos in an id-free form.

        Memo keys are already alpha-canonical pretty text (see the module
        docstring), which survives a process boundary as-is: identical
        text implies alpha-equivalent formula, and for a fixed structure
        the memoised value is a function of the formula and its relevant
        bindings.  Entries are exported verbatim.
        """
        entries: List[Tuple] = []
        for (text, relevant), value in self._holds_memo.items():
            entries.append(("holds", text, relevant, value))
        for (text, relevant), value in self._count_memo.items():
            entries.append(("count", text, relevant, value))
        return entries

    def restore_memo_snapshot(
        self,
        entries: Iterable[Tuple],
        nodes_by_text: Dict[str, Expression],
    ) -> int:
        """Install exported memo entries into this state's memos.

        Text keys are self-contained, so entries install directly; when
        the text names a node this plan owns (``nodes_by_text`` maps both
        plain-pretty and canonical texts), the entry is re-keyed through
        the live node's canonical key instead — this also upgrades
        snapshots written before keys were alpha-canonical.  Legacy count
        entries (5-tuples carrying the counted variables separately) only
        restore via a matching node, since their text lacks the binder.
        """
        restored = 0
        for entry in entries:
            kind, text = entry[0], entry[1]
            node = nodes_by_text.get(text)
            if kind == "holds":
                _, _, relevant, value = entry
                key = text if node is None else self._canon_key(node)
                self._holds_memo[(key, relevant)] = value
            elif kind == "count" and len(entry) == 4:
                # Count texts fold the counted variables into the binder
                # and are already canonical — install verbatim (a plain
                # formula node could not stand in for a count key).
                _, _, relevant, value = entry
                self._count_memo[(text, relevant)] = value
            elif kind == "count" and len(entry) == 5:
                _, _, variables, relevant, value = entry
                if node is None:
                    continue
                key, _ = self._count_key(variables, node)
                self._count_memo[(key, relevant)] = value
            else:
                continue
            restored += 1
        if restored and self._metrics is not None:
            self._metrics.inc("checkpoint.memo.restored", restored)
        return restored


class PlanExecutor:
    """Run one compiled plan against one structure.

    The executor materialises the plan's stratification steps in order
    (lazily, on first use) and then evaluates the residual roots with the
    plan's count DAG attached.  One executor = one engine call; plans are
    shared and immutable, executors are cheap and disposable.
    """

    def __init__(
        self,
        plan: QueryPlan,
        structure: Structure,
        predicates: PredicateCollection,
        budget: "Optional[EvaluationBudget]" = None,
    ):
        if structure.signature != plan.signature:
            raise EvaluationError(
                "plan was compiled for a different signature; "
                "recompile against this structure"
            )
        self.plan = plan
        self.state = ExecutionState(
            structure,
            predicates,
            plan.options.factoring,
            plan.options.guards,
            budget,
            plan,
        )
        self._prepared = False
        # Checkpoint session (preemptible runs only).  Consulted only from
        # the thread that installed it: pool worker threads run their own
        # executors un-checkpointed, their progress is captured at shard
        # granularity by the pool itself.
        session = active_checkpoint_session()
        if session is not None and not session.on_owner_thread():
            session = None
        self._session = session
        # The content key for this (structure, plan) pair — computed while
        # the structure is still un-expanded, so a resumed executor over
        # the same inputs derives the same key.
        self._ckpt_key = (
            self._content_key(structure) if session is not None else ""
        )

    def _content_key(self, structure: Structure) -> str:
        """Digest identifying this (structure, plan) execution context.

        Identical key ⇒ extensionally identical structure and identical
        compiled plan ⇒ any recorded stratum or memo entry restores to
        exactly the value this executor would recompute.
        """
        from ..logic.printer import pretty
        from ..robust.checkpoint import structure_digest

        hasher = hashlib.sha256()
        hasher.update(structure_digest(structure).encode())
        hasher.update(b"|")
        hasher.update(self.plan.kind.encode())
        hasher.update(repr(self.plan.options).encode())
        hasher.update(repr(self.plan.variables).encode())
        for root in self.plan.roots:
            hasher.update(pretty(root).encode())
            hasher.update(b"\x00")
        return hasher.hexdigest()

    def _restore_nodes(self) -> Dict[str, Expression]:
        """Every plan-owned node a memo entry could re-attach to, by text.

        Each node registers under both its plain pretty text (matches
        legacy snapshots written before memo keys were alpha-canonical)
        and its canonical text (matches current snapshots).
        """
        from ..logic.printer import pretty

        nodes: Dict[str, Expression] = {}

        def add(node: Expression) -> None:
            for sub in subexpressions(node):
                nodes.setdefault(pretty(sub), sub)
                nodes.setdefault(pretty(canonicalise(sub)), sub)

        for root in self.plan.roots:
            add(root)
        for step in self.plan.counts.values():
            for attr in ("inner", "left", "right", "overlap", "rewritten"):
                child = getattr(step, attr, None)
                if child is not None:
                    add(child)
            for gate in getattr(step, "gates", ()):
                add(gate)
            for component in getattr(step, "components", ()):
                # (guards are GuardSpec annotations, not AST nodes — only
                # the conjuncts can carry memo entries)
                for conjunct in component.conjuncts:
                    add(conjunct)
        return nodes

    def _checkpoint_memos(self) -> None:
        if self._session is not None:
            self._session.record_memo(
                self._ckpt_key, self.state.export_memo_snapshot()
            )

    def _run(self, thunk):
        """Run one plan runner, checkpointing memos on the way out —
        both on success (a later executor in the same run may suspend)
        and on suspension (the resumed run restores them)."""
        if self._session is None:
            return thunk()
        try:
            result = thunk()
        except SuspendedError:
            self._checkpoint_memos()
            raise
        self._checkpoint_memos()
        return result

    def prepare(self) -> None:
        """Execute the materialisation steps (Theorem 6.10 stages) once.

        Under an active checkpoint session, already-recorded strata are
        replayed from the checkpoint (no oracle queries, no budget ticks),
        newly computed strata are recorded, and restored memo entries are
        re-attached once the structure is fully expanded.
        """
        if self._prepared:
            return
        session = self._session
        if session is None:
            for step in self.plan.steps:
                self.state.apply_materialise_step(step)
            self._prepared = True
            return
        key = self._ckpt_key
        resumed = session.resumed_strata(key)
        for index, step in enumerate(self.plan.steps):
            record = resumed.get(index)
            if record is not None and record.symbol == step.symbol:
                self.state.apply_recorded_stratum(step, record.tuples)
            else:
                tuples = self.state.apply_materialise_step(step)
                session.record_stratum(
                    key,
                    StratumRecord(
                        index, step.symbol, step.arity, tuple(sorted(tuples))
                    ),
                )
        entries = session.resumed_memo(key)
        if entries:
            self.state.restore_memo_snapshot(entries, self._restore_nodes())
        self._prepared = True

    # -- one runner per plan kind -------------------------------------------------

    def model_check(self) -> bool:
        return self._run(
            lambda: (self.prepare(), self.state.holds(self.plan.roots[0], {}))[1]
        )

    def count_value(self) -> int:
        return self._run(
            lambda: (
                self.prepare(),
                self.state.count(self.plan.variables, self.plan.roots[0], {}),
            )[1]
        )

    def ground_term_value(self) -> int:
        return self._run(
            lambda: (self.prepare(), self.state.term_value(self.plan.roots[0], {}))[1]
        )

    def unary_term_values(
        self,
        variable: Variable,
        elements: "Optional[Sequence[Element]]" = None,
    ) -> Dict[Element, int]:
        def run() -> Dict[Element, int]:
            self.prepare()
            targets = (
                list(elements)
                if elements is not None
                else list(self.state.structure.universe_order)
            )
            root = self.plan.roots[0]
            return {
                a: self.state.term_value(root, {variable: a}) for a in targets
            }

        return self._run(run)

    def solutions(self) -> Iterator[Tuple[Element, ...]]:
        self.prepare()
        yield from self.state.solutions(self.plan.variables, self.plan.roots[0])

    def query_rows(self) -> List[Tuple]:
        """Rows of an FOC1(P)-query plan: roots are ``(condition, *head
        terms)``, variables the head variables."""

        def run() -> List[Tuple]:
            self.prepare()
            condition = self.plan.roots[0]
            terms = self.plan.roots[1:]
            results: List[Tuple] = []
            for tup in self.state.solutions(self.plan.variables, condition):
                assignment = dict(zip(self.plan.variables, tup))
                values = tuple(
                    self.state.term_value(term, assignment) for term in terms
                )
                results.append(tup + values)
            return results

        return self._run(run)
