"""The plan executor: runtime state for one structure, one plan.

:class:`ExecutionState` is the engine's evaluation machinery — memo
tables, ball caches, guarded enumeration — so that every engine (the
FOC1 evaluator, the Section 8.2 main algorithm, the robustness cascade)
runs queries through one instrumented code path.  It runs compiled plans
only.  A :class:`~repro.plan.ir.QueryPlan` supplies the Theorem 6.10
materialisation steps, which the executor applies in stratum order, and
the Lemma 6.4 count DAG: every count with counted variables dispatches
through the body's compiled step (:meth:`ExecutionState._count`), and a
body without one is an :class:`~repro.errors.EvaluationError`.  Memo
tables survive across materialisation steps: the auxiliary relations are
at most unary, so they add no Gaifman edges and invalidate neither ball
caches nor prior satisfaction/count entries.

Budget ticks (``evaluator.materialise`` / ``evaluator.count`` /
``evaluator.enumerate`` / ``evaluator.holds``), fault-injection sites
(``predicate.oracle`` / ``memo.insert``) and all ``evaluator.*`` metrics
live here and only here.

Column kernels
--------------
Strata and unary terms are evaluated a column at a time
(:meth:`ExecutionState._term_column`): ``+`` and ``*`` element by element
(the right factor only where the left is non-zero), and a count through a
*kernel* when its step is one component over one counted variable ``y``,
with no gates and no unused variables, whose top search node is anchored
by one guard, a binary relation atom over the column variable ``x`` and
``y``, and whose other conjuncts have in-place tests.  The value at ``a``
is then the size of ``projection.get(a)`` intersected with the positive
unary atoms over ``y`` (one ``evaluator.enumerate`` tick weighted by the
pool size) when they are the other conjuncts; else the node's search
tests the others per candidate, as :meth:`count` does.  Other counts run
:meth:`count` per element.  Each element computed charges what
:meth:`count` would.  Columns live in their own memo, keyed by the
count's canonical text and ``x``, one ``memo.insert`` fault site per
column; :meth:`count` reads them, and an element found in the count memo
(restored) costs nothing.  Checkpoints get each column, or a suspended
column's finished prefix, as the count entries :meth:`count` would have
stored, and a resumed :class:`PlanExecutor` restores them before it
replays strata.

Under a checkpoint session a :class:`PlanExecutor` records each stratum as
it materialises it, but only *registers* its memo tables with the session
when a runner returns or suspends.  The session exports them, as
:meth:`ExecutionState.export_memo_snapshot` would, when the next executor
starts or registers, or when it takes a snapshot; a run of one executor
that never suspends exports nothing.

Memo lifetime contract
----------------------
Atoms are tested in place, not memoised: ``R(x, y)``, ``x = y``,
``dist(x, y) <= d``, Top, Bottom and the negation of a relation atom or
an equality compile once per node into a closure (:meth:`_test`): a
membership probe on the relation's frozenset, an equality, or a lookup in
the state's cached ball.  An atom test builds no memo key, stores no
entry, ticks no ``evaluator.holds`` step and reaches no ``memo.insert``
fault site; the per-candidate ``evaluator.enumerate`` tick of guarded
enumeration still pays for every atom test, so a budget bounds all work.
The closures capture the relation frozensets of the current structure,
so they are rebuilt after each materialisation step.

Guarded enumeration runs on *search nodes* compiled once per state, one
per (conjunct container, unbound variables) pair (:meth:`_search_node`).
A node holds its guard sources as pool getters — an anchored guard is
one lookup in a :meth:`Structure.projection` keyed by the bound values,
a scan is a constant pool — its phase (anchored, scan or universe), and
per choice of variable and guard the checks each candidate must pass
(the guard itself left out when its pool already satisfies it) and the
node below.  Counting descends through integer-returning recursion
(:meth:`_count_search`); existence and :meth:`solutions` walk the same
nodes through one generator (:meth:`_enumerate`).  Nodes capture the structure's
projections and tests, so they are dropped with the tests after each
materialisation step, and hold no reference to the state.

Compound formulas, predicate atoms and counts go through the
satisfaction/count memos, which key on *alpha-canonical text*: the node
is canonicalised (:func:`~repro.plan.normalise.canonicalise` — bound
variables renamed ``_b0, _b1, ...``, free variables untouched) and
pretty-printed, so alpha-equivalent subterms share one entry — e.g.
``#(y). E(x, y)`` and ``#(z). E(x, z)`` hit the same count cell.  The
canonical text itself is expensive to compute, so it is cached per
``id(node)`` in ``_canon_memo`` (and, with the sorted free variables
whose bindings complete a count key, per ``(id(body), variables)`` in
``_count_key_memo``), and the ``Not(inner)`` node a Forall is searched
through is cached per ``id`` too (``_forall_memo``), so re-evaluating a
quantifier never mints fresh AST nodes whose ids would defeat every
id-keyed cache.

The id-keyed caches (the per-node tests and the search nodes included)
are only sound while the keyed object stays alive: CPython recycles ids,
so an entry that outlives its node can alias a *different* node created
later.  The state therefore pins every node that enters an id-keyed memo
in ``_pins`` (id -> node) — and every conjunct container a search node
keys on: a plan component's tuple or a ``_conjuncts`` list — and never
drops a pin: pins live as long as the memos, that is, as long as the
state.  (Dropping the tests and search nodes after a materialisation
step is safe: a pin without an entry only keeps a node alive.)  States
themselves are scoped to one public engine call (facades create fresh
states per call and hold no reference afterwards), so repeated queries
do not accumulate memory across calls.  Every node a plan references is
plan-owned (deep-copied at compile time), so memo ids are stable for the
lifetime of the cached plan; the pins protect the nodes a caller passes
to an :class:`ExecutionState` directly.
"""

from __future__ import annotations

import hashlib
import weakref
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
    Union,
)

from ..errors import EvaluationError, SuspendedError
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
from ..robust.checkpoint import (
    StratumRecord,
    active_checkpoint_session,
    memo_entries,
    sorted_tuples,
)
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
    MaterialiseStep,
    QueryPlan,
)
from ..logic.printer import pretty
from .normalise import canonicalise, flatten_conjuncts

__all__ = ["ExecutionState", "PlanExecutor"]

#: A compiled satisfaction test (see :meth:`ExecutionState._test`).
Test = Callable[[Dict[Variable, Element]], bool]
#: A candidate pool of guarded enumeration, iterated in a fixed order.
Pool = Union[Tuple[Element, ...], Set[Element]]
PoolGetter = Callable[[Dict[Variable, Element]], Pool]

# The phases of a search node: how its variable and pool are chosen.
_ANCHORED = 0  # the smallest pool of a guard anchored at a bound variable
_SCAN = 1  # the smallest un-anchored relation scan (a constant pool)
_UNIVERSE = 2  # no guard: the first variable ranges over the universe
_DISABLED = 3  # guards switched off: likewise
_LEAF = 4  # nothing left to bind: the conjuncts are checked once
_PHASE_COUNTERS = (
    "evaluator.guard.anchored",
    "evaluator.guard.scan",
    "evaluator.guard.universe",
    "evaluator.guard.disabled",
)


def _unassigned(error: KeyError) -> EvaluationError:
    return EvaluationError(f"free variable {error.args[0]!r} is not assigned")


class _Choice:
    """Binding one variable from one guard's pool (or the universe): the
    checks each candidate must pass and the node for the variables left.

    ``checks`` tests the conjuncts fully bound once ``variable`` is; the
    child node (compiled on first descent, None at the last level) binds
    ``rest`` over the conjuncts of ``root`` that mention them.  ``guard``
    is the conjunct the pool comes from (None for the universe).
    """

    __slots__ = ("variable", "guard", "root", "rest", "checks", "child")

    def __init__(
        self,
        variable: Variable,
        guard: Optional[Formula],
        root: Sequence[Formula],
        rest: Tuple[Variable, ...],
        checks: Tuple[Test, ...],
    ):
        self.variable = variable
        self.guard = guard
        self.root = root
        self.rest = rest
        self.checks = checks
        self.child: "Optional[_SearchNode]" = None


class _SearchNode:
    """Guarded search for one (conjunct container, unbound variables) pair,
    compiled once per :class:`ExecutionState` (see
    :meth:`ExecutionState._compile_node`).

    In the anchored and scan phases ``options`` lists, per unbound
    variable with a guard, the ``(pool getter, choice)`` pair of each guard
    conjunct; otherwise ``pool`` and ``choice`` are fixed.  Holds no
    reference to the state.
    """

    __slots__ = ("conjuncts", "phase", "options", "pool", "choice")

    def __init__(
        self,
        conjuncts: Tuple[Formula, ...],
        phase: int,
        options: "Optional[Tuple[Tuple[Tuple[PoolGetter, _Choice], ...], ...]]" = None,
        pool: Pool = (),
        choice: "_Choice" = None,  # type: ignore[assignment]
    ):
        self.conjuncts = conjuncts
        self.phase = phase
        self.options = options
        self.pool = pool
        self.choice = choice


def _smallest(getters: Tuple[PoolGetter, ...], env: Dict[Variable, Element]) -> Pool:
    """The first smallest of several pools (an exists-block's pieces)."""
    best = None
    for getter in getters:
        pool = getter(env)
        if best is None or len(pool) < len(best):
            best = pool
    return best  # type: ignore[return-value]


def _smallest_guard(
    options: Tuple[Tuple[Tuple[PoolGetter, _Choice], ...], ...],
    env: Dict[Variable, Element],
) -> Tuple[Pool, _Choice]:
    """The first smallest guard pool of an anchored or scan node: per
    variable over its guards, then over variables, each settling early on
    a pool of at most one candidate."""
    try:
        if len(options) == 1 and len(options[0]) == 1:
            getter, choice = options[0][0]
            return getter(env), choice
        pool = None
        for guards in options:
            smallest = None
            for getter, option in guards:
                found = getter(env)
                if smallest is None or len(found) < len(smallest):
                    smallest, best = found, option
                    if len(found) <= 1:
                        break
            if pool is None or len(smallest) < len(pool):
                pool, choice = smallest, best
                if len(smallest) <= 1:
                    break
    except KeyError as error:
        raise _unassigned(error) from None
    return pool, choice


def _ball(
    cache: Dict[Element, FrozenSet[Element]],
    structure: Structure,
    metrics,
    distance: int,
    element: Element,
) -> FrozenSet[Element]:
    cached = cache.get(element)
    if cached is None:
        cached = gaifman_ball(structure, (element,), distance)
        cache[element] = cached
        if metrics is not None:
            metrics.inc("evaluator.ball.expansion")
    return cached


def _holds_through(
    state: "weakref.ref[ExecutionState]", formula: Formula, env: Dict[Variable, Element]
) -> bool:
    return state().holds(formula, env)  # type: ignore[union-attr]


class ExecutionState:
    """Evaluation state for one (possibly expanded) structure and one
    compiled plan: memo tables, ball caches, materialisation and
    count-step dispatch.  See the module docstring for the memo lifetime
    contract."""

    def __init__(
        self,
        structure: Structure,
        predicates: PredicateCollection,
        plan: QueryPlan,
        budget: "Optional[EvaluationBudget]" = None,
    ):
        self.structure = structure
        self.predicates = predicates
        self.plan = plan
        self.budget = budget
        self._metrics = active_metrics()
        self._holds_memo: Dict[Tuple, bool] = {}
        self._count_memo: Dict[Tuple, int] = {}
        # Column kernels' values, per (count text, column variable).
        self._columns: Dict[Tuple[str, Variable], Dict[Element, int]] = {}
        self._free_memo: Dict[int, FrozenSet[Variable]] = {}
        # Pin every node (or conjunct container) that enters an id-keyed
        # memo (id -> object, so one pinned through several memos is stored
        # once) for the lifetime of the state.
        self._pins: Dict[int, object] = {}
        self._free_sorted_memo: Dict[int, Tuple[Variable, ...]] = {}
        self._conjunct_memo: Dict[int, List[Formula]] = {}
        # Alpha-canonical memo-key texts, cached per node identity (the
        # canonicalise + pretty walk is O(|node|); the id lookup is O(1)).
        self._canon_memo: Dict[int, str] = {}
        self._count_key_memo: Dict[
            Tuple[int, Tuple[Variable, ...]], Tuple[str, Tuple[Variable, ...]]
        ] = {}
        # Per-node satisfaction tests (in place for atoms, through the
        # memo otherwise), compiled search nodes and column kernels; all
        # capture the structure's relations and are rebuilt whenever it is
        # extended.
        self._tests: Dict[int, Test] = {}
        self._search_nodes: Dict[
            Tuple[int, Tuple[Variable, ...], bool], _SearchNode
        ] = {}
        self._kernels: Dict[Tuple[int, Variable], Optional[Tuple]] = {}
        # Per-candidate checks reach the memo through this weak reference
        # (see _check), so that no search node keeps the state alive.
        self._ref = weakref.ref(self)
        # The Not(inner) node each Forall is searched through, cached per
        # source node so repeated evaluation reuses one object (and its
        # memos).
        self._forall_memo: Dict[int, Not] = {}
        self._ball_caches: Dict[int, Dict[Element, FrozenSet[Element]]] = {}

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

    def _ball_lookup(self, distance: int) -> Callable[[Element], FrozenSet[Element]]:
        """The cached ``distance``-ball of an element, as a function that
        holds the cache and the structure but not the state."""
        cache = self._ball_caches.setdefault(distance, {})
        return partial(_ball, cache, self.structure, self._metrics, distance)

    def _extend(self, symbol: RelationSymbol, tuples: Iterable[Tup]) -> None:
        """Expand the structure by one auxiliary relation.

        Memos and columns survive (aux relations are <=1-ary: no new
        Gaifman edges, no change to existing relations); the per-node
        tests, search nodes and kernels captured the old structure's
        relations, so they are rebuilt on next use.
        """
        from ..structures.operations import expansion

        self.structure = expansion(
            self.structure, Signature([symbol]), {symbol.name: tuples}
        )
        self._tests.clear()
        self._search_nodes.clear()
        self._kernels.clear()

    # -- Theorem 6.10 stratification ----------------------------------------------

    def apply_materialise_step(self, step: MaterialiseStep) -> Set[Tup]:
        """Execute one compiled materialisation step: evaluate the predicate
        atom everywhere (its terms a column at a time) and extend the
        structure by the plan's auxiliary relation.  Memos survive (aux
        relations are <=1-ary: no new Gaifman edges, no change to existing
        relations).  Returns the materialised tuples so callers (the
        checkpoint machinery) can record the stratum."""
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
            universe = self.structure.universe_order
            columns = [self._term_column(t, step.variable, universe) for t in step.terms]
            tuples = set()
            for element, values in zip(universe, zip(*columns)):
                if self.budget is not None:
                    self.budget.tick("evaluator.materialise")
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

    def _term_column(
        self, term: Term, variable: Variable, elements: Sequence[Element]
    ) -> List[int]:
        """``term_value(term, {variable: a})`` for every ``a`` in
        ``elements``: element by element through ``+`` and ``*`` (the right
        factor only where the left is non-zero), a count as one column."""
        if isinstance(term, IntTerm):
            return [term.value] * len(elements)
        if isinstance(term, Add):
            left = self._term_column(term.left, variable, elements)
            right = self._term_column(term.right, variable, elements)
            return [a + b for a, b in zip(left, right)]
        if isinstance(term, Mul):
            left = self._term_column(term.left, variable, elements)
            live = [a for a, value in zip(elements, left) if value]
            right = iter(self._term_column(term.right, variable, live))
            return [value * next(right) if value else 0 for value in left]
        if isinstance(term, CountTerm):
            return self._count_column(term, variable, elements)
        raise EvaluationError(f"unexpected term node {type(term).__name__}")

    def _count_column(
        self, term: CountTerm, variable: Variable, elements: Sequence[Element]
    ) -> List[int]:
        """The count at every element: one pass over its kernel's
        projection (see the module docstring), else :meth:`count` per
        element.  Each element computed charges what :meth:`count` would;
        one in the column or the count memo (restored) costs nothing."""
        if not elements:
            return []
        key = (id(term), variable)
        if key not in self._kernels:
            self._kernels[key] = self._kernel(term, variable)
            self._pins[id(term)] = term
        kernel = self._kernels[key]
        if kernel is None:
            return [self.count(term.variables, term.inner, {variable: a}) for a in elements]
        text, projection, members, node = kernel
        column = self._columns.get((text, variable))
        if column is None:
            fault_check("memo.insert")
            column = self._columns[(text, variable)] = {}
            if self._metrics is not None:
                self._metrics.inc("evaluator.count.column")
        memo = self._count_memo
        budget = self.budget
        computed = 0
        values = []
        for a in elements:
            value = column.get(a)
            if value is None and memo:
                value = memo.get((text, ((variable, a),)))
            if value is None:
                if budget is not None:
                    budget.tick("evaluator.count")
                if node is not None:
                    value = self._count_search(node, {variable: a})
                else:
                    pool = projection.get(a, ())
                    if budget is not None and pool:
                        budget.tick("evaluator.enumerate", len(pool))
                    value = len(pool if members is None else members.intersection(pool))
                column[a] = value
                computed += 1
            values.append(value)
        if computed and self._metrics is not None:
            self._metrics.inc("evaluator.count.column.elements", computed)
        return values

    def _kernel(self, term: CountTerm, variable: Variable) -> Optional[Tuple]:
        """The column kernel of ``term`` over ``variable`` (see the module
        docstring), or None when the count does not qualify: the count's
        memo text, the guard's projection from ``variable`` to the counted
        variable ``y``, and either the member set of the positive unary
        atoms over ``y`` when they are the other conjuncts (None for none)
        and None, or None and the search node that tests the others per
        candidate.  A conjunct with no in-place test disqualifies the
        count."""
        step = self.plan.counts.get((id(term.inner), term.variables))
        if not isinstance(step, CountDecomposition) or step.gates or step.unused:
            return None
        text, names = self._count_key(term.variables, term.inner)
        if len(step.variables) != 1 or names != (variable,):
            return None
        (component,) = step.components
        node = self._search_node(component.conjuncts, component.variables)
        if node.phase != _ANCHORED or len(node.options[0]) != 1:
            return None
        choice = node.options[0][0][1]
        guard, counted = choice.guard, choice.variable
        pairs = ((variable, counted), (counted, variable))
        if not isinstance(guard, Atom) or guard.args not in pairs:
            return None
        anchor = guard.args.index(variable)
        projection = self.structure.projection(
            self._symbol(guard.relation), (anchor,), (1 - anchor,)
        )
        rest = [conjunct for conjunct in component.conjuncts if conjunct is not guard]
        if not all(isinstance(c, Atom) and c.args == (counted,) for c in rest):
            if None in map(self._test, rest):
                return None
            return text, projection, None, node
        members: Optional[Set[Element]] = None
        for atom in rest:
            symbol = self._symbol(atom.relation)
            found = self.structure.projection(symbol, (), (0,)).get((), ())
            members = set(found) if members is None else members.intersection(found)
        return text, projection, members, None

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
        if cached is None and self._columns and len(key[1]) == 1:
            # A column kernel may hold it (see _count_column).
            ((name, value),) = key[1]
            cached = self._columns.get((text, name), {}).get(value)
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
        """Dispatch the body's compiled Lemma 6.4 step.  Child counts re-enter
        :meth:`count` (and so the memo) with plan-owned nodes, giving stable
        memo identities for the lifetime of the cached plan."""
        n = self.structure.order()
        k = len(variables)
        if k == 0:
            return 1 if self.holds(body, env) else 0
        step = self.plan.counts.get((id(body), variables))
        if step is None:
            raise EvaluationError(
                f"no compiled count step for #({', '.join(variables)}). "
                f"{pretty(body)}: not a node of this state's plan"
            )
        if isinstance(step, CountConstant):
            return 0 if step.zero else n**k
        if isinstance(step, CountComplement):
            return n**k - self.count(variables, step.inner, env)
        if isinstance(step, CountInclusionExclusion):
            return (
                self.count(variables, step.left, env)
                + self.count(variables, step.right, env)
                - self.count(variables, step.overlap, env)
            )
        if isinstance(step, CountRewrite):
            return self.count(variables, step.rewritten, env)
        if isinstance(step, CountDecomposition):
            for gate in step.gates:
                if not self.holds(gate, env):
                    return 0
            result = 1
            for component in step.components:
                # Guarded backtracking count of one variable-connected
                # component, keyed on the plan's conjunct tuple.
                node = self._search_node(component.conjuncts, component.variables)
                part = self._count_search(node, dict(env))
                if part == 0:
                    return 0
                result *= part
            return result * (n ** len(step.unused))
        raise EvaluationError(f"unexpected plan step {type(step).__name__}")

    # -- guarded search ------------------------------------------------------------

    def _search_node(
        self,
        root: Sequence[Formula],
        unbound: Tuple[Variable, ...],
        top: bool = True,
    ) -> "_SearchNode":
        """The compiled search node binding ``unbound`` over the conjuncts of
        ``root``: all of them at the top, and below it the ones a still
        unbound variable occurs in (the others were checked higher up).

        Nodes key on ``id(root)``, so ``root`` must be a container that
        lives as long as the memos (a plan component or a ``_conjuncts``
        entry); it is pinned like any id-keyed memo entry.
        """
        key = (id(root), unbound, top)
        node = self._search_nodes.get(key)
        if node is None:
            node = self._compile_node(root, unbound, top)
            self._search_nodes[key] = node
            self._pins[id(root)] = root
        return node

    def _compile_node(
        self, root: Sequence[Formula], unbound: Tuple[Variable, ...], top: bool
    ) -> "_SearchNode":
        """Resolve a node's guard sources, phase and choices once.

        The phase is static: whether an anchored guard exists for some
        unbound variable depends only on which variables are bound.  Phase
        1 offers only guards anchored at a bound variable (one dict lookup
        each); phase 2 the un-anchored relation scans, constant pools that
        with connected components are needed at most once, for the first
        variable; otherwise the first variable ranges over the universe.
        """
        names = frozenset(unbound)
        conjuncts = (
            tuple(root) if top else tuple(c for c in root if self.free(c) & names)
        )
        if not unbound:
            return _SearchNode(conjuncts, _LEAF)
        universe = self.structure.universe_order
        if not self.plan.options.guards:
            choice = self._choice(root, conjuncts, unbound, unbound[0], None)
            return _SearchNode(conjuncts, _DISABLED, pool=universe, choice=choice)
        for phase in (_ANCHORED, _SCAN):
            options = []
            for variable in unbound:
                found = []
                for conjunct in conjuncts:
                    getter = self._pool_getter(
                        conjunct, variable, names, phase == _ANCHORED
                    )
                    if getter is not None:
                        choice = self._choice(root, conjuncts, unbound, variable, conjunct)
                        found.append((getter, choice))
                if found:
                    options.append(tuple(found))
            if options:
                return _SearchNode(conjuncts, phase, options=tuple(options))
        choice = self._choice(root, conjuncts, unbound, unbound[0], None)
        return _SearchNode(conjuncts, _UNIVERSE, pool=universe, choice=choice)

    def _choice(
        self,
        root: Sequence[Formula],
        conjuncts: Tuple[Formula, ...],
        unbound: Tuple[Variable, ...],
        variable: Variable,
        guard: Optional[Formula],
    ) -> "_Choice":
        """Binding ``variable`` from ``guard``'s pool (or the universe).

        Conjuncts fully bound once ``variable`` is are checked per
        candidate, bar a relation atom, equality or distance atom guard
        whose variables are then all bound: every candidate of its pool
        satisfies it.  The rest wait for deeper levels.
        """
        rest = tuple(v for v in unbound if v != variable)
        left = frozenset(rest)
        exact = isinstance(guard, (Atom, Eq, DistAtom)) and all(
            v == variable or v not in unbound for v in self.free(guard)
        )
        checks = tuple(
            self._check(conjunct)
            for conjunct in conjuncts
            if not (self.free(conjunct) & left) and not (exact and conjunct is guard)
        )
        return _Choice(variable, guard, root, rest, checks)

    def _pool_getter(
        self,
        conjunct: Formula,
        variable: Variable,
        unbound: FrozenSet[Variable],
        anchored: bool,
    ) -> Optional[PoolGetter]:
        """The candidate pool ``conjunct`` offers for ``variable``, as a
        function of the environment, or None when it offers none in this
        phase.  Anchored pools are one lookup keyed by bound values; a scan
        is a constant pool.  Getters hold no reference to the state."""
        if isinstance(conjunct, (Eq, DistAtom)):
            if not anchored:
                return None
            if conjunct.left == variable and conjunct.right != variable:
                other = conjunct.right
            elif conjunct.right == variable and conjunct.left != variable:
                other = conjunct.left
            else:
                return None
            if other in unbound:
                return None
            if isinstance(conjunct, Eq):
                return lambda env: (env[other],)
            ball = self._ball_lookup(conjunct.bound)
            return lambda env: set(ball(env[other]))
        if isinstance(conjunct, Atom):
            if variable not in conjunct.args:
                return None
            args = conjunct.args
            targets = tuple(i for i, arg in enumerate(args) if arg == variable)
            bound = tuple(
                i for i, arg in enumerate(args) if arg != variable and arg not in unbound
            )
            if anchored != bool(bound):
                return None
            projection = self.structure.projection(
                self._symbol(conjunct.relation), bound, targets
            )
            if not bound:
                pool = projection.get((), ())
                return lambda env: pool
            if len(bound) == 1:
                name = args[bound[0]]
                return lambda env: projection.get(env[name], ())
            key = itemgetter(*(args[i] for i in bound))
            return lambda env: projection.get(key(env), ())
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
            hidden = unbound | shadowed
            getters = (
                self._pool_getter(piece, variable, hidden, anchored)
                for piece in self._conjuncts(inner)
            )
            pieces = tuple(getter for getter in getters if getter is not None)
            if not pieces:
                return None
            return pieces[0] if len(pieces) == 1 else partial(_smallest, pieces)
        return None

    def _symbol(self, relation: str) -> RelationSymbol:
        symbol = self.structure.signature.get(relation)
        if symbol is None:
            raise EvaluationError(f"relation {relation!r} missing from the signature")
        return symbol

    def _pick(
        self, node: "_SearchNode", env: Dict[Variable, Element]
    ) -> "Tuple[Pool, _Choice, Optional[_SearchNode]]":
        """The candidate pool (the tightest guard's, or the node's fixed
        pool), the choice it belongs to, and the node below it (None at the
        last level)."""
        if node.options is None:
            pool, choice = node.pool, node.choice
        else:
            pool, choice = _smallest_guard(node.options, env)
        metrics = self._metrics
        if metrics is not None:
            metrics.inc(_PHASE_COUNTERS[node.phase])
            if node.options is not None:
                metrics.observe("evaluator.guard.pool_size", len(pool))
        child = choice.child
        if child is None and choice.rest:
            child = choice.child = self._search_node(choice.root, choice.rest, top=False)
        return pool, choice, child

    def _count_search(self, node: "_SearchNode", env: Dict[Variable, Element]) -> int:
        """The number of assignments of the node's unbound variables
        satisfying its conjuncts; ``env`` is extended in place."""
        if node.phase == _LEAF:
            return 1 if all(self.holds(c, env) for c in node.conjuncts) else 0
        pool, choice, child = self._pick(node, env)
        checks = choice.checks
        budget = self.budget
        if child is None and not checks:
            if budget is not None:
                for _ in pool:
                    budget.tick("evaluator.enumerate")
            return len(pool)
        variable = choice.variable
        total = 0
        for candidate in pool:
            if budget is not None:
                budget.tick("evaluator.enumerate")
            env[variable] = candidate
            for check in checks:
                if not check(env):
                    break
            else:
                total += 1 if child is None else self._count_search(child, env)
        env.pop(variable, None)
        return total

    def _enumerate(
        self, node: "_SearchNode", env: Dict[Variable, Element]
    ) -> Iterator[None]:
        """Yield once per assignment of the node's unbound variables
        satisfying its conjuncts, left bound in ``env`` (existence stops at
        the first, :meth:`solutions` reads each)."""
        if node.phase == _LEAF:
            if all(self.holds(c, env) for c in node.conjuncts):
                yield None
            return
        pool, choice, child = self._pick(node, env)
        checks = choice.checks
        variable = choice.variable
        budget = self.budget
        for candidate in pool:
            if budget is not None:
                budget.tick("evaluator.enumerate")
            env[variable] = candidate
            for check in checks:
                if not check(env):
                    break
            else:
                if child is None:
                    yield None
                else:
                    yield from self._enumerate(child, env)
        env.pop(variable, None)

    # -- first-order satisfaction -----------------------------------------------------

    def holds(self, formula: Formula, env: Dict[Variable, Element]) -> bool:
        test = self._test(formula)
        if test is not None:
            return test(env)
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
        through the satisfaction memo.

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
            relation = self.structure.relation(self._symbol(atom.relation))
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
        if isinstance(formula, DistAtom):
            ball = self._ball_lookup(formula.bound)
            left, right = formula.left, formula.right

            def test(env):
                try:
                    a, b = env[left], env[right]
                except KeyError as error:
                    raise _unassigned(error) from None
                return b in ball(a)

            return test
        if isinstance(formula, Top):
            return lambda env: True
        if isinstance(formula, Bottom):
            return lambda env: False
        return None

    def _check(self, conjunct: Formula) -> Test:
        """A per-candidate check: the in-place test, or a memoised
        :meth:`holds` reached through a weak reference, so that search
        nodes storing the check hold no reference to the state."""
        return self._test(conjunct) or partial(_holds_through, self._ref, conjunct)

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
        node = self._search_node(self._conjuncts(body), variables)
        scratch = {k: val for k, val in env.items() if k not in variables}
        for _ in self._enumerate(node, scratch):
            return True
        return False

    # -- enumeration ----------------------------------------------------------------------

    def solutions(
        self, variables: Tuple[Variable, ...], body: Formula
    ) -> Iterator[Tuple[Element, ...]]:
        """Enumerate satisfying assignments (guard-driven where possible)."""
        node = self._search_node(self._conjuncts(body), tuple(variables))
        env: Dict[Variable, Element] = {}
        for _ in self._enumerate(node, env):
            yield tuple(env[v] for v in variables)

    # -- checkpointing -----------------------------------------------------------------

    def export_memo_snapshot(self) -> List[Tuple]:
        """Serialise the satisfaction/count memos in an id-free form.

        Memo keys are already alpha-canonical pretty text (see the module
        docstring), which survives a process boundary as-is: identical
        text implies alpha-equivalent formula, and for a fixed structure
        the memoised value is a function of the formula and its relevant
        bindings.  Entries are exported verbatim, and each column as the
        per-element count entries :meth:`count` would have stored (a
        column a suspension cut short gives its finished prefix).
        """
        return memo_entries(self._holds_memo, self._count_memo, self._columns)

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
        self.state = ExecutionState(structure, predicates, plan, budget)
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

    def _register_memos(self) -> None:
        state = self.state
        self._session.register_memo(
            self._ckpt_key, state._holds_memo, state._count_memo, state._columns
        )

    def _run(self, thunk):
        """Run one plan runner, registering the memo tables with the
        checkpoint session on the way out — both on success (a later
        executor in the same run may suspend) and on suspension (the
        resumed run restores them).  The session exports them when they
        are needed (see :meth:`CheckpointSession.register_memo`)."""
        if self._session is None:
            return thunk()
        try:
            result = thunk()
        except SuspendedError:
            self._register_memos()
            raise
        self._register_memos()
        return result

    def prepare(self) -> None:
        """Execute the materialisation steps (Theorem 6.10 stages) once.

        Under an active checkpoint session, restored memo entries are
        attached first, so a stratum the checkpoint did not finish takes
        its recorded count values without ticks; then already-recorded
        strata are replayed from the checkpoint (no oracle queries, no
        budget ticks) and newly computed strata are recorded.
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
        entries = session.resumed_memo(key)
        if entries:
            self.state.restore_memo_snapshot(entries, self._restore_nodes())
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
                        index,
                        step.symbol,
                        step.arity,
                        tuple(sorted_tuples(tuples, self.state.structure)),
                    ),
                )
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
            universe = self.state.structure.universe_order
            targets = list(universe if elements is None else elements)
            values = self.state._term_column(self.plan.roots[0], variable, targets)
            return dict(zip(targets, values))

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
