"""The plan executor: runtime state for one structure, one plan.

:class:`ExecutionState` is the engine's evaluation machinery — memo
tables, ball caches, guarded enumeration — so that every engine (the
FOC1 evaluator, the Section 8.2 main algorithm, the robustness cascade)
runs queries through one instrumented code path.  It runs compiled plans
only.  A :class:`~repro.plan.ir.QueryPlan` supplies the Theorem 6.10
materialisation steps, which the executor applies in stratum order, and
the Lemma 6.4 count DAG: every count with counted variables dispatches
through the body's compiled step, and a body without one is an
:class:`~repro.errors.EvaluationError`.  Memo tables survive across
materialisation steps: the auxiliary relations are at most unary, so they
add no Gaifman edges and invalidate neither ball caches nor prior
satisfaction/count entries.

Budget ticks (``evaluator.materialise`` / ``evaluator.count`` /
``evaluator.enumerate`` / ``evaluator.holds``), fault-injection sites
(``predicate.oracle`` / ``memo.insert``) and all ``evaluator.*`` metrics
live here and only here.

Compile once, bind per state
----------------------------
The executor runs the plan's node table (:mod:`repro.plan.ir`), not its
ASTs: every formula, term and count it evaluates is a node id, and the
memos key on ``(node id, bindings)``.  Everything about a node that does
not depend on the structure — its op, free variables, conjunct list,
count step, column-kernel qualification, and the guarded search programs
over its conjuncts — lives in the plan, compiled once
(:func:`~repro.plan.compiler.search_program` compiles a search on its
first use by any state).  A state only *binds* what it uses to its
structure, once: an atom's test to the relation's frozenset or the cached
ball, a search program's pool descriptors to the structure's projections,
a kernel to its projection.  The bindings are rebuilt after each
materialisation step, which replaces the structure.  A node handed in from
outside the plan (``state.holds(parse_formula(...))``) takes a slow path:
it is added to the plan's table by its alpha-canonical text.

Atoms are tested in place, not memoised: ``R(x, y)``, ``x = y``,
``dist(x, y) <= d``, their negations, Top and Bottom bind to a closure —
a membership probe on the relation's frozenset, an equality, or a lookup
in the state's cached ball.  An atom test builds no memo key, stores no
entry, ticks no ``evaluator.holds`` step and reaches no ``memo.insert``
fault site; the per-candidate ``evaluator.enumerate`` tick of guarded
enumeration still pays for every atom test, so a budget bounds all work.

A bound search node holds its guard sources as pool getters — an anchored
guard is one lookup in a :meth:`Structure.projection` keyed by the bound
values, a scan is a constant pool, a ball guard the cached ball — and per
choice of variable and guard the checks each candidate must pass and the
node below, bound on first descent.  Counting descends through
integer-returning recursion (:meth:`ExecutionState._count_search`);
existence and enumeration walk the same nodes through one generator
(:meth:`ExecutionState._enumerate`).  Bound nodes, tests and kernels hold
no reference to the state, so a state is freed by reference counting
when its engine call drops it; states are scoped to one public engine
call.

Compound formulas, predicate atoms and counts go through the
satisfaction/count memos.  Alpha-equivalent nodes share one id — e.g.
``#(y). E(x, y)`` and ``#(z). E(x, z)`` hit the same count cell — and an
id's canonical text is its checkpoint key.

Column kernels
--------------
Strata and unary terms are evaluated a column at a time
(:meth:`ExecutionState._term_column`): ``+`` and ``*`` element by element
(the right factor only where the left is non-zero), and a count through a
*kernel* when the plan qualified it: one component over one counted
variable ``y``, with no gates and no unused variables, whose search is
anchored by one guard, a binary relation atom over the column variable
``x`` and ``y``, and whose other conjuncts have in-place tests.  The value
at ``a`` is then the size of ``projection.get(a)`` intersected with the
positive unary atoms over ``y`` (one ``evaluator.enumerate`` tick weighted
by the pool size) when they are the other conjuncts; else the count's
search tests the others per candidate, as a count does.  Other counts run
per element.  Each element computed charges what a count would.  Columns
live in their own memo, keyed by the count's id and ``x``, one
``memo.insert`` fault site per column; counts read them, and an element
found in the count memo (restored) costs nothing.  Checkpoints get each
column, or a suspended column's finished prefix, as the count entries a
count would have stored, and a resumed :class:`PlanExecutor` restores them
before it replays strata.

Under a checkpoint session a :class:`PlanExecutor` records each stratum as
it materialises it, but only *registers* its memo tables with the session
when a runner returns or suspends.  The session exports them, as
:meth:`ExecutionState.export_memo_snapshot` would, when the next executor
starts or registers, or when it takes a snapshot; a run of one executor
that never suspends exports nothing.
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
from ..logic.syntax import CountTerm, Formula, Term, Variable
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
from . import ir
from .compiler import conjunct_ids, intern_node, search_program
from .ir import MaterialiseStep, QueryPlan

__all__ = ["ExecutionState", "PlanExecutor"]

#: A bound satisfaction test (see :meth:`ExecutionState._test`).
Test = Callable[[Dict[Variable, Element]], bool]
#: A candidate pool of guarded enumeration, iterated in a fixed order.
Pool = Union[Tuple[Element, ...], FrozenSet[Element]]
PoolGetter = Callable[[Dict[Variable, Element]], Pool]

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
    checks each candidate must pass and the search for the variables left
    (the plan's program ``key``, bound on first descent into ``child``;
    None at the last level)."""

    __slots__ = ("variable", "checks", "key", "child")

    def __init__(self, variable: Variable, checks: Tuple[Test, ...], key):
        self.variable = variable
        self.checks = checks
        self.key = key
        self.child: "Optional[_SearchNode]" = None


class _SearchNode:
    """A search program (:func:`~repro.plan.compiler.search_program`)
    bound to one state's structure.

    In the anchored and scan phases ``options`` lists, per unbound
    variable with a guard, the ``(pool getter, choice)`` pair of each guard
    conjunct; otherwise ``pool`` and ``choice`` are fixed.  Holds no
    reference to the state.
    """

    __slots__ = ("conjuncts", "phase", "options", "pool", "choice")

    def __init__(
        self,
        conjuncts: Tuple[int, ...],
        phase: int,
        options: "Optional[Tuple[Tuple[Tuple[PoolGetter, _Choice], ...], ...]]" = None,
        pool: Pool = (),
        choice: "Optional[_Choice]" = None,
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
    state: "weakref.ref[ExecutionState]", formula: int, env: Dict[Variable, Element]
) -> bool:
    return state()._holds(formula, env)  # type: ignore[union-attr]


class ExecutionState:
    """Evaluation state for one (possibly expanded) structure and one
    compiled plan: memo tables, ball caches, the bindings of the plan's
    tests, search programs and kernels, materialisation and count-step
    dispatch.  Internal methods take node ids; the public ones take ASTs
    (see the module docstring)."""

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
        self._nodes = plan.nodes
        self._holds_memo: Dict[Tuple, bool] = {}
        self._count_memo: Dict[Tuple, int] = {}
        # Column kernels' values, per (count id, column variable).
        self._columns: Dict[Tuple[int, Variable], Dict[Element, int]] = {}
        # The plan's tests, search programs and kernels bound to the
        # structure, per node id, program key and (count id, variable);
        # rebuilt whenever the structure is extended.
        self._bound_tests: Dict[int, Test] = {}
        self._bound_nodes: Dict[tuple, _SearchNode] = {}
        self._bound_kernels: Dict[Tuple[int, Variable], Optional[tuple]] = {}
        # Per-candidate checks reach the memo through this weak reference
        # (see _check), so that no search node keeps the state alive.
        self._ref = weakref.ref(self)
        self._ball_caches: Dict[int, Dict[Element, FrozenSet[Element]]] = {}

    def _ball_lookup(self, distance: int) -> Callable[[Element], FrozenSet[Element]]:
        """The cached ``distance``-ball of an element, as a function that
        holds the cache and the structure but not the state."""
        cache = self._ball_caches.setdefault(distance, {})
        return partial(_ball, cache, self.structure, self._metrics, distance)

    def _symbol(self, relation: str) -> RelationSymbol:
        symbol = self.structure.signature.get(relation)
        if symbol is None:
            raise EvaluationError(f"relation {relation!r} missing from the signature")
        return symbol

    def _extend(self, symbol: RelationSymbol, tuples: Iterable[Tup]) -> None:
        """Expand the structure by one auxiliary relation.

        Memos and columns survive (aux relations are <=1-ary: no new
        Gaifman edges, no change to existing relations); the bound tests,
        search nodes and kernels captured the old structure's relations,
        so they are rebuilt on next use.
        """
        from ..structures.operations import expansion

        self.structure = expansion(
            self.structure, Signature([symbol]), {symbol.name: tuples}
        )
        self._bound_tests.clear()
        self._bound_nodes.clear()
        self._bound_kernels.clear()

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
        terms = self.plan.step_ids[self.plan.steps.index(step)]
        if step.arity == 0:
            values = tuple(self._term(t, {}) for t in terms)
            fault_check("predicate.oracle")
            holds = self.predicates.query(step.predicate, values)
            tuples: Set[Tup] = {()} if holds else set()
        else:
            assert step.variable is not None
            universe = self.structure.universe_order
            columns = [self._term_column(t, step.variable, universe) for t in terms]
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
        return self._term(intern_node(self.plan, term), env)

    def _term(self, term: int, env: Dict[Variable, Element]) -> int:
        op, _, _, args = self._nodes[term]
        if op == ir.INT:
            return args[0]
        if op == ir.ADD:
            return self._term(args[0], env) + self._term(args[1], env)
        if op == ir.MUL:
            left = self._term(args[0], env)
            if left == 0:
                return 0
            return left * self._term(args[1], env)
        return self._count(term, env)

    def _term_column(
        self, term: int, variable: Variable, elements: Sequence[Element]
    ) -> List[int]:
        """``_term(term, {variable: a})`` for every ``a`` in ``elements``:
        element by element through ``+`` and ``*`` (the right factor only
        where the left is non-zero), a count as one column."""
        op, _, _, args = self._nodes[term]
        if op == ir.INT:
            return [args[0]] * len(elements)
        if op == ir.ADD:
            left = self._term_column(args[0], variable, elements)
            right = self._term_column(args[1], variable, elements)
            return [a + b for a, b in zip(left, right)]
        if op == ir.MUL:
            left = self._term_column(args[0], variable, elements)
            live = [a for a, value in zip(elements, left) if value]
            right = iter(self._term_column(args[1], variable, live))
            return [value * next(right) if value else 0 for value in left]
        return self._count_column(term, variable, elements)

    def _count_column(
        self, count: int, variable: Variable, elements: Sequence[Element]
    ) -> List[int]:
        """The count at every element: one pass over its kernel's
        projection (see the module docstring), else a count per element.
        Each element computed charges what a count would; one in the
        column or the count memo (restored) costs nothing."""
        if not elements:
            return []
        kernel = self._kernel(count, variable)
        if kernel is None:
            return [self._count(count, {variable: a}) for a in elements]
        projection, members, node = kernel
        column = self._columns.get((count, variable))
        if column is None:
            fault_check("memo.insert")
            column = self._columns[(count, variable)] = {}
            if self._metrics is not None:
                self._metrics.inc("evaluator.count.column")
        memo = self._count_memo
        budget = self.budget
        computed = 0
        values = []
        for a in elements:
            value = column.get(a)
            if value is None and memo:
                value = memo.get((count, ((variable, a),)))
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

    def _kernel(self, count: int, variable: Variable) -> Optional[tuple]:
        """The plan's column kernel of ``count`` over ``variable`` bound to
        the structure, or None: the guard's projection from ``variable`` to
        the counted variable, and either the member set of the unary atoms
        (None for none) and None, or None and the search node that tests
        the other conjuncts per candidate."""
        key = (count, variable)
        if key in self._bound_kernels:
            return self._bound_kernels[key]
        _, _, free, (_, step, kernel) = self._nodes[count]
        bound = None
        if kernel is not None and free == (variable,):
            relation, anchor, unary = kernel
            projection = self.structure.projection(
                self._symbol(relation), (anchor,), (1 - anchor,)
            )
            members: Optional[Set[Element]] = None
            for name in unary or ():
                found = self.structure.projection(self._symbol(name), (), (0,)).get((), ())
                members = set(found) if members is None else members.intersection(found)
            node = self._node(step[2][0]) if unary is None else None
            bound = projection, members, node
        self._bound_kernels[key] = bound
        return bound

    # -- counting ---------------------------------------------------------------------

    def count(
        self,
        variables: Tuple[Variable, ...],
        body: Formula,
        env: Dict[Variable, Element],
    ) -> int:
        return self._count(intern_node(self.plan, CountTerm(variables, body)), env)

    def _count(self, count: int, env: Dict[Variable, Element]) -> int:
        _, _, names, (variables, _, _) = self._nodes[count]
        # Outer bindings of the counted variables are shadowed by the binder.
        if any(v in env for v in variables):
            env = {k: val for k, val in env.items() if k not in variables}
        key = (count, tuple((v, env[v]) for v in names if v in env))
        cached = self._count_memo.get(key)
        if cached is None and self._columns and len(key[1]) == 1:
            # A column kernel may hold it (see _count_column).
            ((name, value),) = key[1]
            cached = self._columns.get((count, name), {}).get(value)
        if cached is None:
            if self.budget is not None:
                self.budget.tick("evaluator.count")
            if self._metrics is not None:
                self._metrics.inc("evaluator.count.memo.miss")
            cached = self._tally(count, env)
            fault_check("memo.insert")
            self._count_memo[key] = cached
        elif self._metrics is not None:
            self._metrics.inc("evaluator.count.memo.hit")
        return cached

    def _tally(self, count: int, env: Dict[Variable, Element]) -> int:
        """Dispatch the count's compiled Lemma 6.4 step."""
        _, text, _, (variables, step, _) = self._nodes[count]
        if step is None:
            raise EvaluationError(
                f"no compiled count step for {text}: not a node of this state's plan"
            )
        kind = step[0]
        if kind == ir.CHECK:
            return 1 if self._holds(step[1], env) else 0
        n = self.structure.order()
        k = len(variables)
        if kind == ir.CONSTANT:
            return 0 if step[1] else n**k
        if kind == ir.COMPLEMENT:
            return n**k - self._count(step[1], env)
        if kind == ir.INCLUSION_EXCLUSION:
            return (
                self._count(step[1], env)
                + self._count(step[2], env)
                - self._count(step[3], env)
            )
        if kind == ir.REWRITE:
            return self._count(step[1], env)
        _, gates, components, unused = step
        for gate in gates:
            if not self._holds(gate, env):
                return 0
        result = 1
        for key in components:
            # Guarded backtracking count of one variable-connected component.
            part = self._count_search(self._node(key), dict(env))
            if part == 0:
                return 0
            result *= part
        return result * n**unused

    # -- guarded search ------------------------------------------------------------

    def _node(self, key: tuple) -> _SearchNode:
        """The plan's search program for ``key`` bound to the structure."""
        node = self._bound_nodes.get(key)
        if node is None:
            program = self.plan.programs.get(key) or search_program(self.plan, key)
            phase, conjuncts, options, choice = program
            if options is not None:
                bound = tuple(
                    tuple((self._pool(pool), self._choice(c)) for _, pool, c in guards)
                    for guards in options
                )
                node = _SearchNode(conjuncts, phase, options=bound)
            elif choice is None:
                node = _SearchNode(conjuncts, phase)
            else:
                universe = self.structure.universe_order
                node = _SearchNode(conjuncts, phase, pool=universe, choice=self._choice(choice))
            self._bound_nodes[key] = node
        return node

    def _choice(self, choice: tuple) -> _Choice:
        variable, checks, key = choice
        return _Choice(variable, tuple(map(self._check, checks)), key)

    def _pool(self, pool: tuple) -> PoolGetter:
        """A pool descriptor bound to the structure, as a function of the
        environment that holds no reference to the state."""
        kind = pool[0]
        if kind == "eq":
            other = pool[1]
            return lambda env: (env[other],)
        if kind == "ball":
            ball, other = self._ball_lookup(pool[1]), pool[2]
            return lambda env: ball(env[other])
        if kind == "any":
            return partial(_smallest, tuple(map(self._pool, pool[1])))
        _, relation, bound, targets, names = pool
        projection = self.structure.projection(self._symbol(relation), bound, targets)
        if not bound:
            found = projection.get((), ())
            return lambda env: found
        if len(bound) == 1:
            (name,) = names
            return lambda env: projection.get(env[name], ())
        key = itemgetter(*names)
        return lambda env: projection.get(key(env), ())

    def _pick(
        self, node: _SearchNode, env: Dict[Variable, Element]
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
        child = choice.child  # type: ignore[union-attr]
        if child is None and choice.key is not None:  # type: ignore[union-attr]
            child = choice.child = self._node(choice.key)  # type: ignore[union-attr]
        return pool, choice, child  # type: ignore[return-value]

    def _count_search(self, node: _SearchNode, env: Dict[Variable, Element]) -> int:
        """The number of assignments of the node's unbound variables
        satisfying its conjuncts; ``env`` is extended in place."""
        if node.phase == ir.LEAF:
            return 1 if all(self._holds(c, env) for c in node.conjuncts) else 0
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
        self, node: _SearchNode, env: Dict[Variable, Element]
    ) -> Iterator[None]:
        """Yield once per assignment of the node's unbound variables
        satisfying its conjuncts, left bound in ``env`` (existence stops at
        the first, :meth:`_solutions` reads each)."""
        if node.phase == ir.LEAF:
            if all(self._holds(c, env) for c in node.conjuncts):
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
        return self._holds(intern_node(self.plan, formula), env)

    def _holds(self, formula: int, env: Dict[Variable, Element]) -> bool:
        op, _, free, _ = self._nodes[formula]
        if op <= ir.BOTTOM:
            return self._test(formula)(env)
        key = (formula, tuple((v, env[v]) for v in free if v in env))
        cached = self._holds_memo.get(key)
        if cached is None:
            if self.budget is not None:
                self.budget.tick("evaluator.holds")
            if self._metrics is not None:
                self._metrics.inc("evaluator.holds.memo.miss")
            cached = self._evaluate(formula, env)
            fault_check("memo.insert")
            self._holds_memo[key] = cached
        elif self._metrics is not None:
            self._metrics.inc("evaluator.holds.memo.hit")
        return cached

    def _test(self, formula: int) -> Test:
        """The atom's in-place test bound to the structure (see the module
        docstring).  A test holds no reference to the state."""
        test = self._bound_tests.get(formula)
        if test is not None:
            return test
        op, _, _, args = self._nodes[formula]
        negated = op < ir.TOP and op % 2 == 1
        if op in (ir.ATOM, ir.NOT_ATOM):
            relation = self.structure.relation(self._symbol(args[0]))
            names = args[1]
            if len(names) == 1:
                # itemgetter of one key returns the bare value, not a 1-tuple.
                (name,) = names

                def values(env):
                    return (env[name],)

            else:
                values = itemgetter(*names) if names else lambda env: ()

            def test(env):
                try:
                    return (values(env) in relation) != negated
                except KeyError as error:
                    raise _unassigned(error) from None

        elif op in (ir.EQ, ir.NOT_EQ):
            left, right = args

            def test(env):
                try:
                    return (env[left] == env[right]) != negated
                except KeyError as error:
                    raise _unassigned(error) from None

        elif op in (ir.DIST, ir.NOT_DIST):
            left, right, distance = args
            ball = self._ball_lookup(distance)

            def test(env):
                try:
                    a, b = env[left], env[right]
                except KeyError as error:
                    raise _unassigned(error) from None
                return (b in ball(a)) != negated

        else:
            test = (lambda env: True) if op == ir.TOP else (lambda env: False)
        self._bound_tests[formula] = test
        return test

    def _check(self, formula: int) -> Test:
        """A per-candidate check: the in-place test, or a memoised
        :meth:`_holds` reached through a weak reference, so that search
        nodes storing the check hold no reference to the state."""
        if self._nodes[formula].op <= ir.BOTTOM:
            return self._test(formula)
        return partial(_holds_through, self._ref, formula)

    def _evaluate(self, formula: int, env: Dict[Variable, Element]) -> bool:
        """Evaluate a compound formula or predicate atom (atoms are tested
        in place by :meth:`_holds` and never reach here)."""
        op, _, _, args = self._nodes[formula]
        if op == ir.NOT:
            return not self._holds(args[0], env)
        if op == ir.AND:
            return self._holds(args[0], env) and self._holds(args[1], env)
        if op == ir.OR:
            return self._holds(args[0], env) or self._holds(args[1], env)
        if op == ir.IMPLIES:
            return (not self._holds(args[0], env)) or self._holds(args[1], env)
        if op == ir.IFF:
            return self._holds(args[0], env) == self._holds(args[1], env)
        if op in (ir.EXISTS, ir.FORALL):
            # Witness search with guard-driven candidate pools and early
            # exit; a Forall searches for a counterexample.
            variables, conjuncts = args
            scratch = {k: val for k, val in env.items() if k not in variables}
            for _ in self._enumerate(self._node((conjuncts, variables)), scratch):
                return op == ir.EXISTS
            return op == ir.FORALL
        # A predicate atom, evaluated inline: reached only for atoms outside
        # FOC1 (more than one joint free variable) when fragment checking is
        # off.
        values = tuple(self._term(t, env) for t in args[1])
        fault_check("predicate.oracle")
        return self.predicates.query(args[0], values)

    # -- enumeration ----------------------------------------------------------------------

    def _solutions(
        self, formula: int, variables: Tuple[Variable, ...]
    ) -> Iterator[Tuple[Element, ...]]:
        """Enumerate satisfying assignments (guard-driven where possible)."""
        env: Dict[Variable, Element] = {}
        node = self._node((conjunct_ids(self.plan, formula), variables))
        for _ in self._enumerate(node, env):
            yield tuple(env[v] for v in variables)

    # -- checkpointing -----------------------------------------------------------------

    def export_memo_snapshot(self) -> List[Tuple]:
        """Serialise the satisfaction/count memos in an id-free form.

        Each memo key's node id becomes its alpha-canonical text, which
        survives a process boundary as-is: identical text implies
        alpha-equivalent formula, and for a fixed structure the memoised
        value is a function of the formula and its relevant bindings.
        Each column is exported as the per-element count entries a count
        would have stored (a column a suspension cut short gives its
        finished prefix).
        """
        return memo_entries(
            self._holds_memo, self._count_memo, self._columns, self._nodes
        )

    def restore_memo_snapshot(self, entries: Iterable[Tuple]) -> int:
        """Install exported memo entries whose text names a node of this
        state's plan, under that node's id; returns how many."""
        ids = self.plan.ids
        memos = {"holds": self._holds_memo, "count": self._count_memo}
        restored = 0
        for entry in entries:
            if len(entry) != 4 or entry[0] not in memos:
                continue
            kind, text, relevant, value = entry
            node = ids.get(text)
            if node is not None:
                memos[kind][(node, relevant)] = value
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

    def _register_memos(self) -> None:
        state = self.state
        self._session.register_memo(
            self._ckpt_key,
            state._holds_memo,
            state._count_memo,
            state._columns,
            state._nodes,
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
            self.state.restore_memo_snapshot(entries)
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
            lambda: (self.prepare(), self.state._holds(self.plan.root_ids[0], {}))[1]
        )

    def count_value(self) -> int:
        return self._run(
            lambda: (self.prepare(), self.state._count(self.plan.root_ids[0], {}))[1]
        )

    def ground_term_value(self) -> int:
        return self._run(
            lambda: (self.prepare(), self.state._term(self.plan.root_ids[0], {}))[1]
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
            values = self.state._term_column(self.plan.root_ids[0], variable, targets)
            return dict(zip(targets, values))

        return self._run(run)

    def solutions(self) -> Iterator[Tuple[Element, ...]]:
        self.prepare()
        yield from self.state._solutions(self.plan.root_ids[0], self.plan.variables)

    def query_rows(self) -> List[Tuple]:
        """Rows of an FOC1(P)-query plan: roots are ``(condition, *head
        terms)``, variables the head variables."""

        def run() -> List[Tuple]:
            self.prepare()
            condition, *terms = self.plan.root_ids
            results: List[Tuple] = []
            for tup in self.state._solutions(condition, self.plan.variables):
                assignment = dict(zip(self.plan.variables, tup))
                values = tuple(self.state._term(term, assignment) for term in terms)
                results.append(tup + values)
            return results

        return self._run(run)
