"""The plan compiler: static analysis of FOC(P) expressions.

:func:`compile_plan` performs, once per (normalised expression, signature,
options) triple, the analyses that the evaluation engine previously
re-derived inside every call:

1. **Stratification** (Theorem 6.10).  Innermost numerical predicate
   atoms — no nested predicate atoms, at most one joint free variable
   (rule 4') — become :class:`~repro.plan.ir.MaterialiseStep` entries, the
   atom replaced by a fresh ``Paux__N`` auxiliary relation atom; iterated
   until no eligible atom remains.  Atoms with more than one free variable
   (outside FOC1) are left in place; the executor evaluates them inline.
2. **Counting algebra** (Lemma 6.4).  Every counting body reachable from
   the steps and residual roots is compiled into a
   :data:`~repro.plan.ir.CountStep` DAG: complement, inclusion–exclusion
   (with the overlap conjunction built once), Implies/Iff rewrites, and
   conjunction decomposition into gates + variable-disjoint components +
   unused-variable tail, honouring the plan's factoring option.  This is
   the only implementation of the counting rules: the executor counts a
   body only through its compiled step.
3. **Guard analysis** (Remark 6.3).  Each component records, per counted
   variable, the statically available candidate sources (equality
   binding, distance ball, relation index, exists-block look-through).
4. **Hash-consing.**  Every node the executor evaluates gets an id in the
   plan's node table (:func:`intern_node`), keyed by its alpha-canonical
   text, with its structure-independent description: its test descriptor,
   conjunct list, count step and column-kernel qualification.  The guarded
   search over a conjunct list is compiled into the plan on first use
   (:func:`search_program`).

Before all this, :func:`~repro.plan.normalise.simplify` folds constants and
implied distance atoms out of the canonicalised expressions.

The compiler never sees a structure: plans depend only on the expression,
the signature, and the options — which is what makes them cacheable.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import FormulaError
from ..logic.printer import pretty
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
    Top,
    Variable,
    free_variables,
    subexpressions,
)
from ..obs import active_metrics
from ..structures.signature import RelationSymbol, Signature
from . import ir
from .ir import (
    ComponentPlan,
    CountComplement,
    CountConstant,
    CountDecomposition,
    CountInclusionExclusion,
    CountRewrite,
    CountStep,
    GuardSpec,
    MaterialiseStep,
    PlanNode,
    PlanOptions,
    QueryPlan,
)
from .normalise import canonicalise, flatten_conjuncts, replace_atoms, simplify

__all__ = [
    "compile_plan",
    "conjunct_ids",
    "infer_signature",
    "intern_node",
    "search_program",
]

#: Prefix of the auxiliary relations introduced by stratification.
AUX_PREFIX = "Paux__"


def compile_plan(
    kind: str,
    expressions: Sequence[Expression],
    variables: Sequence[Variable],
    signature: Signature,
    options: "Optional[PlanOptions]" = None,
) -> QueryPlan:
    """Compile one engine operation into an immutable :class:`QueryPlan`.

    ``expressions`` are canonicalised internally, so callers may pass raw
    ASTs; the resulting plan owns every node it references.
    """
    opts = options if options is not None else PlanOptions()
    roots: List[Expression] = [simplify(canonicalise(e)) for e in expressions]
    steps: List[MaterialiseStep] = []
    aux_counter = itertools.count()
    allocated: Set[str] = set()

    def fresh_symbol() -> str:
        while True:
            name = f"{AUX_PREFIX}{next(aux_counter)}"
            if name not in signature and name not in allocated:
                allocated.add(name)
                return name

    stratum = 0
    while True:
        innermost = _innermost_predicate_atoms(roots)
        if not innermost:
            break
        stratum += 1
        mapping: Dict[PredicateAtom, Atom] = {}
        for atom in innermost:
            names = sorted(free_variables(atom))
            symbol = fresh_symbol()
            steps.append(
                MaterialiseStep(
                    symbol=symbol,
                    arity=len(names),
                    variable=names[0] if names else None,
                    predicate=atom.predicate,
                    terms=atom.terms,
                    stratum=stratum,
                )
            )
            mapping[atom] = Atom(symbol, tuple(names))
        roots = [replace_atoms(root, mapping) for root in roots]

    memo: Dict[Tuple[Formula, Tuple[Variable, ...]], "Optional[CountStep]"] = {}
    for expression in [t for s in steps for t in s.terms] + roots:
        for node in subexpressions(expression):
            if isinstance(node, CountTerm):
                _compile_count(node.variables, node.inner, opts, memo)
    entries: List[Expression] = list(roots)
    if kind == "count" and roots:
        _compile_count(tuple(variables), roots[0], opts, memo)  # type: ignore[arg-type]
        entries[0] = CountTerm(tuple(variables), roots[0])  # type: ignore[arg-type]

    plan = QueryPlan(
        kind=kind,
        signature=signature,
        options=opts,
        steps=tuple(steps),
        roots=tuple(roots),
        variables=tuple(variables),
        counts={key: step for key, step in memo.items() if step is not None},
    )
    plan.step_ids = tuple(
        tuple(intern_node(plan, term) for term in step.terms) for step in steps
    )
    plan.root_ids = tuple(intern_node(plan, entry) for entry in entries)
    return plan


def infer_signature(expressions: Sequence[Expression]) -> Signature:
    """The smallest signature covering every relation atom (for ``explain``
    without a structure file); conflicting arities raise
    :class:`~repro.errors.FormulaError`."""
    arities: Dict[str, int] = {}
    for expression in expressions:
        for node in subexpressions(expression):
            if isinstance(node, Atom):
                known = arities.get(node.relation)
                if known is not None and known != len(node.args):
                    raise FormulaError(
                        f"relation {node.relation!r} used with arities "
                        f"{known} and {len(node.args)}"
                    )
                arities[node.relation] = len(node.args)
    return Signature(RelationSymbol(name, arity) for name, arity in arities.items())


# -- stratification -----------------------------------------------------------


def _innermost_predicate_atoms(roots: Sequence[Expression]) -> List[PredicateAtom]:
    """Predicate atoms ready for materialisation across all roots: no nested
    predicate atoms and at most one joint free variable (rule 4'); ineligible
    atoms (outside FOC1) stay inline and the executor evaluates them there."""
    found: Dict[PredicateAtom, None] = {}
    for root in roots:
        for node in subexpressions(root):
            if isinstance(node, PredicateAtom):
                nested = any(
                    isinstance(inner, PredicateAtom) and inner is not node
                    for inner in subexpressions(node)
                )
                if not nested and len(free_variables(node)) <= 1:
                    found.setdefault(node, None)
    return list(found)


# -- counting algebra ---------------------------------------------------------


def _compile_count(
    variables: Tuple[Variable, ...],
    body: Formula,
    options: PlanOptions,
    memo: Dict[Tuple[Formula, Tuple[Variable, ...]], "Optional[CountStep]"],
) -> "Optional[CountStep]":
    """Compile ``#variables.body`` into a count step, recorded in ``memo``
    by ``(body, variables)`` (and recursively every rewrite child's)."""
    if not variables:
        return None  # k = 0 is a boolean check; the executor short-circuits it
    key = (body, variables)
    if key in memo:
        return memo[key]
    memo[key] = None  # cycle guard; ASTs are finite but shared
    step = memo[key] = _build_count(variables, body, options, memo)
    return step


def _build_count(
    variables: Tuple[Variable, ...],
    body: Formula,
    options: PlanOptions,
    memo: Dict[Tuple[Formula, Tuple[Variable, ...]], "Optional[CountStep]"],
) -> CountStep:
    if isinstance(body, Top):
        return CountConstant(variables, zero=False)
    if isinstance(body, Bottom):
        return CountConstant(variables, zero=True)
    if isinstance(body, Not):
        _compile_count(variables, body.inner, options, memo)
        return CountComplement(variables, body.inner)
    if isinstance(body, Or):
        overlap = And(body.left, body.right)
        _compile_count(variables, body.left, options, memo)
        _compile_count(variables, body.right, options, memo)
        _compile_count(variables, overlap, options, memo)
        return CountInclusionExclusion(variables, body.left, body.right, overlap)
    if isinstance(body, Implies):
        rewritten: Formula = Or(Not(body.left), body.right)
        _compile_count(variables, rewritten, options, memo)
        return CountRewrite(variables, rewritten, "implies")
    if isinstance(body, Iff):
        rewritten = Or(
            And(body.left, body.right), And(Not(body.left), Not(body.right))
        )
        _compile_count(variables, rewritten, options, memo)
        return CountRewrite(variables, rewritten, "iff")
    return _build_decomposition(variables, body, options)


def _build_decomposition(
    variables: Tuple[Variable, ...],
    body: Formula,
    options: PlanOptions,
) -> CountDecomposition:
    conjuncts = flatten_conjuncts(body)
    counted = set(variables)

    gates: List[Formula] = []
    active: List[Formula] = []
    for conjunct in conjuncts:
        if free_variables(conjunct) & counted:
            active.append(conjunct)
        else:
            gates.append(conjunct)

    if not active:
        return CountDecomposition(
            variables, tuple(gates), (), unused=tuple(variables)
        )

    if not options.factoring:
        component = ComponentPlan(
            variables=tuple(variables),
            conjuncts=tuple(active),
            guards=_guard_specs(tuple(variables), active, options),
        )
        return CountDecomposition(variables, tuple(gates), (component,), ())

    # Factor into variable-disjoint components (Lemma 6.4 product step):
    # each conjunct merges the groups it shares a counted variable with.
    groups: List[Tuple[Set[Variable], List[Formula]]] = []
    for conjunct in active:
        names = set(free_variables(conjunct)) & counted
        touching = [g for g in groups if g[0] & names]
        merged_names = set(names)
        merged_parts = [conjunct]
        for group in touching:
            merged_names |= group[0]
            merged_parts = group[1] + merged_parts
            groups.remove(group)
        groups.append((merged_names, merged_parts))

    used: Set[Variable] = set()
    components: List[ComponentPlan] = []
    for names, parts in groups:
        used |= names
        ordered = tuple(v for v in variables if v in names)
        components.append(
            ComponentPlan(
                variables=ordered,
                conjuncts=tuple(parts),
                guards=_guard_specs(ordered, parts, options),
            )
        )
    unused = tuple(v for v in variables if v not in used)
    return CountDecomposition(variables, tuple(gates), tuple(components), unused)


# -- guard analysis -----------------------------------------------------------


def _guard_specs(
    variables: Tuple[Variable, ...],
    conjuncts: Sequence[Formula],
    options: PlanOptions,
) -> Tuple[GuardSpec, ...]:
    """Per variable, every statically available candidate source; a lone
    ``scan`` spec when nothing guards it (or guards are disabled)."""
    if not options.guards:
        return tuple(
            GuardSpec(v, "scan", "guards disabled by options") for v in variables
        )
    specs: List[GuardSpec] = []
    for variable in variables:
        found = False
        for conjunct in conjuncts:
            spec = _guard_from(conjunct, variable)
            if spec is not None:
                specs.append(spec)
                found = True
        if not found:
            specs.append(GuardSpec(variable, "scan", "no applicable guard"))
    return tuple(specs)


def _guard_from(conjunct: Formula, variable: Variable) -> "Optional[GuardSpec]":
    """Mirror of the executor's candidate sources, evaluated statically:
    whether this conjunct can *ever* produce a candidate pool for
    ``variable`` (pool contents are runtime data)."""
    if isinstance(conjunct, Eq):
        other = _other_side(conjunct.left, conjunct.right, variable)
        if other is not None:
            return GuardSpec(variable, "equality", pretty(conjunct))
        return None
    if isinstance(conjunct, DistAtom):
        other = _other_side(conjunct.left, conjunct.right, variable)
        if other is not None:
            return GuardSpec(
                variable, "ball", f"{pretty(conjunct)} (radius {conjunct.bound})"
            )
        return None
    if isinstance(conjunct, Atom):
        if variable in conjunct.args:
            return GuardSpec(variable, "index", f"relation {conjunct.relation}")
        return None
    if isinstance(conjunct, Exists):
        shadowed: Set[Variable] = set()
        inner: Formula = conjunct
        while isinstance(inner, Exists):
            shadowed.add(inner.variable)
            inner = inner.inner
        if variable in shadowed:
            return None
        for piece in flatten_conjuncts(inner):
            spec = _guard_from(piece, variable)
            if spec is not None:
                return GuardSpec(
                    variable, spec.kind, f"{spec.source} (inside exists-block)"
                )
        return None
    return None


def _other_side(
    left: Variable, right: Variable, variable: Variable
) -> "Optional[Variable]":
    if left == variable and right != variable:
        return right
    if right == variable and left != variable:
        return left
    return None


# -- hash-consing: the executor's node table ----------------------------------

#: Serialises additions to node tables: a node handed in from outside a
#: shared plan is added while other threads may be running it.
_INTERNING = threading.Lock()

_BINARY = {And: ir.AND, Or: ir.OR, Implies: ir.IMPLIES, Iff: ir.IFF, Add: ir.ADD, Mul: ir.MUL}
_LEAVES = {Atom: ir.ATOM, Eq: ir.EQ, DistAtom: ir.DIST, Top: ir.TOP, Bottom: ir.BOTTOM}


def intern_node(plan: QueryPlan, node: Expression) -> int:
    """The id of ``node``'s alpha-equivalence class in ``plan``'s node
    table, adding it — and every node its evaluation reaches — when the
    table has no node with its alpha-canonical text.  The table holds
    texts, ids and names only, never ``node`` itself."""
    with _INTERNING:
        return _intern(plan, node)


def _intern(plan: QueryPlan, node: Expression) -> int:
    # An atom (or its negation) binds no variable: its text is canonical.
    atom = node.inner if isinstance(node, Not) else node  # type: ignore[union-attr]
    text = pretty(node if type(atom) in _LEAVES else canonicalise(node))
    found = plan.ids.get(text)
    if found is None:
        free = tuple(sorted(free_variables(node)))
        op, args = _describe(plan, node, free)
        plan.nodes.append(PlanNode(op, text, free, args))
        found = plan.ids[text] = len(plan.nodes) - 1
    return found


def _describe(
    plan: QueryPlan, node: Expression, free: Tuple[Variable, ...]
) -> Tuple[int, tuple]:
    """A new node's op and args (see :class:`~repro.plan.ir.PlanNode`),
    interning the nodes they refer to."""
    negated = isinstance(node, Not) and isinstance(node.inner, (Atom, Eq, DistAtom))
    leaf = node.inner if negated else node  # type: ignore[union-attr]
    if type(leaf) in _LEAVES:
        # An atom's fields, in order, are its test: (relation, arguments),
        # (left, right) or (left, right, bound); NOT_X is X + 1.
        return _LEAVES[type(leaf)] + negated, tuple(vars(leaf).values())
    if isinstance(node, Not):
        return ir.NOT, (_intern(plan, node.inner),)
    if type(node) in _BINARY:
        left = _intern(plan, node.left)  # type: ignore[union-attr]
        right = _intern(plan, node.right)  # type: ignore[union-attr]
        if isinstance(node, And):
            conjuncts = conjunct_ids(plan, left) + conjunct_ids(plan, right)
            return ir.AND, (left, right, conjuncts)
        return _BINARY[type(node)], (left, right)
    if isinstance(node, Exists):
        # The whole exists-block is one search, so guards deep inside the
        # body drive candidate generation for every block variable.
        prefix: List[Variable] = []
        body: Formula = node
        while isinstance(body, Exists) and body.variable not in prefix:
            prefix.append(body.variable)
            body = body.inner
        return ir.EXISTS, (tuple(prefix), conjunct_ids(plan, _intern(plan, body)))
    if isinstance(node, Forall):
        return ir.FORALL, ((node.variable,), (_intern(plan, Not(node.inner)),))
    if isinstance(node, PredicateAtom):
        return ir.PREDICATE, (node.predicate, tuple(_intern(plan, t) for t in node.terms))
    if isinstance(node, IntTerm):
        return ir.INT, (node.value,)
    if isinstance(node, CountTerm):
        step = _count_program(plan, node.variables, node.inner)
        return ir.COUNT, (node.variables, step, _kernel(plan, node.variables, free, step))
    raise FormulaError(f"unexpected node {type(node).__name__}")


def conjunct_ids(plan: QueryPlan, formula: int) -> Tuple[int, ...]:
    """The ids of a formula's conjuncts, its nested conjunctions flattened
    and Top left out."""
    node = plan.nodes[formula]
    if node.op == ir.AND:
        return node.args[2]
    return () if node.op == ir.TOP else (formula,)


def _count_program(
    plan: QueryPlan, variables: Tuple[Variable, ...], body: Formula
) -> "Optional[tuple]":
    """The id form of the count step compiled for ``#variables. body``."""
    if not variables:
        return ir.CHECK, _intern(plan, body)
    step = plan.counts.get((body, variables))
    if step is None:
        return None

    def count(inner: Formula) -> int:
        return _intern(plan, CountTerm(variables, inner))

    if isinstance(step, CountConstant):
        return ir.CONSTANT, step.zero
    if isinstance(step, CountComplement):
        return ir.COMPLEMENT, count(step.inner)
    if isinstance(step, CountInclusionExclusion):
        parts = (step.left, step.right, step.overlap)
        return (ir.INCLUSION_EXCLUSION, *map(count, parts))
    if isinstance(step, CountRewrite):
        return ir.REWRITE, count(step.rewritten)
    assert isinstance(step, CountDecomposition)
    components = tuple(
        (tuple(_intern(plan, c) for c in component.conjuncts), component.variables)
        for component in step.components
    )
    gates = tuple(_intern(plan, gate) for gate in step.gates)
    return ir.DECOMPOSE, gates, components, len(step.unused)


def _kernel(
    plan: QueryPlan,
    variables: Tuple[Variable, ...],
    free: Tuple[Variable, ...],
    step: "Optional[tuple]",
) -> "Optional[tuple]":
    """The column kernel of a count over its one free variable ``x``, or
    None when it does not qualify (see :mod:`repro.plan.executor`): the
    guard's relation, the position of ``x`` in it, and the relations of
    the other conjuncts when all are positive unary atoms over the counted
    variable (None: they are tested per candidate)."""
    if step is None or step[0] != ir.DECOMPOSE or step[1] or step[3]:
        return None
    if len(step[2]) != 1 or len(variables) != 1 or len(free) != 1:
        return None
    ((conjuncts, _),) = step[2]
    phase, _, options, _ = search_program(plan, step[2][0])
    if phase != ir.ANCHORED or len(options[0]) != 1:
        return None
    ((guard, _, _),) = options[0]
    ((column,), (counted,)) = free, variables
    op, _, _, args = plan.nodes[guard]
    if op != ir.ATOM or args[1] not in ((column, counted), (counted, column)):
        return None
    rest = [plan.nodes[c] for c in conjuncts if c != guard]
    if all(node.op == ir.ATOM and node.args[1] == (counted,) for node in rest):
        unary: Optional[Tuple[str, ...]] = tuple(node.args[0] for node in rest)
    elif all(node.op <= ir.BOTTOM for node in rest):
        unary = None
    else:
        return None
    return args[0], args[1].index(column), unary


# -- guarded search programs --------------------------------------------------


def search_program(plan: QueryPlan, key: Tuple[Tuple[int, ...], Tuple[Variable, ...]]) -> tuple:
    """Compile the guarded search binding ``key``'s variables over its
    conjuncts (node ids) and publish it in ``plan.programs``.

    A program is ``(phase, conjuncts, options, choice)``.  The phase is
    static: whether an anchored guard exists for some unbound variable
    depends only on which variables are bound.  ANCHORED offers only the
    guards anchored at a bound variable, SCAN the un-anchored relation
    scans (with connected components needed at most once, for the first
    variable); ``options`` then lists per variable with a guard its
    ``(guard id, pool descriptor, choice)`` triples.  Otherwise the first
    variable ranges over the universe, by ``choice``.  A choice is
    ``(variable, check ids, child key)``: the conjuncts fully bound once
    the variable is, bar an atom guard whose pool satisfies it, and the
    search for the variables left (None at the last level), compiled when
    a search first descends to it.
    """
    conjuncts, unbound = key
    names = frozenset(unbound)
    program = None if unbound else (ir.LEAF, conjuncts, None, None)
    for phase in (ir.ANCHORED, ir.SCAN) if unbound and plan.options.guards else ():
        options = []
        for variable in unbound:
            found = []
            for conjunct in conjuncts:
                pool = _pool(plan, conjunct, variable, names, phase == ir.ANCHORED)
                if pool is not None:
                    found.append((conjunct, pool, _choice(plan, key, variable, conjunct)))
            if found:
                options.append(tuple(found))
        if options:
            program = (phase, conjuncts, tuple(options), None)
            break
    if program is None:
        phase = ir.UNIVERSE if plan.options.guards else ir.DISABLED
        program = (phase, conjuncts, None, _choice(plan, key, unbound[0], None))
    plan.programs[key] = program
    metrics = active_metrics()
    if metrics is not None:
        metrics.inc("plan.program.compiled")
    return program


def _choice(
    plan: QueryPlan,
    key: Tuple[Tuple[int, ...], Tuple[Variable, ...]],
    variable: Variable,
    guard: Optional[int],
) -> tuple:
    conjuncts, unbound = key
    rest = tuple(v for v in unbound if v != variable)
    left = frozenset(rest)
    exact = guard is not None and plan.nodes[guard].op in (ir.ATOM, ir.EQ, ir.DIST)
    checks = tuple(
        c
        for c in conjuncts
        if not left.intersection(plan.nodes[c].free) and not (exact and c == guard)
    )
    below = tuple(c for c in conjuncts if left.intersection(plan.nodes[c].free))
    return variable, checks, (below, rest) if rest else None


def _pool(
    plan: QueryPlan,
    conjunct: int,
    variable: Variable,
    unbound: FrozenSet[Variable],
    anchored: bool,
) -> "Optional[tuple]":
    """The descriptor of the candidate pool ``conjunct`` offers for
    ``variable`` in this phase, or None: ``("eq", other)``,
    ``("ball", radius, other)``, ``("atom", relation, bound positions,
    target positions, bound variables)``, or ``("any", descriptors)`` for
    the smallest of the pools an exists-block's conjuncts offer (a superset
    of the witnesses, which is sound: every candidate is re-checked
    against the whole conjunct)."""
    op, _, _, args = plan.nodes[conjunct]
    if op in (ir.EQ, ir.DIST):
        other = _other_side(args[0], args[1], variable)
        if not anchored or other is None or other in unbound:
            return None
        return ("eq", other) if op == ir.EQ else ("ball", args[2], other)
    if op == ir.ATOM:
        relation, arguments = args
        if variable not in arguments:
            return None
        targets = tuple(i for i, arg in enumerate(arguments) if arg == variable)
        bound = tuple(
            i for i, arg in enumerate(arguments) if arg != variable and arg not in unbound
        )
        if anchored != bool(bound):
            return None
        return "atom", relation, bound, targets, tuple(arguments[i] for i in bound)
    if op == ir.EXISTS:
        prefix, body = args
        if variable in prefix:
            return None
        hidden = unbound.union(prefix)
        found = (_pool(plan, piece, variable, hidden, anchored) for piece in body)
        pieces = tuple(pool for pool in found if pool is not None)
        if not pieces:
            return None
        return pieces[0] if len(pieces) == 1 else ("any", pieces)
    return None
