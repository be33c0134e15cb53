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
   (with the overlap conjunction built once), Implies/Iff rewrites, the
   difference ``#y.(psi & !delta) = #y.psi - #y.(psi & delta)`` for a
   negated equality or distance atom ``delta`` that ties a counted
   variable to another (the product minus the close cases; an equality
   is substituted away in the second term, and the rewrite repeats while
   such a negation remains, but only where ``psi`` is then counted by
   elimination), and conjunction decomposition into gates +
   variable-disjoint components + unused-variable tail, honouring the
   plan's factoring option.  A component whose counted variables form a
   tree (binary relation atoms, unary filters, parallel atoms, at most
   one free variable) gets an :class:`~repro.plan.ir.Elimination`: its
   subtrees are compiled as counts of their own, free in their parent,
   and the executor sums the variables out leaf first (Chen–Mengel).  A
   component that mentions no free variable, beside other parts, is its
   own count, counted once per state.  Either ablation
   (``factoring``/``guards`` off) keeps every component on the guarded
   search.  This is the only implementation of the counting rules: the
   executor counts a body only through its compiled step.
3. **Guard analysis** (Remark 6.3).  Each component records, per counted
   variable, the statically available candidate sources (equality
   binding, distance ball, relation index, exists-block look-through).
4. **Hash-consing.**  Every node the executor evaluates gets an id in the
   plan's node table (:func:`intern_node`), keyed by its alpha-canonical
   text, with its structure-independent description: its test descriptor,
   conjunct list, count step and level.  The guarded
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
    conjunction,
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
    CountDifference,
    CountInclusionExclusion,
    CountRewrite,
    CountStep,
    Elimination,
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
    conjuncts = flatten_conjuncts(body)
    if options.factoring and options.guards:
        difference = _build_difference(variables, conjuncts, options, memo)
        if difference is not None:
            return difference
    return _build_decomposition(variables, conjuncts, options, memo)


def _build_difference(
    variables: Tuple[Variable, ...],
    conjuncts: List[Formula],
    options: PlanOptions,
    memo: Dict[Tuple[Formula, Tuple[Variable, ...]], "Optional[CountStep]"],
) -> "Optional[CountDifference]":
    """Lemma 6.4's "minus the close cases": ``#y.(psi & !delta)`` as
    ``#y.psi - #y.(psi & delta)`` for the first negated equality or
    distance atom ``delta`` that ties a counted variable to another
    variable, or None.  It rewrites only where the body with every such
    negation left out is counted by elimination (through the guarded
    search the difference is slower); the minuend repeats the rewrite
    while a negation remains."""
    counted = set(variables)
    close = [c for c in conjuncts if _negated_tie(c, counted)]
    if not close:
        return None
    _, groups = _partition(counted, [c for c in conjuncts if c not in close])
    if not all(_tree(names, parts) is not None for names, parts in groups):
        return None
    delta = close[0].inner  # type: ignore[attr-defined]
    minuend = conjunction(c for c in conjuncts if c is not close[0])
    kept, within = _close_case(variables, [c for c in conjuncts if c is not close[0]], delta)
    _compile_count(variables, minuend, options, memo)
    _compile_count(kept, within, options, memo)
    return CountDifference(variables, minuend, kept, within, delta)


def _negated_tie(conjunct: Formula, counted: Set[Variable]) -> bool:
    """Whether ``conjunct`` is a negated equality or distance atom between
    two distinct variables, at least one of them counted."""
    if not isinstance(conjunct, Not) or not isinstance(conjunct.inner, (Eq, DistAtom)):
        return False
    left, right = conjunct.inner.left, conjunct.inner.right
    return left != right and bool({left, right} & counted)


def _close_case(
    variables: Tuple[Variable, ...], conjuncts: List[Formula], delta: Formula
) -> Tuple[Tuple[Variable, ...], Formula]:
    """The close side of a difference: ``conjuncts`` and ``delta``.  An
    equality is substituted away: its counted side (the later one when
    both are counted) is renamed to the other and stops being counted."""
    if isinstance(delta, DistAtom):
        return variables, simplify(conjunction([*conjuncts, delta]))
    assert isinstance(delta, Eq)
    left, right = delta.left, delta.right
    if left in variables and (
        right not in variables or variables.index(right) < variables.index(left)
    ):
        gone, kept = left, right
    else:
        gone, kept = right, left
    renamed = [_substitute(c, gone, kept) for c in conjuncts]
    return tuple(v for v in variables if v != gone), simplify(conjunction(renamed))


def _substitute(conjunct: Formula, gone: Variable, kept: Variable) -> Formula:
    """``conjunct`` with ``gone`` renamed to ``kept``; an equality or
    distance atom whose sides meet becomes Top (its negation Bottom).
    Only atoms and negated atoms mention a counted variable here."""
    negated = isinstance(conjunct, Not)
    atom = conjunct.inner if negated else conjunct  # type: ignore[attr-defined]
    if gone not in free_variables(atom):
        return conjunct
    if isinstance(atom, Atom):
        atom = Atom(atom.relation, tuple(kept if a == gone else a for a in atom.args))
    else:
        assert isinstance(atom, (Eq, DistAtom))
        sides = [kept if side == gone else side for side in (atom.left, atom.right)]
        if sides[0] == sides[1]:
            return Bottom() if negated else Top()
        atom = Eq(*sides) if isinstance(atom, Eq) else DistAtom(*sides, atom.bound)
    return Not(atom) if negated else atom


def _partition(
    counted: Set[Variable], conjuncts: Sequence[Formula]
) -> Tuple[List[Formula], List[Tuple[Set[Variable], List[Formula]]]]:
    """The gates (conjuncts without a counted variable) and the
    variable-connected groups of the rest (Lemma 6.4's product step): each
    conjunct merges the groups it shares a counted variable with."""
    gates: List[Formula] = []
    groups: List[Tuple[Set[Variable], List[Formula]]] = []
    for conjunct in conjuncts:
        names = set(free_variables(conjunct)) & counted
        if not names:
            gates.append(conjunct)
            continue
        touching = [g for g in groups if g[0] & names]
        merged_names = set(names)
        merged_parts = [conjunct]
        for group in touching:
            merged_names |= group[0]
            merged_parts = group[1] + merged_parts
            groups.remove(group)
        groups.append((merged_names, merged_parts))
    return gates, groups


def _build_decomposition(
    variables: Tuple[Variable, ...],
    conjuncts: List[Formula],
    options: PlanOptions,
    memo: Dict[Tuple[Formula, Tuple[Variable, ...]], "Optional[CountStep]"],
) -> CountDecomposition:
    counted = set(variables)
    gates, groups = _partition(counted, conjuncts)
    if not groups:
        return CountDecomposition(
            variables, tuple(gates), (), unused=tuple(variables)
        )

    if not options.factoring:
        active = [c for c in conjuncts if c not in gates]
        component = ComponentPlan(
            variables=tuple(variables),
            conjuncts=tuple(active),
            guards=_guard_specs(tuple(variables), active, options),
        )
        return CountDecomposition(variables, tuple(gates), (component,), ())

    used: Set[Variable] = set()
    components: List[ComponentPlan] = []
    alone = not gates and len(groups) == 1 and groups[0][0] == counted
    for names, parts in groups:
        used |= names
        ordered = tuple(v for v in variables if v in names)
        elimination = None
        if options.guards:
            tree = _tree(names, parts)
            if tree is not None:
                elimination = _elimination(ordered, parts, tree, options, memo)
        # A part that mentions no free variable is its own count, once per
        # state (the whole count already is when it is the only part).
        separate = options.guards and not alone and not any(
            free_variables(part) - names for part in parts
        )
        if separate:
            _compile_count(ordered, conjunction(parts), options, memo)
        components.append(
            ComponentPlan(
                variables=ordered,
                conjuncts=tuple(parts),
                guards=_guard_specs(ordered, parts, options),
                elimination=elimination,
                separate=separate,
            )
        )
    unused = tuple(v for v in variables if v not in used)
    return CountDecomposition(variables, tuple(gates), tuple(components), unused)


# -- elimination --------------------------------------------------------------


def _tree(
    counted: Set[Variable], conjuncts: Sequence[Formula]
) -> "Optional[Dict[Variable, List[Variable]]]":
    """The neighbours of each variable when a component is tree-shaped,
    else None.  Tree-shaped: every conjunct is a unary relation atom or its
    negation (a filter), or a binary relation atom over two distinct
    variables (an edge; parallel atoms share one), the edges join the
    counted variables and at most one other variable, and they form a
    tree.  Cycles, self-loops, negated binary atoms, atoms of arity three
    or more, and every other kind of conjunct keep the guarded search."""
    pairs: Dict[FrozenSet[Variable], None] = {}  # in conjunct order
    for conjunct in conjuncts:
        negated = isinstance(conjunct, Not)
        atom = conjunct.inner if negated else conjunct  # type: ignore[attr-defined]
        if not isinstance(atom, Atom):
            return None
        if len(atom.args) == 1:
            continue
        if negated or len(atom.args) != 2 or atom.args[0] == atom.args[1]:
            return None
        pairs[frozenset(atom.args)] = None
    nodes = set(counted).union(*pairs)
    if len(nodes - counted) > 1 or len(pairs) != len(nodes) - 1:
        return None
    neighbours: Dict[Variable, List[Variable]] = {v: [] for v in nodes}
    for pair in pairs:
        u, v = pair
        neighbours[u].append(v)
        neighbours[v].append(u)
    if len(_reach(neighbours, next(iter(counted)), None)) != len(nodes):
        return None
    return neighbours


def _reach(
    neighbours: Dict[Variable, List[Variable]], start: Variable, avoid: Optional[Variable]
) -> List[Variable]:
    """The variables reachable from ``start`` without passing ``avoid``."""
    seen = [start]
    for variable in seen:
        seen.extend(n for n in neighbours[variable] if n != avoid and n not in seen)
    return seen


def _elimination(
    variables: Tuple[Variable, ...],
    conjuncts: Sequence[Formula],
    neighbours: Dict[Variable, List[Variable]],
    options: PlanOptions,
    memo: Dict[Tuple[Formula, Tuple[Variable, ...]], "Optional[CountStep]"],
) -> Elimination:
    """The elimination of a tree-shaped component, its subtree counts
    compiled.  Hung from its free variable, the root is that variable's
    one neighbour; with none, the root is a centre of the tree (fewest
    levels), the first with the most positive filters (the pool that
    filters shrink) and then the first in ``variables``."""
    outside = [v for v in neighbours if v not in variables]
    anchor = outside[0] if outside else None
    if anchor is not None:
        (root,) = neighbours[anchor]
    else:

        def rank(variable: Variable) -> Tuple[int, int]:
            height = _height(neighbours, variable)
            plus = sum(
                isinstance(c, Atom) and c.args == (variable,) for c in conjuncts
            )
            return height, -plus

        root = min(variables, key=rank)
    children = []
    for child in neighbours[root]:
        if child == anchor:
            continue
        below = set(_reach(neighbours, child, root))
        term = CountTerm(
            tuple(v for v in variables if v in below),
            conjunction(c for c in conjuncts if free_variables(c) & below),
        )
        _compile_count(term.variables, term.inner, options, memo)
        children.append(term)
    mine = [c for c in conjuncts if free_variables(c) <= {root, anchor}]
    return Elimination(
        root=root,
        anchor=anchor,
        edges=tuple(
            c for c in (mine if anchor is not None else conjuncts)
            if isinstance(c, Atom) and len(c.args) == 2 and root in c.args
        ),
        filters=tuple(c for c in mine if free_variables(c) == {root}),
        children=tuple(children),
    )


def _height(neighbours: Dict[Variable, List[Variable]], root: Variable) -> int:
    """The number of levels of the tree hung from ``root``."""
    depth = {root: 0}
    order = [root]
    for variable in order:
        for n in neighbours[variable]:
            if n not in depth:
                depth[n] = depth[variable] + 1
                order.append(n)
    return max(depth.values())


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
        return ir.COUNT, (node.variables, step, _level(step))
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
    if isinstance(step, CountDifference):
        close = _intern(plan, CountTerm(step.close_variables, step.close))
        return ir.DIFFERENCE, count(step.minuend), close
    assert isinstance(step, CountDecomposition)
    components = tuple(_component_program(plan, c) for c in step.components)
    gates = tuple(_intern(plan, gate) for gate in step.gates)
    return ir.DECOMPOSE, gates, components, len(step.unused)


def _component_program(plan: QueryPlan, component: ComponentPlan):
    """A component's id form: its own count's id, its :class:`Level`, or
    the key of its guarded search."""
    if component.separate:
        return _intern(plan, CountTerm(component.variables, conjunction(component.conjuncts)))
    tree = component.elimination
    if tree is None:
        return tuple(_intern(plan, c) for c in component.conjuncts), component.variables
    if tree.anchor is None:
        atoms = tuple((a.relation, (), (a.args.index(tree.root),)) for a in tree.edges)
    else:
        atoms = tuple(
            (a.relation, (a.args.index(tree.anchor),), (a.args.index(tree.root),))
            for a in tree.edges
        )
    plus = tuple(f.relation for f in tree.filters if isinstance(f, Atom))
    minus = tuple(
        f.inner.relation for f in tree.filters if isinstance(f, Not)  # type: ignore[attr-defined]
    )
    children = tuple(_intern(plan, child) for child in tree.children)
    return ir.Level(tree.root, tree.anchor, atoms, plus, minus, children)


def _level(step: "Optional[tuple]") -> "Optional[ir.Level]":
    """The :class:`~repro.plan.ir.Level` of a count that decomposes into
    one component counted by elimination (no gates, no unused variables):
    the count is then computed a column at a time (see
    :mod:`repro.plan.executor`)."""
    if step is None or step[0] != ir.DECOMPOSE or step[1] or step[3] or len(step[2]) != 1:
        return None
    (part,) = step[2]
    return part if type(part) is ir.Level else None


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
