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

The compiler never sees a structure: plans depend only on the expression,
the signature, and the options — which is what makes them cacheable.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import FormulaError
from ..logic.printer import pretty
from ..logic.syntax import (
    And,
    Atom,
    Bottom,
    CountTerm,
    DistAtom,
    Eq,
    Exists,
    Expression,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    PredicateAtom,
    Top,
    Variable,
    free_variables,
    subexpressions,
)
from ..structures.signature import RelationSymbol, Signature
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
    PlanOptions,
    QueryPlan,
)
from .normalise import canonicalise, flatten_conjuncts, replace_atoms

__all__ = ["compile_plan", "infer_signature"]

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
    roots: List[Expression] = [canonicalise(e) for e in expressions]
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

    counts: List[Tuple[Formula, CountStep]] = []
    memo: Dict[Tuple[Tuple[Variable, ...], Formula], "Optional[CountStep]"] = {}
    for expression in [t for s in steps for t in s.terms] + roots:
        for node in subexpressions(expression):
            if isinstance(node, CountTerm):
                _compile_count(node.variables, node.inner, opts, counts, memo)
    if kind == "count" and roots:
        _compile_count(tuple(variables), roots[0], opts, counts, memo)  # type: ignore[arg-type]

    return QueryPlan(
        kind=kind,
        signature=signature,
        options=opts,
        steps=tuple(steps),
        roots=tuple(roots),
        variables=tuple(variables),
        count_steps=tuple(counts),
    )


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
    counts: List[Tuple[Formula, CountStep]],
    memo: Dict[Tuple[Tuple[Variable, ...], Formula], "Optional[CountStep]"],
) -> "Optional[CountStep]":
    """Compile ``#variables.body`` into a count step, registering the
    ``(body, step)`` pair (and recursively every rewrite child's)."""
    if not variables:
        return None  # k = 0 is a boolean check; the executor short-circuits it
    key = (variables, body)
    if key in memo:
        step = memo[key]
        if step is not None:
            counts.append((body, step))
        return step
    memo[key] = None  # cycle guard; ASTs are finite but shared
    step = _build_count(variables, body, options, counts, memo)
    memo[key] = step
    if step is not None:
        counts.append((body, step))
    return step


def _build_count(
    variables: Tuple[Variable, ...],
    body: Formula,
    options: PlanOptions,
    counts: List[Tuple[Formula, CountStep]],
    memo: Dict[Tuple[Tuple[Variable, ...], Formula], "Optional[CountStep]"],
) -> CountStep:
    if isinstance(body, Top):
        return CountConstant(variables, zero=False)
    if isinstance(body, Bottom):
        return CountConstant(variables, zero=True)
    if isinstance(body, Not):
        _compile_count(variables, body.inner, options, counts, memo)
        return CountComplement(variables, body.inner)
    if isinstance(body, Or):
        overlap = And(body.left, body.right)
        _compile_count(variables, body.left, options, counts, memo)
        _compile_count(variables, body.right, options, counts, memo)
        _compile_count(variables, overlap, options, counts, memo)
        return CountInclusionExclusion(variables, body.left, body.right, overlap)
    if isinstance(body, Implies):
        rewritten: Formula = Or(Not(body.left), body.right)
        _compile_count(variables, rewritten, options, counts, memo)
        return CountRewrite(variables, rewritten, "implies")
    if isinstance(body, Iff):
        rewritten = Or(
            And(body.left, body.right), And(Not(body.left), Not(body.right))
        )
        _compile_count(variables, rewritten, options, counts, memo)
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
