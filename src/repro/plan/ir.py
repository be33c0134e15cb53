"""The query-plan intermediate representation.

A :class:`QueryPlan` is the *static* half of FOC1(P) evaluation: everything
the paper's analyses decide without looking at a concrete structure's
tuples.  Three layers, mirroring the paper:

* **Stratification** (Theorem 6.10): an ordered tuple of
  :class:`MaterialiseStep` — each turns one innermost numerical predicate
  atom into a fresh 0-ary or unary auxiliary relation, stratum by stratum,
  producing the structure sequence ``A_0, A_1, ..., A_{d+1}``.
* **Counting algebra** (Lemma 6.4): per counting body, a DAG of count
  steps — complement for negation, inclusion–exclusion for disjunction,
  Implies/Iff rewrites, :class:`CountDifference` for a negated equality or
  distance atom (the product minus the close cases), and
  :class:`CountDecomposition` for conjunctions (gate conjuncts,
  variable-disjoint :class:`ComponentPlan` factors, and the ``n^unused``
  tail).  A tree-shaped component carries its :class:`Elimination`: it is
  counted by summing its variables out leaf first, not by search.  The
  intermediate rewrite nodes (the ``And`` overlap of inclusion–exclusion,
  the Implies/Iff expansions, the two sides of a difference and the
  subtree counts of an elimination) are built once at compile time.
* **Guard choices** (Remark 6.3): per component and variable, the
  statically available candidate sources — relation index, equality
  binding, distance ball — recorded as :class:`GuardSpec` annotations.
  The executor still picks the *smallest* pool dynamically (pool sizes
  depend on the structure), but the plan records what it can pick from.

The executor runs the plan's *node table*, not these ASTs: one
:class:`PlanNode` per alpha-equivalence class of node it evaluates, under
a dense integer id (``ids`` maps each canonical text back to it), and the
guarded search ``programs`` over conjunct lists, compiled on first use
and published with one dict store as plain tuples, so a plan stays safe
to share between threads and to pickle.  Plans are immutable apart from
that table's growth (see :func:`repro.plan.compiler.intern_node`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple, Union

from ..logic.printer import pretty
from ..logic.syntax import (
    Atom,
    CountTerm,
    Expression,
    Formula,
    PredicateAtom,
    Term,
    Variable,
    subexpressions,
)
from ..structures.signature import Signature

__all__ = [
    "ComponentPlan",
    "CountComplement",
    "CountConstant",
    "CountDecomposition",
    "CountDifference",
    "CountInclusionExclusion",
    "CountRewrite",
    "CountStep",
    "Elimination",
    "GuardSpec",
    "Level",
    "MaterialiseStep",
    "PlanNode",
    "PlanOptions",
    "QueryPlan",
]


@dataclass(frozen=True)
class PlanOptions:
    """The engine knobs that change what a plan looks like (part of the
    cache key: a factoring-off plan is a different plan)."""

    factoring: bool = True
    guards: bool = True

    def describe(self) -> str:
        onoff = {True: "on", False: "off"}
        return f"factoring={onoff[self.factoring]} guards={onoff[self.guards]}"


@dataclass(frozen=True)
class GuardSpec:
    """One statically available candidate source for one variable
    (Remark 6.3's ball/index exploration, plus equality bindings)."""

    variable: Variable
    kind: str  # "equality" | "ball" | "index" | "scan"
    source: str  # human-readable provenance (the guarding conjunct)

    def describe(self) -> str:
        return f"{self.variable}: {self.kind} [{self.source}]"


@dataclass(frozen=True)
class Elimination:
    """A tree-shaped component counted leaf first (Chen–Mengel): its
    counted variables form a tree joined by binary relation atoms, hung
    from at most one free variable, the ``anchor``.

    At ``root`` the count is the sum, over the members of ``root``'s pool
    that pass its ``filters`` (unary atoms and negated unary atoms over
    ``root``), of the product of the ``children`` counts at that member.
    Each child counts one subtree below ``root``, with ``root`` its one
    free variable, and is compiled the same way.  The pool is the
    intersection of the ``edges`` from the anchor (parallel atoms); with
    no anchor, ``edges`` are the atoms ``root`` occurs in, and the pool is
    the smallest of their projections and the filters' members.
    """

    root: Variable
    anchor: Optional[Variable]
    edges: Tuple[Atom, ...]
    filters: Tuple[Formula, ...]
    children: Tuple[CountTerm, ...]


@dataclass(frozen=True)
class ComponentPlan:
    """One variable-connected factor of a conjunction (Lemma 6.4's product
    step), with its enumeration order domain and guard annotations.

    ``elimination`` is set when the component is tree-shaped (it is then
    counted by elimination, else by guarded search); ``separate`` when it
    mentions no free variable and the decomposition has other parts: it
    is then its own count, counted once per state."""

    variables: Tuple[Variable, ...]
    conjuncts: Tuple[Formula, ...]
    guards: Tuple[GuardSpec, ...] = ()
    elimination: Optional[Elimination] = None
    separate: bool = False


@dataclass(frozen=True)
class MaterialiseStep:
    """Materialise one innermost predicate atom as a fresh <=1-ary
    auxiliary relation (one elimination step of Theorem 6.10)."""

    symbol: str
    arity: int  # 0 or 1
    variable: Optional[Variable]  # the single free variable when arity == 1
    predicate: str
    terms: Tuple[Term, ...]
    stratum: int

    def describe(self) -> str:
        atom = pretty(PredicateAtom(self.predicate, self.terms))
        head = f"{self.symbol}({self.variable})" if self.arity else f"{self.symbol}()"
        shape = "unary" if self.arity else "0-ary"
        return f"[stratum {self.stratum}] {head} := {atom}  ({shape})"


# -- count steps (the Lemma 6.4 DAG) ------------------------------------------


@dataclass(frozen=True)
class CountConstant:
    """``#x-bar.Top = n^k`` / ``#x-bar.Bottom = 0``."""

    variables: Tuple[Variable, ...]
    zero: bool


@dataclass(frozen=True)
class CountComplement:
    """``#x-bar.(not phi) = n^k - #x-bar.phi``."""

    variables: Tuple[Variable, ...]
    inner: Formula


@dataclass(frozen=True)
class CountInclusionExclusion:
    """``#(phi or psi) = #phi + #psi - #(phi and psi)``; ``overlap`` is the
    plan-owned ``And`` node, built once at compile time."""

    variables: Tuple[Variable, ...]
    left: Formula
    right: Formula
    overlap: Formula


@dataclass(frozen=True)
class CountRewrite:
    """Implies/Iff expanded into the Or/And/Not algebra, once."""

    variables: Tuple[Variable, ...]
    rewritten: Formula
    rule: str  # "implies" | "iff"


@dataclass(frozen=True)
class CountDecomposition:
    """A conjunction, factored: gates (no counted variables, checked once
    per environment), variable-disjoint components (counts multiplied),
    and the free ``n^len(unused)`` tail."""

    variables: Tuple[Variable, ...]
    gates: Tuple[Formula, ...]
    components: Tuple[ComponentPlan, ...]
    unused: Tuple[Variable, ...]


@dataclass(frozen=True)
class CountDifference:
    """``#y-bar.(psi and not delta) = #y-bar.psi - #y-bar.(psi and delta)``
    for an equality or distance atom ``delta`` that ties a counted
    variable to another variable: the product minus the close cases.  The
    ``close`` side has an equality substituted away, so it counts
    ``close_variables``, the counted variables less the one substituted."""

    variables: Tuple[Variable, ...]
    minuend: Formula
    close_variables: Tuple[Variable, ...]
    close: Formula
    delta: Formula


CountStep = Union[
    CountConstant,
    CountComplement,
    CountInclusionExclusion,
    CountRewrite,
    CountDecomposition,
    CountDifference,
]


# -- the node table -----------------------------------------------------------

# Node ops.  Formulas up to BOTTOM are tested in place (``NOT_X`` is
# ``X + 1``); the other formulas go through the satisfaction memo.
ATOM, NOT_ATOM, EQ, NOT_EQ, DIST, NOT_DIST, TOP, BOTTOM = range(8)
NOT, AND, OR, IMPLIES, IFF, EXISTS, FORALL, PREDICATE = range(8, 16)
INT, ADD, MUL, COUNT = range(16, 20)

# Count step programs (``PlanNode.args[1]`` of a COUNT node).
CONSTANT, COMPLEMENT, INCLUSION_EXCLUSION, REWRITE, DECOMPOSE, CHECK, DIFFERENCE = range(7)

# Search program phases: how a node's variable and pool are chosen.
ANCHORED = 0  # the smallest pool of a guard anchored at a bound variable
SCAN = 1  # the smallest un-anchored relation scan (a constant pool)
UNIVERSE = 2  # no guard: the first variable ranges over the universe
DISABLED = 3  # guards switched off: likewise
LEAF = 4  # nothing left to bind: the conjuncts are checked once


class Level(NamedTuple):
    """An :class:`Elimination` in the node table: ``variable`` is summed
    out over the pool that ``atoms`` offer from ``anchor`` (None at a
    root), each atom ``(relation, bound positions, target position)``,
    the arguments of :meth:`Structure.projection`; ``plus`` and ``minus``
    name the unary relations that ``variable`` must be in and must not
    be in; ``children`` are the ids of the subtree counts, each free in
    ``variable``."""

    variable: Variable
    anchor: Optional[Variable]
    atoms: Tuple[Tuple[str, Tuple[int, ...], Tuple[int, ...]], ...]
    plus: Tuple[str, ...]
    minus: Tuple[str, ...]
    children: Tuple[int, ...]


class PlanNode(NamedTuple):
    """One alpha-equivalence class of node in a plan's node table: its op,
    its alpha-canonical text (the checkpoint key), its sorted free
    variables (a memo key's bindings) and ``args``, by op (ids are node
    ids):

    * ATOM ``(relation, arguments)``; EQ ``(left, right)``; DIST
      ``(left, right, bound)``; the NOT_ ops the same for the negation;
    * NOT ``(inner,)``; AND ``(left, right, conjuncts)``, the ids of the
      flattened conjunction, Top left out; OR, IMPLIES, IFF
      ``(left, right)``;
    * EXISTS ``(block variables, conjuncts of the block's body)``; FORALL
      ``((variable,), (id of the negated body,))``, searched as an
      exists-block whose answer is negated;
    * PREDICATE ``(predicate, term ids)``; INT ``(value,)``; ADD, MUL
      ``(left, right)``;
    * COUNT ``(counted variables, step, level)``.  The step is
      ``(CONSTANT, zero)``, ``(COMPLEMENT, count)``,
      ``(INCLUSION_EXCLUSION, left, right, overlap)``,
      ``(REWRITE, count)``, ``(DIFFERENCE, minuend, close)``,
      ``(DECOMPOSE, gates, components, number of unused variables)``,
      ``(CHECK, body)`` for k = 0, or None when the plan compiled none.  A
      component is a :class:`Level` (counted by elimination), the id of
      its own count (a separate component) or a search key (counted by
      guarded search).  The level is the one component's :class:`Level`
      when the step is a decomposition into that component alone, else
      None: the count is then computed a column at a time by elimination
      (see :mod:`repro.plan.executor`).
    """

    op: int
    text: str
    free: Tuple[Variable, ...]
    args: tuple


# -- the plan -----------------------------------------------------------------


@dataclass
class QueryPlan:
    """An immutable compiled plan for one engine operation.

    ``kind`` is one of ``model_check``, ``count``, ``ground_term``,
    ``unary_term``, ``solutions``, ``query``.  ``roots`` holds the
    stratification residue: the rewritten sentence/formula/term(s) over
    the signature expanded by the steps' auxiliary relations (for
    ``query``: the condition first, then the head terms).
    ``counts`` maps every counting body and its counted variables to the
    compiled :data:`CountStep` (by value: two count terms may share one
    body, as stratification maps equal predicate atoms to one ``Atom``).

    ``nodes``, ``ids`` and ``programs`` are the executor's node table (see
    the module docstring); ``root_ids`` holds the id of each root (for a
    ``count`` plan, of the count of the root over ``variables``) and
    ``step_ids`` the term ids of each step.
    """

    kind: str
    signature: Signature
    options: PlanOptions
    steps: Tuple[MaterialiseStep, ...]
    roots: Tuple[Expression, ...]
    variables: Tuple[Variable, ...]
    counts: Dict[Tuple[Formula, Tuple[Variable, ...]], CountStep] = field(
        default_factory=dict, repr=False, compare=False
    )
    nodes: List[PlanNode] = field(default_factory=list, repr=False, compare=False)
    ids: Dict[str, int] = field(default_factory=dict, repr=False, compare=False)
    programs: Dict[tuple, tuple] = field(
        default_factory=dict, repr=False, compare=False
    )
    root_ids: Tuple[int, ...] = field(default=(), repr=False, compare=False)
    step_ids: Tuple[Tuple[int, ...], ...] = field(
        default=(), repr=False, compare=False
    )

    @property
    def depth(self) -> int:
        """Number of materialisation strata (the paper's ``d``)."""
        return max((step.stratum for step in self.steps), default=0)

    # -- rendering ------------------------------------------------------------

    def explain(self) -> str:
        """A stage-annotated, human-readable plan tree."""
        lines: List[str] = []
        head = f"plan: {self.kind}"
        if self.variables:
            head += f" over ({', '.join(self.variables)})"
        lines.append(head)
        relations = ", ".join(
            f"{symbol.name}/{symbol.arity}" for symbol in sorted(
                self.signature, key=lambda s: s.name
            )
        )
        lines.append(f"signature: {relations or '(empty)'}")
        lines.append(f"options: {self.options.describe()}")

        if self.steps:
            lines.append(
                f"stratification (Theorem 6.10): {len(self.steps)} "
                f"materialisation step(s), depth {self.depth}"
            )
            for step in self.steps:
                lines.append(f"  {step.describe()}")
        else:
            lines.append("stratification (Theorem 6.10): no predicate atoms")

        label = "residual root" if len(self.roots) == 1 else "residual roots"
        lines.append(f"{label}:")
        for root in self.roots:
            lines.append(f"  {_clip(pretty(root))}")

        entries = list(self._entry_counts())
        if entries:
            lines.append("count DAG (Lemma 6.4):")
            seen: Set[Tuple[Formula, Tuple[Variable, ...]]] = set()
            for variables, body in entries:
                self._render_count(variables, body, "  ", lines, seen)
        return "\n".join(lines)

    def _entry_counts(self) -> Iterator[Tuple[Tuple[Variable, ...], Formula]]:
        """The counting bodies worth rendering: the plan root itself for a
        ``count`` plan, plus every counting term in steps and roots."""
        emitted: Set[Tuple[Formula, Tuple[Variable, ...]]] = set()
        if self.kind == "count" and self.roots:
            emitted.add((self.roots[0], self.variables))  # type: ignore[arg-type]
            yield self.variables, self.roots[0]  # type: ignore[misc]
        for expr in [t for s in self.steps for t in s.terms] + list(self.roots):
            for node in subexpressions(expr):
                if isinstance(node, CountTerm):
                    key = (node.inner, node.variables)
                    if key not in emitted:
                        emitted.add(key)
                        yield node.variables, node.inner

    def _render_count(
        self,
        variables: Tuple[Variable, ...],
        body: Formula,
        indent: str,
        lines: List[str],
        seen: Set[Tuple[Formula, Tuple[Variable, ...]]],
    ) -> None:
        head = f"#({', '.join(variables)}). {_clip(pretty(body))}"
        key = (body, variables)
        if key in seen:
            lines.append(f"{indent}{head}  (shared, see above)")
            return
        seen.add(key)
        step = self.counts.get(key)
        if step is None:
            # Only k = 0 counts have no step: the executor tests the body.
            lines.append(f"{indent}{head}  (boolean check)")
            return
        lines.append(f"{indent}{head}")
        deeper = indent + "  "
        if isinstance(step, CountConstant):
            lines.append(f"{deeper}constant: {'0' if step.zero else 'n^k'}")
        elif isinstance(step, CountComplement):
            lines.append(f"{deeper}complement: n^k - count(inner)")
            self._render_count(step.variables, step.inner, deeper + "  ", lines, seen)
        elif isinstance(step, CountInclusionExclusion):
            lines.append(f"{deeper}inclusion-exclusion: left + right - overlap")
            for child in (step.left, step.right, step.overlap):
                self._render_count(step.variables, child, deeper + "  ", lines, seen)
        elif isinstance(step, CountRewrite):
            lines.append(f"{deeper}rewrite ({step.rule})")
            self._render_count(step.variables, step.rewritten, deeper + "  ", lines, seen)
        elif isinstance(step, CountDifference):
            lines.append(
                f"{deeper}subtraction: #psi - #(psi & delta), delta: {pretty(step.delta)}"
            )
            self._render_count(step.variables, step.minuend, deeper + "  ", lines, seen)
            self._render_count(
                step.close_variables, step.close, deeper + "  ", lines, seen
            )
        elif isinstance(step, CountDecomposition):
            lines.append(
                f"{deeper}decomposition: {len(step.gates)} gate(s), "
                f"{len(step.components)} component(s), "
                f"{len(step.unused)} unused variable(s)"
            )
            for gate in step.gates:
                lines.append(f"{deeper}  gate: {_clip(pretty(gate))}")
            for component in step.components:
                parts = " & ".join(_clip(pretty(c), 40) for c in component.conjuncts)
                lines.append(
                    f"{deeper}  component ({', '.join(component.variables)}): {parts}"
                )
                lines.append(f"{deeper}    {_routine(component)}")
                for guard in component.guards:
                    lines.append(f"{deeper}    guard {guard.describe()}")


def _routine(component: ComponentPlan) -> str:
    """Which routine counts a component: elimination (its root and
    edges) or guarded search."""
    once = ", once per state" if component.separate else ""
    tree = component.elimination
    if tree is None:
        return f"counted by guarded search{once}"
    root = tree.root if tree.anchor is None else f"{tree.root} under {tree.anchor}"
    edges = [c for c in component.conjuncts if isinstance(c, Atom) and len(c.args) == 2]
    joined = ", ".join(pretty(edge) for edge in edges) or "none"
    return f"counted by elimination{once}: root {root}, edges {joined}"


def _clip(text: str, limit: int = 72) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."
