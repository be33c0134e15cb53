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
  Implies/Iff rewrites, and :class:`CountDecomposition` for conjunctions
  (gate conjuncts, variable-disjoint :class:`ComponentPlan` factors, and
  the ``n^unused`` tail).  The intermediate rewrite nodes (the ``And``
  overlap of inclusion–exclusion, the Implies/Iff expansions) are built
  once at compile time, so the executor's memo tables see stable node
  identities instead of per-call fresh allocations.
* **Guard choices** (Remark 6.3): per component and variable, the
  statically available candidate sources — relation index, equality
  binding, distance ball — recorded as :class:`GuardSpec` annotations.
  The executor still picks the *smallest* pool dynamically (pool sizes
  depend on the structure), but the plan records what it can pick from.

Plans are immutable by construction and contract: every AST node they
reference is plan-owned (produced by :func:`repro.plan.normalise.canonicalise`
or the compiler's rewrites), never a caller's object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from ..logic.printer import pretty
from ..logic.syntax import (
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
    "CountInclusionExclusion",
    "CountRewrite",
    "CountStep",
    "GuardSpec",
    "MaterialiseStep",
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
class ComponentPlan:
    """One variable-connected factor of a conjunction (Lemma 6.4's product
    step), with its enumeration order domain and guard annotations."""

    variables: Tuple[Variable, ...]
    conjuncts: Tuple[Formula, ...]
    guards: Tuple[GuardSpec, ...] = ()


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
    plan-owned ``And`` node, built once so memo identities stay stable."""

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


CountStep = Union[
    CountConstant,
    CountComplement,
    CountInclusionExclusion,
    CountRewrite,
    CountDecomposition,
]


# -- the plan -----------------------------------------------------------------


@dataclass
class QueryPlan:
    """An immutable compiled plan for one engine operation.

    ``kind`` is one of ``model_check``, ``count``, ``ground_term``,
    ``unary_term``, ``solutions``, ``query``.  ``roots`` holds the
    stratification residue: the rewritten sentence/formula/term(s) over
    the signature expanded by the steps' auxiliary relations (for
    ``query``: the condition first, then the head terms).
    ``count_steps`` pairs every plan-owned counting body with its compiled
    :data:`CountStep`, and ``counts`` indexes them by ``(id(body),
    counted variables)`` for the executor.  Two count terms may share one
    body object (stratification maps equal predicate atoms to one
    ``Atom``), so the counted variables are part of the key.  The index
    is derived: unpickling gives every node a new id, so
    :meth:`__setstate__` rebuilds it from the pairs, whose bodies pickle
    as the very nodes the roots and steps reference.
    """

    kind: str
    signature: Signature
    options: PlanOptions
    steps: Tuple[MaterialiseStep, ...]
    roots: Tuple[Expression, ...]
    variables: Tuple[Variable, ...]
    count_steps: Tuple[Tuple[Formula, CountStep], ...] = field(
        default=(), repr=False
    )
    counts: Dict[Tuple[int, Tuple[Variable, ...]], CountStep] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.counts = {
            (id(body), step.variables): step for body, step in self.count_steps
        }

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["counts"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

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
            seen: Set[Tuple[int, Tuple[Variable, ...]]] = set()
            for variables, body in entries:
                self._render_count(variables, body, "  ", lines, seen)
        return "\n".join(lines)

    def _entry_counts(self) -> Iterator[Tuple[Tuple[Variable, ...], Formula]]:
        """The counting bodies worth rendering: the plan root itself for a
        ``count`` plan, plus every counting term in steps and roots."""
        emitted: Set[Tuple[int, Tuple[Variable, ...]]] = set()
        if self.kind == "count" and self.roots:
            emitted.add((id(self.roots[0]), self.variables))
            yield self.variables, self.roots[0]  # type: ignore[misc]
        for expr in [t for s in self.steps for t in s.terms] + list(self.roots):
            for node in subexpressions(expr):
                if isinstance(node, CountTerm):
                    key = (id(node.inner), node.variables)
                    if key not in emitted:
                        emitted.add(key)
                        yield node.variables, node.inner

    def _render_count(
        self,
        variables: Tuple[Variable, ...],
        body: Formula,
        indent: str,
        lines: List[str],
        seen: Set[Tuple[int, Tuple[Variable, ...]]],
    ) -> None:
        head = f"#({', '.join(variables)}). {_clip(pretty(body))}"
        key = (id(body), variables)
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
                for guard in component.guards:
                    lines.append(f"{deeper}    guard {guard.describe()}")


def _clip(text: str, limit: int = 72) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."
