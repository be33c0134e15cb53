"""The plan compiler: stratification, count DAG, guards, signatures."""

import pytest

from repro.errors import FormulaError
from repro.logic.parser import parse_formula, parse_term
from repro.logic.syntax import PredicateAtom, subexpressions
from repro.plan import (
    CountComplement,
    CountConstant,
    CountDecomposition,
    CountInclusionExclusion,
    PlanOptions,
    compile_plan,
    infer_signature,
)
from repro.structures.builders import graph_structure
from repro.structures.signature import RelationSymbol, Signature

GRAPH = graph_structure([1, 2, 3], [(1, 2), (2, 3)])
SIG = GRAPH.signature


def _count_plan(text, variables, options=None):
    phi = parse_formula(text)
    return compile_plan("count", [phi], variables, SIG, options)


class TestStratification:
    def test_single_predicate_atom_is_one_unary_step(self):
        plan = compile_plan(
            "model_check", [parse_formula("exists x. @even(#(y). E(x, y))")], (), SIG
        )
        assert len(plan.steps) == 1
        (step,) = plan.steps
        assert step.symbol == "Paux__0"
        assert step.arity == 1
        assert step.predicate == "even"
        assert step.stratum == 1
        assert plan.depth == 1
        # The residue mentions the auxiliary relation, not the atom.
        assert not any(
            isinstance(node, PredicateAtom) for node in subexpressions(plan.roots[0])
        )

    def test_nested_atoms_stratify_inside_out(self):
        phi = parse_formula("@geq1(#(x). @even(#(y). E(x, y)))")
        plan = compile_plan("model_check", [phi], (), SIG)
        assert [step.stratum for step in plan.steps] == [1, 2]
        assert plan.steps[0].predicate == "even"  # innermost first
        assert plan.steps[1].predicate == "geq1"
        assert plan.steps[1].arity == 0  # sentence-level atom -> 0-ary
        assert plan.depth == 2

    def test_fresh_symbols_skip_signature_names(self):
        taken = Signature(list(SIG) + [RelationSymbol("Paux__0", 1)])
        plan = compile_plan(
            "model_check",
            [parse_formula("exists x. @even(#(y). E(x, y))")],
            (),
            taken,
        )
        assert plan.steps[0].symbol == "Paux__1"

    def test_out_of_fragment_atoms_stay_inline(self):
        # Two joint free variables: rule 4' says no materialisation.
        phi = parse_formula("exists x. exists y. @eq(#(z). E(x, z), #(z). E(y, z))")
        plan = compile_plan("model_check", [phi], (), SIG)
        assert plan.steps == ()
        assert any(
            isinstance(node, PredicateAtom) for node in subexpressions(plan.roots[0])
        )


class TestCountDag:
    def _root_step(self, plan):
        return plan.counts[plan.roots[0], plan.variables]

    def test_top_compiles_to_constant(self):
        plan = _count_plan("true", ("x",))
        step = self._root_step(plan)
        assert isinstance(step, CountConstant) and not step.zero

    def test_negation_compiles_to_complement(self):
        plan = _count_plan("!E(x, y)", ("y",))
        step = self._root_step(plan)
        assert isinstance(step, CountComplement)
        assert (step.inner, step.variables) in plan.counts  # child compiled too

    def test_disjunction_builds_the_overlap_once(self):
        plan = _count_plan("E(x, y) | E(y, x)", ("y",))
        step = self._root_step(plan)
        assert isinstance(step, CountInclusionExclusion)
        # The overlap And node is plan-owned and itself compiled.
        assert (step.overlap, step.variables) in plan.counts

    def test_implies_and_iff_rewrite(self):
        assert self._root_step(_count_plan("E(x, y) -> x = y", ("y",))).rule == "implies"
        assert self._root_step(_count_plan("E(x, y) <-> x = y", ("y",))).rule == "iff"

    def test_conjunction_factors_into_disjoint_components(self):
        plan = _count_plan("E(x, y) & E(z, w) & E(a, a)", ("x", "y", "z", "w"))
        step = self._root_step(plan)
        assert isinstance(step, CountDecomposition)
        assert step.gates == (parse_formula("E(a, a)"),)  # no counted variables
        assert sorted(c.variables for c in step.components) == [("x", "y"), ("z", "w")]
        assert step.unused == ()

    def test_unused_variables_become_the_free_tail(self):
        step = self._root_step(_count_plan("E(x, x)", ("x", "y", "z")))
        assert step.unused == ("y", "z")

    def test_factoring_off_keeps_one_component(self):
        plan = _count_plan(
            "E(x, y) & E(z, w)",
            ("x", "y", "z", "w"),
            PlanOptions(factoring=False, guards=True),
        )
        step = self._root_step(plan)
        assert len(step.components) == 1
        assert step.components[0].variables == ("x", "y", "z", "w")


class TestGuards:
    def _component(self, text, variables, options=None):
        plan = _count_plan(text, variables, options)
        (component,) = plan.counts[plan.roots[0], plan.variables].components
        return component

    def _kinds(self, component, variable):
        return {g.kind for g in component.guards if g.variable == variable}

    def test_equality_index_and_ball_guards(self):
        component = self._component(
            "y = x & E(x, y) & dist(y, z) <= 2", ("y",)
        )
        assert self._kinds(component, "y") == {"equality", "index", "ball"}

    def test_exists_block_look_through(self):
        component = self._component("exists u. E(u, y)", ("y",))
        guards = [g for g in component.guards if g.kind == "index"]
        assert guards and "inside exists-block" in guards[0].source

    def test_shadowed_variable_gets_no_look_through(self):
        from repro.plan.compiler import _guard_from

        # The exists-chain rebinds "u": its body must not be offered as a
        # candidate source for the outer "u".
        conjunct = parse_formula("exists u. E(u, u)")
        assert _guard_from(conjunct, "u") is None
        assert _guard_from(parse_formula("exists v. E(v, u)"), "u").kind == "index"

    def test_scan_fallback_when_nothing_guards(self):
        # A disjunctive conjunct offers no candidate pool for "y" (the
        # gate keeps the body a conjunction).
        component = self._component("(E(y, x) | E(x, y)) & E(x, x)", ("y",))
        assert self._kinds(component, "y") == {"scan"}

    def test_guards_disabled_yield_scan_specs(self):
        component = self._component(
            "E(x, y)", ("y",), PlanOptions(factoring=True, guards=False)
        )
        (guard,) = component.guards
        assert guard.kind == "scan" and "disabled" in guard.source


class TestInferSignature:
    def test_collects_relations_with_arities(self):
        phi = parse_formula("E(x, y) & P(x) & exists z. E(z, z)")
        signature = infer_signature([phi])
        assert signature.get("E").arity == 2
        assert signature.get("P").arity == 1

    def test_arity_conflict_raises(self):
        with pytest.raises(FormulaError):
            infer_signature([parse_formula("E(x, y) & E(x, x, y)")])

    def test_counting_term_bodies_are_searched(self):
        term = parse_term("#(y). R(x, y)")
        assert infer_signature([term]).get("R").arity == 2


class TestExplainRendering:
    def test_explain_names_the_paper_stages(self):
        plan = compile_plan(
            "model_check", [parse_formula("exists x. @even(#(y). E(x, y))")], (), SIG
        )
        text = plan.explain()
        assert "stratification (Theorem 6.10)" in text
        assert "Paux__0" in text
        assert "count DAG (Lemma 6.4)" in text
        assert "options: factoring=on guards=on" in text

    def test_explain_renders_guard_annotations(self):
        plan = _count_plan("E(x, y) & dist(y, z) <= 1", ("y",))
        text = plan.explain()
        assert "guard y: index [relation E]" in text
        assert "guard y: ball" in text

    def test_explain_shows_the_subtraction_and_the_routines(self):
        """paths2 is the two-path count minus its close cases, each side
        counted by elimination from its root; a triangle is not a tree and
        keeps the guarded search."""
        text = _count_plan("E(x, y) & E(y, z) & !(x = z)", ("x", "y", "z")).explain()
        assert "subtraction: #psi - #(psi & delta), delta: x = z" in text
        assert "#(x, y, z). E(x, y) & E(y, z)\n" in text
        assert "#(x, y). E(x, y) & E(y, x)\n" in text
        assert "counted by elimination: root y, edges E(x, y), E(y, z)" in text
        assert "counted by elimination: root x, edges E(x, y), E(y, x)" in text
        assert "guarded search" not in text
        cycle = _count_plan("E(x, y) & E(y, z) & E(z, x)", ("x", "y", "z")).explain()
        assert "counted by guarded search" in cycle and "subtraction" not in cycle

    def test_explain_marks_a_separate_component(self):
        text = _count_plan("E(x, y) & U(z)", ("y", "z")).explain()
        assert "counted by elimination: root y under x, edges E(x, y)" in text
        assert "counted by elimination, once per state: root z, edges none" in text
