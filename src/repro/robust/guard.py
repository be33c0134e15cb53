"""The graceful fallback cascade: :class:`RobustEvaluator`.

Section 4 of the paper shows that general FOC(P) evaluation is AW[*]-hard,
and the fixed-parameter tractability of FOC1(P) (Theorem 5.5) is
conditional on the input coming from a nowhere dense class.  An engine
facing untrusted queries and arbitrary structures therefore needs, beyond
hard resource limits (:mod:`repro.robust.budget`), a *degradation story*:
when the clever path fails — out of fragment, out of budget slice, or a
genuine defect — answer anyway, exactly, by a simpler path.

:class:`RobustEvaluator` implements a three-stage cascade:

1. ``main_algorithm`` — the Section 8.2 cover/removal loop; applicable
   only to unary basic cl-terms (:meth:`RobustEvaluator.evaluate_unary_cl_term`),
   recorded as *skipped* for other operations.
2. ``foc1`` — the generic :class:`~repro.core.evaluator.Foc1Evaluator`
   (memoised, guarded enumeration); exact on all inputs.
3. ``baseline`` — the literal Definition 3.1 brute force
   (:class:`~repro.core.baseline.BruteForceEvaluator`); exact on all of
   FOC(P), including formulas outside the FOC1 fragment.

With ``approx=True`` an optional fourth stage joins counting operations:
the sampling tier (:class:`~repro.approx.evaluator.ApproxEvaluator`),
last — a bounded-cost answer of last resort.  An approx answer is an
:class:`~repro.approx.result.ApproxResult` (never a bare int) and the
report carries ``approximate=True``, so an estimate can never be
mistaken for an exact count.

Stages always run in this listed order, so the cascade a caller gets
never depends on what ran before.  Every exact stage computes the
*exact* answer when it completes, so the cascade never trades
correctness for availability — only speed.  Each stage runs
under a slice of the shared :class:`~repro.robust.budget.EvaluationBudget`
(an even split of whatever remains), so one runaway stage cannot starve
its fallbacks; if every stage fails and the overall budget is exhausted,
the cascade raises :class:`~repro.errors.BudgetExceededError`, otherwise it
re-raises the last stage failure.  The outcome of every stage — who
answered, who failed and why, who was skipped — is recorded in a
structured :class:`RobustReport` available as
:attr:`RobustEvaluator.last_report`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.baseline import BruteForceEvaluator
from ..core.clterms import BasicClTerm
from ..core.evaluator import Foc1Evaluator
from ..core.main_algorithm import evaluate_unary_main_algorithm
from ..approx.result import ApproxResult
from ..core.query import Foc1Query
from ..errors import BudgetExceededError, ReproError, SuspendedError
from ..logic.predicates import PredicateCollection, standard_collection
from ..logic.syntax import Formula, Term, Variable
from ..obs import active_metrics, span
from ..parallel import resolve_workers
from ..plan.cache import PlanCache
from ..structures.structure import Element, Structure
from .breaker import CircuitBreaker
from .budget import EvaluationBudget
from .checkpoint import active_checkpoint_session

__all__ = ["RobustEvaluator", "RobustReport", "StageReport", "STAGES"]

#: Cascade order (the optional ``approx`` stage, when enabled, runs last).
STAGES = ("main_algorithm", "foc1", "baseline")


@dataclass
class StageReport:
    """Outcome of one cascade stage."""

    stage: str
    status: str  # "ok" | "failed" | "skipped"
    detail: str = ""
    error_type: "Optional[str]" = None
    error: "Optional[str]" = None
    elapsed: float = 0.0
    steps: int = 0
    #: Counter deltas attributed to this stage (only populated when a
    #: metrics registry is active during the run; see repro.obs).
    metrics: "Optional[Dict[str, int]]" = None

    def summary(self) -> str:
        if self.status == "ok":
            return f"{self.stage}: ok ({self.elapsed:.3f}s, {self.steps} steps)"
        if self.status == "failed":
            return f"{self.stage}: failed [{self.error_type}] {self.error}"
        if self.status == "suspended":
            return f"{self.stage}: suspended ({self.detail})"
        return f"{self.stage}: skipped ({self.detail})"

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe view of this stage outcome (for ``--report-json``)."""
        return {
            "stage": self.stage,
            "status": self.status,
            "detail": self.detail,
            "error_type": self.error_type,
            "error": self.error,
            "elapsed": self.elapsed,
            "steps": self.steps,
            "metrics": dict(self.metrics) if self.metrics else None,
        }


@dataclass
class RobustReport:
    """Structured account of one robust evaluation."""

    operation: str
    answered_by: "Optional[str]" = None
    stages: List[StageReport] = field(default_factory=list)
    elapsed: float = 0.0
    steps: int = 0
    #: True when the answering stage was the sampling tier — the answer
    #: is an :class:`~repro.approx.result.ApproxResult`, not an exact count.
    approximate: bool = False

    def stage(self, name: str) -> StageReport:
        for entry in self.stages:
            if entry.stage == name:
                return entry
        raise KeyError(f"no stage named {name!r} in this report")

    def failed_stages(self) -> List[str]:
        return [s.stage for s in self.stages if s.status == "failed"]

    def skipped_stages(self) -> List[str]:
        return [s.stage for s in self.stages if s.status == "skipped"]

    def succeeded(self) -> bool:
        return self.answered_by is not None

    def summary(self) -> str:
        head = (
            f"{self.operation}: answered by {self.answered_by}"
            if self.answered_by
            else f"{self.operation}: no stage answered"
        )
        parts = "; ".join(s.summary() for s in self.stages)
        return f"{head} ({parts})"

    def to_dict(
        self,
        breaker: "Optional[CircuitBreaker]" = None,
        checkpoint: "Optional[Dict[str, object]]" = None,
    ) -> Dict[str, object]:
        """JSON-safe view of the whole report (for ``--report-json``).

        ``breaker`` adds per-stage circuit states; ``checkpoint`` attaches
        suspension/resume info (as produced by ``Checkpoint.to_dict``).
        """
        breakers = None
        if breaker is not None:
            breakers = {
                s.stage: {
                    "state": breaker.state(s.stage),
                    "consecutive_failures": breaker.failures(s.stage),
                }
                for s in self.stages
            }
        return {
            "schema": "repro-robust-report/3",
            "operation": self.operation,
            "answered_by": self.answered_by,
            "elapsed": self.elapsed,
            "steps": self.steps,
            "stages": [s.to_dict() for s in self.stages],
            "breakers": breakers,
            "checkpoint": checkpoint,
            "approximate": self.approximate,
        }


# A stage is (name, thunk) where thunk(budget) computes the exact answer,
# or (name, None) with a skip reason when the stage cannot apply.
_Stage = Tuple[str, "Optional[Callable[[Optional[EvaluationBudget]], object]]", str]


class RobustEvaluator:
    """Budgeted, fault-tolerant façade over the evaluation engines.

    Parameters
    ----------
    predicates:
        Numerical predicate collection shared by every stage.
    budget:
        The overall :class:`EvaluationBudget` for this evaluator's calls
        (all calls draw from the same pool; pass a fresh budget per request
        in a serving context).  ``None`` means unlimited.
    check_fragment:
        Whether the ``foc1`` stage enforces the FOC1(P) fragment.  With the
        default ``True``, out-of-fragment FOC(P) inputs simply fall through
        to the ``baseline`` stage — the cascade's answer stays exact.
    catch:
        Exception types treated as *stage* failures (triggering fallback)
        rather than evaluator failures.  Defaults to the library's typed
        errors plus ``RecursionError``; genuine programming errors
        (``TypeError`` &c.) always propagate.
    plan_cache:
        The :class:`~repro.plan.cache.PlanCache` shared by every planned
        stage (``main_algorithm`` base cases and ``foc1``), so a retry of
        the same query after a budget failure — and every later stage of
        the cascade — reuses the compiled plan instead of re-analysing.
        Defaults to the process-wide shared cache.
    workers:
        Worker count for the approx stage's sampler, the one stage with a
        process fan-out.  Every other stage runs inline — the
        ``main_algorithm`` cluster loop and the ``foc1`` engine close over
        live engine state, and the ``baseline`` stage is the last-resort
        oracle, which takes no shortcuts.  ``None`` resolves
        ``REPRO_WORKERS`` (default 1).
    breaker:
        The :class:`~repro.robust.breaker.CircuitBreaker` guarding the
        cascade stages: after its ``threshold`` *consecutive* failures of
        a stage (across this evaluator's calls), that stage is skipped —
        without consuming a budget slice — until a success or
        :meth:`CircuitBreaker.reset` closes the circuit.  Defaults to a
        fresh ``CircuitBreaker(threshold=3)`` per evaluator; share one
        instance across evaluators to pool their failure counts.
    approx:
        Opt-in fourth cascade stage for :meth:`count` and ground counting
        terms: the sampling tier (:class:`~repro.approx.evaluator.
        ApproxEvaluator`).  Off by default — the default cascade stays
        exactly the three exact stages.  When enabled it runs *last*.
        Its answer is an :class:`~repro.approx.result.ApproxResult` and
        sets :attr:`RobustReport.approximate`.
    epsilon / delta / approx_seed:
        The ``(1 +- epsilon, delta)`` target and reproducibility seed for
        the approx stage (ignored unless ``approx=True``).
    """

    def __init__(
        self,
        predicates: "Optional[PredicateCollection]" = None,
        budget: "Optional[EvaluationBudget]" = None,
        check_fragment: bool = True,
        catch: Tuple[type, ...] = (ReproError, RecursionError),
        plan_cache: "Optional[PlanCache]" = None,
        workers: "Optional[int]" = None,
        breaker: "Optional[CircuitBreaker]" = None,
        approx: bool = False,
        epsilon: float = 0.1,
        delta: float = 0.05,
        approx_seed: int = 0,
    ):
        self._default_predicates = predicates is None
        self.predicates = predicates if predicates is not None else standard_collection()
        self.budget = budget
        self.check_fragment = check_fragment
        self.catch = tuple(catch)
        self.plan_cache = plan_cache
        self.workers = resolve_workers(workers)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.approx = approx
        self.epsilon = epsilon
        self.delta = delta
        self.approx_seed = approx_seed
        self.last_report: "Optional[RobustReport]" = None

    # -- engine-API mirror -----------------------------------------------------

    def model_check(self, structure: Structure, sentence: Formula) -> bool:
        return self._run(
            "model_check",
            [
                self._not_applicable("main_algorithm"),
                ("foc1", lambda b: self._foc1(b).model_check(structure, sentence), ""),
                ("baseline", lambda b: self._baseline(b).model_check(structure, sentence), ""),
            ],
        )

    def count(
        self, structure: Structure, formula: Formula, variables: Sequence[Variable]
    ) -> int:
        stages: List[_Stage] = [
            self._not_applicable("main_algorithm"),
            ("foc1", lambda b: self._foc1(b).count(structure, formula, variables), ""),
            ("baseline", lambda b: self._baseline(b).count(structure, formula, variables), ""),
        ]
        if self.approx:
            stages.append(
                (
                    "approx",
                    lambda b: self._approx(b).count(structure, formula, variables),
                    "",
                )
            )
        return self._run("count", stages)

    def count_many(
        self,
        structures: Sequence[Structure],
        formula: Formula,
        variables: Sequence[Variable],
    ) -> List[int]:
        """Batched counting through the cascade (one plan, many inputs).

        The ``foc1`` stage runs :meth:`Foc1Evaluator.count_many` — compile
        once per distinct signature, then one executor per input.  The
        ``baseline`` stage answers with a deliberately serial brute-force
        loop over the batch.
        """
        structures = list(structures)
        return self._run(
            "count_many",
            [
                self._not_applicable("main_algorithm"),
                (
                    "foc1",
                    lambda b: self._foc1(b).count_many(structures, formula, variables),
                    "",
                ),
                (
                    "baseline",
                    lambda b: [
                        self._baseline(b).count(s, formula, variables)
                        for s in structures
                    ],
                    "",
                ),
            ],
        )

    def ground_term_value(self, structure: Structure, term: Term) -> int:
        stages: List[_Stage] = [
            self._not_applicable("main_algorithm"),
            ("foc1", lambda b: self._foc1(b).ground_term_value(structure, term), ""),
            ("baseline", lambda b: self._baseline(b).ground_term_value(structure, term), ""),
        ]
        if self.approx:
            from ..logic.syntax import CountTerm

            if isinstance(term, CountTerm):
                stages.append(
                    (
                        "approx",
                        lambda b: self._approx(b).ground_term_value(structure, term),
                        "",
                    )
                )
            else:
                stages.append(
                    ("approx", None, "only counting terms can be sampled")
                )
        return self._run("ground_term_value", stages)

    def unary_term_values(
        self,
        structure: Structure,
        term: Term,
        variable: Variable,
        elements: "Optional[Sequence[Element]]" = None,
    ) -> Dict[Element, int]:
        return self._run(
            "unary_term_values",
            [
                self._not_applicable("main_algorithm"),
                (
                    "foc1",
                    lambda b: self._foc1(b).unary_term_values(
                        structure, term, variable, elements
                    ),
                    "",
                ),
                (
                    "baseline",
                    lambda b: self._baseline(b).unary_term_values(
                        structure, term, variable, elements
                    ),
                    "",
                ),
            ],
        )

    def evaluate_query(self, structure: Structure, query: Foc1Query) -> List[Tuple]:
        return self._run(
            "evaluate_query",
            [
                self._not_applicable("main_algorithm"),
                ("foc1", lambda b: self._foc1(b).evaluate_query(structure, query), ""),
                ("baseline", lambda b: self._baseline(b).evaluate_query(structure, query), ""),
            ],
        )

    # -- the full three-stage cascade ------------------------------------------

    def evaluate_unary_cl_term(
        self, structure: Structure, term: BasicClTerm
    ) -> Dict[Element, int]:
        """``u^A[a]`` for all ``a`` through the full cascade.

        Stage 1 runs the Section 8.2 cover/removal loop, stage 2 the
        generic FOC1 engine on ``term.count_term()``, stage 3 the brute
        force.  All three are exact; the report records which answered.
        """
        if not term.unary:
            raise ReproError("evaluate_unary_cl_term expects a unary basic cl-term")
        free = term.free_variable

        def main_stage(budget: "Optional[EvaluationBudget]") -> Dict[Element, int]:
            return evaluate_unary_main_algorithm(
                structure,
                term,
                depth=1,
                predicates=self.predicates,
                budget=budget,
                plan_cache=self.plan_cache,
            )

        def foc1_stage(budget: "Optional[EvaluationBudget]") -> Dict[Element, int]:
            engine = self._foc1(budget, check_fragment=False)
            return engine.unary_term_values(structure, term.count_term(), free)

        def baseline_stage(budget: "Optional[EvaluationBudget]") -> Dict[Element, int]:
            return self._baseline(budget).unary_term_values(
                structure, term.count_term(), free
            )

        return self._run(
            "evaluate_unary_cl_term",
            [
                ("main_algorithm", main_stage, ""),
                ("foc1", foc1_stage, ""),
                ("baseline", baseline_stage, ""),
            ],
        )

    # -- machinery -------------------------------------------------------------

    def _foc1(
        self,
        budget: "Optional[EvaluationBudget]",
        check_fragment: "Optional[bool]" = None,
    ) -> Foc1Evaluator:
        """The foc1 stage's engine, with this evaluator's settings;
        ``check_fragment`` overrides the evaluator's (the cl-term stage
        turns it off: a cl-term's psi need not lie in FOC1).  It runs
        inline, so it takes no worker count."""
        return Foc1Evaluator(
            predicates=self.predicates,
            check_fragment=(
                self.check_fragment if check_fragment is None else check_fragment
            ),
            budget=budget,
            plan_cache=self.plan_cache,
        )

    def _baseline(self, budget: "Optional[EvaluationBudget]") -> BruteForceEvaluator:
        # The last stage answers on all of FOC(P): fragment checking stays
        # off so out-of-fragment inputs rejected by the foc1 stage still
        # fall through to an exact brute-force answer.
        return BruteForceEvaluator(
            predicates=self.predicates, budget=budget, check_fragment=False
        )

    def _approx(self, budget: "Optional[EvaluationBudget]"):
        from ..approx.evaluator import ApproxEvaluator

        # A defaulted collection ships as None so child processes can
        # rebuild it (closures do not pickle).
        return ApproxEvaluator(
            predicates=None if self._default_predicates else self.predicates,
            budget=budget,
            epsilon=self.epsilon,
            delta=self.delta,
            seed=self.approx_seed,
            workers=self.workers,
        )

    @staticmethod
    def _not_applicable(name: str) -> _Stage:
        return (name, None, "not applicable to this operation")

    def _run(self, operation: str, stages: List[_Stage]):
        report = RobustReport(operation=operation)
        started = time.monotonic()
        answer: object = None
        last_error: "Optional[BaseException]" = None
        runnable_left = sum(1 for _, fn, _ in stages if fn is not None)
        registry = active_metrics()

        # Resuming a suspended cascade: re-enter the stage the previous
        # quantum was suspended in.  Earlier stages already had their
        # outcome (failed or skipped) decided in that quantum — re-running
        # them would re-pay known failures — so they are recorded as
        # resume-skips without a budget slice or a breaker update.
        session = active_checkpoint_session()
        if session is not None and not session.on_owner_thread():
            session = None
        resume_past: set = set()
        if session is not None:
            resume_stage = session.consume_resume_stage()
            stage_names = [name for name, _, _ in stages]
            if resume_stage in stage_names:
                resume_past = set(stage_names[: stage_names.index(resume_stage)])

        for name, fn, skip_reason in stages:
            if fn is not None and name in resume_past:
                runnable_left -= 1
                if registry is not None:
                    registry.inc(f"robust.stage.{name}.skipped")
                    registry.inc("robust.resume.skipped")
                report.stages.append(
                    StageReport(
                        name,
                        "skipped",
                        detail=(
                            "resumed: outcome decided before the previous "
                            "suspension"
                        ),
                    )
                )
                continue
            if fn is None:
                if registry is not None:
                    registry.inc(f"robust.stage.{name}.skipped")
                report.stages.append(
                    StageReport(name, "skipped", detail=skip_reason)
                )
                continue
            if report.answered_by is not None:
                if registry is not None:
                    registry.inc(f"robust.stage.{name}.skipped")
                report.stages.append(
                    StageReport(
                        name,
                        "skipped",
                        detail=f"not needed: answered by {report.answered_by}",
                    )
                )
                continue
            if not self.breaker.allow(name):
                # Circuit open: route straight to the next stage without
                # paying this stage's budget slice (runnable_left drops,
                # so the remaining stages split the freed share).
                runnable_left -= 1
                if registry is not None:
                    registry.inc(f"robust.stage.{name}.skipped")
                    registry.inc("robust.breaker.skipped")
                report.stages.append(
                    StageReport(
                        name,
                        "skipped",
                        detail=(
                            "circuit open: "
                            f"{self.breaker.failures(name)} consecutive "
                            "failures"
                        ),
                    )
                )
                continue

            stage_budget = self._slice_for(runnable_left)
            if stage_budget is not None:
                stage_budget.stage = name
            if session is not None:
                session.record_stage(name)
            runnable_left -= 1
            stage_started = time.monotonic()
            entry = StageReport(name, "failed")
            before = dict(registry.counters) if registry is not None else None
            try:
                with span(f"robust.stage.{name}"):
                    answer = fn(stage_budget)
            except SuspendedError as error:
                # Suspension is the quantum boundary of a preemptible run,
                # not a stage failure: the breaker must not trip (the stage
                # will resume, not fall back) and the cascade re-raises
                # after finalising the report for this quantum.
                entry.status = "suspended"
                entry.detail = str(error)
                entry.elapsed = time.monotonic() - stage_started
                if stage_budget is not None:
                    entry.steps = stage_budget.steps
                    self._charge_parent(stage_budget.steps, name)
                if registry is not None:
                    entry.metrics = {
                        key: value - before.get(key, 0)
                        for key, value in registry.counters.items()
                        if value != before.get(key, 0)
                    }
                    registry.inc(f"robust.stage.{name}.suspended")
                report.stages.append(entry)
                report.elapsed = time.monotonic() - started
                report.steps = (
                    self.budget.steps
                    if self.budget is not None
                    else sum(s.steps for s in report.stages)
                )
                self.last_report = report
                raise
            except self.catch as error:
                entry.status = "failed"
                entry.error_type = type(error).__name__
                entry.error = str(error)
                last_error = error
                if self.breaker.record_failure(name):
                    if registry is not None:
                        registry.inc("robust.breaker.trip")
            else:
                entry.status = "ok"
                if isinstance(answer, ApproxResult):
                    # The sampling stage answered: the caller gets the
                    # full ApproxResult (never a bare int) and the report
                    # is marked so downstream serialisation says so.
                    entry.detail = answer.summary()
                    report.approximate = True
                    if registry is not None:
                        registry.inc("robust.approx.answered")
                report.answered_by = name
                self.breaker.record_success(name)
            entry.elapsed = time.monotonic() - stage_started
            if registry is not None:
                entry.metrics = {
                    key: value - before.get(key, 0)
                    for key, value in registry.counters.items()
                    if value != before.get(key, 0)
                }
                registry.inc(f"robust.stage.{name}.{entry.status}")
            if stage_budget is not None:
                entry.steps = stage_budget.steps
                self._charge_parent(stage_budget.steps, name)
            report.stages.append(entry)

        report.elapsed = time.monotonic() - started
        report.steps = self.budget.steps if self.budget is not None else sum(
            s.steps for s in report.stages
        )
        self.last_report = report

        if report.answered_by is None:
            if self.budget is not None and self.budget.expired():
                # Surface the resource exhaustion (with overall stats)
                # rather than whichever per-slice error came last.
                self.budget.check(site="robust.cascade")
            if last_error is not None:
                raise last_error
            raise ReproError(f"no stage could answer operation {operation!r}")
        return answer

    def _slice_for(self, runnable_left: int) -> "Optional[EvaluationBudget]":
        if self.budget is None:
            return None
        fraction = 1.0 if runnable_left <= 1 else 1.0 / runnable_left
        return self.budget.slice(fraction)

    def _charge_parent(self, steps: int, site: str) -> None:
        if self.budget is None or steps == 0:
            return
        try:
            self.budget.charge(steps, site=f"robust.{site}")
        except BudgetExceededError:
            # The parent pool is dry; the next stage's slice (or the final
            # accounting in _run) will surface it.  Swallowing here keeps
            # charge-back from masking the stage's own outcome.
            pass
