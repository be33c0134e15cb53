"""Typed exceptions shared across the repro package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch the whole family with a single ``except`` clause while tests can pin
down the precise failure mode.
"""

from __future__ import annotations


def _rebuild_error(cls: type, args: tuple, state: dict) -> "ReproError":
    """Reconstruct a pickled :class:`ReproError` without calling ``__init__``.

    Several subclasses take keyword-only or multi-positional constructor
    arguments (:class:`BudgetExceededError`, :class:`FaultInjectedError`)
    while storing only the formatted message in ``args``; the default
    ``Exception`` reduction would call ``cls(*args)`` and crash or lose the
    structured attributes when an error crosses a process boundary.
    """
    error = cls.__new__(cls)
    error.args = args
    if state:
        error.__dict__.update(state)
    return error


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    All subclasses pickle faithfully — type, message *and* structured
    attributes survive a process boundary — so a worker pool's child
    process can re-raise the original error instead of a lossy generic
    wrapper.
    """

    def __reduce__(self):
        return (_rebuild_error, (type(self), self.args, dict(self.__dict__)))


class SignatureError(ReproError):
    """A relation symbol or signature was used inconsistently.

    Raised for duplicate symbol names, negative arities, or references to
    symbols that are not part of the signature at hand.
    """


class ArityError(ReproError):
    """A tuple's length does not match the arity of its relation symbol."""


class UniverseError(ReproError):
    """A structure's universe is invalid (empty) or an element is missing."""


class ParseError(ReproError):
    """The FOC(P) parser rejected its input.

    Attributes
    ----------
    position:
        Character offset in the input at which the error was detected, or
        ``None`` when the failure is not tied to a specific location.
    """

    def __init__(self, message: str, position: "int | None" = None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class FormulaError(ReproError):
    """A formula or counting term is structurally malformed.

    Examples: a counting term binding the same variable twice, a numerical
    predicate applied to the wrong number of terms, or a relation atom whose
    symbol does not belong to the expected signature.
    """


class FragmentError(ReproError):
    """An expression lies outside the syntactic fragment an engine supports.

    In particular, feeding a full-FOC(P) formula that violates rule (4')
    of Definition 5.1 to the FOC1(P) evaluator raises this error.
    """


class EvaluationError(ReproError):
    """Evaluation failed: unbound free variable, missing relation, etc."""


class PredicateError(ReproError):
    """A numerical predicate was applied to arguments of the wrong arity,
    or a predicate name is not part of the active collection."""


class BudgetExceededError(ReproError):
    """An evaluation exhausted its resource budget and was cancelled.

    Raised cooperatively from the engines' hot loops when an
    :class:`~repro.robust.budget.EvaluationBudget` runs out of wall-clock
    time or steps.  The paper's Section 4 shows general FOC(P) evaluation
    is AW[*]-hard, so unbounded runs are unavoidable without such a guard.

    Attributes
    ----------
    reason:
        ``"deadline"`` or ``"steps"`` — which limit was hit.
    site:
        Name of the cooperative checkpoint that observed the exhaustion
        (e.g. ``"evaluator.enumerate"``), or ``""`` when unknown.
    steps / steps_spent:
        Steps performed before cancellation (partial-progress stat;
        ``steps_spent`` is the canonical name, ``steps`` a back-compat
        alias holding the same number).
    elapsed:
        Seconds elapsed before cancellation (partial-progress stat).
    deadline_remaining:
        Wall-clock seconds that were still left when the budget died
        (``0.0`` when the deadline itself was the limit hit, positive
        when the step limit fired first, ``None`` with no deadline set).
    stage:
        The pipeline stage the budget was serving when it died (e.g. a
        cascade stage name such as ``"foc1"``), or ``""`` when the budget
        was not stage-scoped.
    max_steps / deadline:
        The configured limits (``None`` when that limit was unset).
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "",
        site: str = "",
        steps: int = 0,
        elapsed: float = 0.0,
        max_steps: "int | None" = None,
        deadline: "float | None" = None,
        deadline_remaining: "float | None" = None,
        stage: str = "",
    ):
        super().__init__(message)
        self.reason = reason
        self.site = site
        self.steps = steps
        self.steps_spent = steps
        self.elapsed = elapsed
        self.max_steps = max_steps
        self.deadline = deadline
        self.deadline_remaining = deadline_remaining
        self.stage = stage


class SuspendedError(ReproError):
    """A preemptible evaluation exhausted its budget quantum and was
    *suspended* — not killed.

    Raised instead of :class:`BudgetExceededError` when the governing
    :class:`~repro.robust.budget.EvaluationBudget` was built with
    ``preemptible=True`` (sage-engine-style web preemption: the query is
    suspended and re-queued rather than cancelled).  Deliberately **not**
    a subclass of :class:`BudgetExceededError`: suspension is a resumable
    outcome, and handlers that treat budget exhaustion as fatal must not
    swallow it.

    Attributes mirror :class:`BudgetExceededError` (``reason``, ``site``,
    ``steps``/``steps_spent``, ``elapsed``, ``max_steps``, ``deadline``,
    ``deadline_remaining``, ``stage``), plus:

    checkpoint:
        The :class:`~repro.robust.checkpoint.Checkpoint` capturing the
        resumable state, attached by the plan executor / checkpoint
        session as the error propagates (``None`` when no checkpoint
        session was active).
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "",
        site: str = "",
        steps: int = 0,
        elapsed: float = 0.0,
        max_steps: "int | None" = None,
        deadline: "float | None" = None,
        deadline_remaining: "float | None" = None,
        stage: str = "",
        checkpoint: object = None,
    ):
        super().__init__(message)
        self.reason = reason
        self.site = site
        self.steps = steps
        self.steps_spent = steps
        self.elapsed = elapsed
        self.max_steps = max_steps
        self.deadline = deadline
        self.deadline_remaining = deadline_remaining
        self.stage = stage
        self.checkpoint = checkpoint


class CheckpointError(ReproError):
    """A checkpoint could not be saved, loaded, or applied.

    Raised for corrupt or truncated checkpoint files, integrity-hash
    mismatches, format-version mismatches, concurrent saves to the same
    path, and resume attempts against a different query or structure.
    Never raised as a *silent partial restore*: a checkpoint either
    verifies and applies whole, or this error is raised and no state is
    touched.
    """


class AdmissionError(ReproError):
    """A query service refused to enqueue a request (typed load shedding).

    Raised by the :mod:`repro.serve` admission controller instead of
    letting an overloaded service queue without bound: a rejected request
    fails *immediately*, with a machine-readable reason, rather than
    timing out by silence.  Never raised for admitted work — once a
    request is admitted it completes or is suspended/resumed, not killed.

    Attributes
    ----------
    reason:
        The quota that rejected the request: ``"queue_full"``,
        ``"concurrency"``, ``"steps"``, ``"saturated"`` or ``"draining"``
        (mirrors the ``serve.shed.<reason>`` counter that was bumped).
    tenant:
        The tenant whose request was shed.
    """

    def __init__(self, message: str, *, reason: str = "", tenant: str = ""):
        super().__init__(message)
        self.reason = reason
        self.tenant = tenant


class FaultInjectedError(ReproError):
    """A deliberately injected fault fired (testing/chaos machinery only).

    Raised by :func:`repro.robust.faults.fault_check` when an active
    :class:`~repro.robust.faults.FaultInjector` has armed the named site.
    Production code never raises this unless an injector is installed.

    Attributes
    ----------
    site:
        The registered fault site that fired (e.g. ``"cover.construct"``).
    hit:
        Which hit of the site triggered the fault (1-based).
    """

    def __init__(self, site: str, hit: int):
        super().__init__(f"injected fault at site {site!r} (hit {hit})")
        self.site = site
        self.hit = hit
