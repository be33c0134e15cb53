"""Preemption overhead: suspend + checkpoint + resume vs uninterrupted.

PR 6's acceptance bar: a run that is suspended mid-evaluation,
checkpointed to disk, reloaded and resumed must re-spend <= 1.05x the
*steps* of the uninterrupted run.  Steps are the engine's own
deterministic work counter, so the ratio isolates re-done evaluation
work from the (constant) cost of exporting, persisting and reloading
the checkpoint itself.

The workload is the unary-term path (``#(y). E(x, y)`` over every
element of a grid), computed as one count column: the checkpoint
carries the column's finished prefix as one count entry per element,
so the resumed quantum pays only for the remainder.  A materialise
stratum suspended halfway through is protected the same way: the
stratum ledger records only *completed* strata, but the resumed
executor restores the memo entries before it replays strata, so the
unfinished stratum takes its finished prefix too
(``tests/robust/test_preemption.py::TestResumeOverhead`` pins both at
<= 1.05x in tier-1).

Each size runs in two modes, tagged in ``extra_info`` with its ``mode``:

* ``uninterrupted`` — one plain evaluation, no session, no budget;
* ``resumed`` — a preemptible budget sized to suspend roughly halfway,
  the suspension checkpointed to a temp file, reloaded, and the
  evaluation driven to completion in a second quantum.

``extra_info["steps"]`` records the total steps the mode spent (the
resumed mode sums both quanta).  The resumed mode asserts the step
overhead (resumed steps over uninterrupted steps) is <= 1.05; the wall
overhead, which includes checkpoint I/O, reads off pytest-benchmark's
table (``pytest benchmarks/bench_preempt.py --benchmark-only``).  Both
modes assert the identical answer, so the table can never trade
correctness for speed.
"""

import pytest

from repro.core.evaluator import Foc1Evaluator
from repro.errors import SuspendedError
from repro.logic.parser import parse_term
from repro.robust import EvaluationBudget
from repro.robust.checkpoint import (
    CheckpointSession,
    checkpoint_session,
    load_checkpoint,
    save_checkpoint,
)
from repro.sparse.classes import nearly_square_grid

MODES = ("uninterrupted", "resumed")

SIZES = (64, 100)

TERM = parse_term("#(y). E(x, y)")
VARIABLE = "x"


def _measure_steps(structure) -> int:
    """Total cooperative steps of the uninterrupted run (sets the quantum)."""
    budget = EvaluationBudget(max_steps=10**9, preemptible=True)
    Foc1Evaluator(budget=budget).unary_term_values(structure, TERM, VARIABLE)
    return budget.steps


def _run_uninterrupted(structure):
    return Foc1Evaluator().unary_term_values(structure, TERM, VARIABLE)


def _run_resumed(structure, quantum, ckpt_path):
    """Suspend once at ``quantum`` steps, persist, reload, finish.

    Returns ``(values, suspensions, steps_spent)`` where ``steps_spent``
    sums both quanta — the engine work actually re-done, excluding the
    constant checkpoint save/load itself.
    """
    session = CheckpointSession(operation="bench", query_key="bench")
    budget = EvaluationBudget(max_steps=quantum, preemptible=True)
    engine = Foc1Evaluator(budget=budget)
    try:
        with checkpoint_session(session):
            values = engine.unary_term_values(structure, TERM, VARIABLE)
            return values, 0, budget.steps
    except SuspendedError:
        save_checkpoint(session.snapshot(budget.steps), ckpt_path)
    resumed = CheckpointSession(resume=load_checkpoint(ckpt_path))
    second = EvaluationBudget(max_steps=10**9, preemptible=True)
    engine = Foc1Evaluator(budget=second)
    with checkpoint_session(resumed):
        values = engine.unary_term_values(structure, TERM, VARIABLE)
        return values, 1, budget.steps + second.steps


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", SIZES)
def test_unary_resume_overhead(benchmark, tmp_path, n, mode):
    structure = nearly_square_grid(n)
    expected = _run_uninterrupted(structure)
    steps = _measure_steps(structure)

    if mode == "uninterrupted":
        value = benchmark(_run_uninterrupted, structure)
        assert value == expected
        spent = steps
    else:
        quantum = max(1, steps // 2)
        ckpt_path = str(tmp_path / "bench.ckpt")

        def run():
            return _run_resumed(structure, quantum, ckpt_path)

        value, suspensions, spent = benchmark(run)
        assert value == expected
        assert suspensions == 1  # the quantum really did split the run
        assert spent <= steps * 1.05  # the acceptance bar itself

    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["steps"] = spent
    benchmark.extra_info["order"] = structure.order()
