"""A checkpoint written by older code still restores.

``golden/census_grid100.ckpt`` was written by ``golden/write_checkpoint.py``
at commit 2893f6e: the census term suspended at half its steps on
``nearly_square_grid(100)``.  Its query key must equal the fingerprint this
code computes, and resuming from it must restore its memo entries (so the
executor's content key matched too) and finish with the uninterrupted
answer at no more than 1.05x the uninterrupted steps.
"""

import os

from repro.core.evaluator import Foc1Evaluator
from repro.logic.parser import parse_term
from repro.logic.printer import pretty
from repro.obs.metrics import collect_metrics
from repro.plan.normalise import canonicalise
from repro.robust import EvaluationBudget
from repro.robust.checkpoint import (
    CheckpointSession,
    checkpoint_session,
    fingerprint,
    load_checkpoint,
)
from repro.sparse.classes import nearly_square_grid

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "census_grid100.ckpt")
TEXT = "#(x). @eq(#(y). E(x, y), 4)"


def test_parent_checkpoint_restores():
    structure = nearly_square_grid(100)
    term = parse_term(TEXT)
    checkpoint = load_checkpoint(GOLDEN)
    assert checkpoint.query_key == fingerprint(
        "term", pretty(canonicalise(term)), structure
    )

    whole = EvaluationBudget(max_steps=10**9, preemptible=True)
    expected = Foc1Evaluator(budget=whole, workers=1).ground_term_value(structure, term)
    resumed = EvaluationBudget(max_steps=10**9, preemptible=True)
    with collect_metrics() as metrics, checkpoint_session(
        CheckpointSession(resume=checkpoint)
    ):
        value = Foc1Evaluator(budget=resumed, workers=1).ground_term_value(
            structure, term
        )
    assert value == expected
    assert metrics.counter("checkpoint.memo.restored") > 0
    assert checkpoint.steps_spent + resumed.steps <= 1.05 * whole.steps
