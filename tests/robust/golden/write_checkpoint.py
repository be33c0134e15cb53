"""Write the golden checkpoint that ``tests/robust/test_golden_checkpoint.py``
restores.

The census term ``#(x). @eq(#(y). E(x, y), 4)`` is evaluated on
``nearly_square_grid(100)`` under a preemptible budget of half the steps of
an uninterrupted run; the suspension's session snapshot is saved with
``save_checkpoint``.  Its query key is the CLI's ``term`` fingerprint of the
canonical text.

``census_grid100.ckpt`` was written by commit 2893f6e, before structures
cached their digest and before memo snapshots were deferred to
``CheckpointSession.snapshot``.  Run this script against an older checkout to
write a checkpoint as that checkout's code would::

    PYTHONPATH=<checkout>/src python tests/robust/golden/write_checkpoint.py OUT
"""

import sys

from repro.core.evaluator import Foc1Evaluator
from repro.errors import SuspendedError
from repro.logic.parser import parse_term
from repro.logic.printer import pretty
from repro.plan.normalise import canonicalise
from repro.robust import EvaluationBudget
from repro.robust.checkpoint import (
    CheckpointSession,
    checkpoint_session,
    fingerprint,
    save_checkpoint,
)
from repro.sparse.classes import nearly_square_grid

TEXT = "#(x). @eq(#(y). E(x, y), 4)"
SIZE = 100


def main(target: str) -> None:
    structure = nearly_square_grid(SIZE)
    term = parse_term(TEXT)
    whole = EvaluationBudget(max_steps=10**9, preemptible=True)
    Foc1Evaluator(budget=whole, workers=1).ground_term_value(structure, term)
    key = fingerprint("term", pretty(canonicalise(term)), structure)
    session = CheckpointSession(operation="term", query_key=key)
    half = EvaluationBudget(max_steps=whole.steps // 2, preemptible=True)
    try:
        with checkpoint_session(session):
            Foc1Evaluator(budget=half, workers=1).ground_term_value(structure, term)
    except SuspendedError:
        checkpoint = session.snapshot(half.steps)
    else:
        raise SystemExit("the half budget did not suspend the evaluation")
    save_checkpoint(checkpoint, target)
    print(f"{target}: {checkpoint.summary()} (uninterrupted: {whole.steps} steps)")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} OUT")
    main(sys.argv[1])
