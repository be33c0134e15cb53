"""Shared fixtures for the benchmark harness.

Each ``bench_*.py`` module regenerates one experiment from DESIGN.md's
index (E1-E12).  The harness runs with::

    pytest benchmarks/ --benchmark-only

Benchmarks record qualitative facts (who wins, cover degrees, game rounds)
in ``benchmark.extra_info`` so the pytest-benchmark table carries the
experiment's "series" alongside the timings; EXPERIMENTS.md summarises the
shapes against the paper's claims.
"""

from __future__ import annotations

import pytest

from repro.core.baseline import BruteForceEvaluator
from repro.core.evaluator import Foc1Evaluator


@pytest.fixture(scope="session")
def fast_engine() -> Foc1Evaluator:
    return Foc1Evaluator()


@pytest.fixture(scope="session")
def full_foc_engine() -> Foc1Evaluator:
    """Engine with the fragment check off: evaluates full FOC(P) inline."""
    return Foc1Evaluator(check_fragment=False)


@pytest.fixture(scope="session")
def brute_engine() -> BruteForceEvaluator:
    return BruteForceEvaluator()


#: Size grids shared by the scaling experiments.  Brute force only runs on
#: the SMALL sizes (it is Theta(n^width)); the engine runs everywhere.
SMALL_SIZES = (16, 36, 64)
LARGE_SIZES = (100, 400, 1600)
