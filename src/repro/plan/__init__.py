"""Query plans: the compile-once analysis/IR layer shared by all engines.

The package splits FOC1(P) evaluation into a *static* half and a *dynamic*
half:

* :mod:`repro.plan.normalise` — alpha-canonicalisation (cache keys) and
  shared structural helpers;
* :mod:`repro.plan.ir` — the immutable plan IR: stratification steps
  (Theorem 6.10), the Lemma 6.4 count DAG, guard annotations (Remark 6.3);
* :mod:`repro.plan.compiler` — expression + signature -> :class:`QueryPlan`;
* :mod:`repro.plan.cache` — LRU plan cache with ``plan.cache.*`` metrics;
* :mod:`repro.plan.executor` — the single instrumented runtime all engines
  share (budgets, faults, metrics live there).

``repro.plan`` depends only on ``logic``/``structures``/``obs`` and the two
leaf robustness modules (budget, faults); the ``core`` engines sit on top.
"""

from .cache import PlanCache, default_plan_cache
from .compiler import compile_plan, infer_signature
from .executor import ExecutionState, PlanExecutor
from .ir import (
    ComponentPlan,
    CountComplement,
    CountConstant,
    CountDecomposition,
    CountDifference,
    CountInclusionExclusion,
    CountRewrite,
    CountStep,
    Elimination,
    GuardSpec,
    MaterialiseStep,
    PlanOptions,
    QueryPlan,
)
from .normalise import canonicalise, flatten_conjuncts, replace_atoms

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
    "ExecutionState",
    "GuardSpec",
    "MaterialiseStep",
    "PlanCache",
    "PlanExecutor",
    "PlanOptions",
    "QueryPlan",
    "canonicalise",
    "compile_plan",
    "default_plan_cache",
    "flatten_conjuncts",
    "infer_signature",
    "replace_atoms",
]
