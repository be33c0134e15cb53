"""repro — a reproduction of Grohe & Schweikardt (PODS 2018),
"First-Order Query Evaluation with Cardinality Conditions".

The library implements the logic FOC(P) and its fragment FOC1(P), the
hardness reductions of Section 4, the cl-term decomposition machinery of
Section 6, the neighbourhood-cover / removal-lemma toolkit of Section 7,
the nowhere-dense machinery (splitter games, sparse covers) of Section 8,
and practical evaluation engines built on them — plus an SQL-COUNT facade
matching the paper's Example 5.3.

Quickstart::

    from repro import (
        Rel, variables, count, exists, graph_structure,
        satisfies,
    )

    E = Rel("E", 2)
    x, y = variables("x y")
    graph = graph_structure([1, 2, 3], [(1, 2), (2, 3)])
    degree = count([y], E(x, y))               # #(y). E(x, y)
    high_degree = exists(x, degree.gt(1))      # exists x. @gt(#(y).E(x,y), 1)
    assert satisfies(graph, high_degree)
"""

__version__ = "1.0.0"

from .errors import (
    AdmissionError,
    ArityError,
    BudgetExceededError,
    CheckpointError,
    EvaluationError,
    FaultInjectedError,
    FormulaError,
    FragmentError,
    ParseError,
    PredicateError,
    ReproError,
    SignatureError,
    SuspendedError,
    UniverseError,
)
from .structures import (
    GRAPH_SIGNATURE,
    RelationSymbol,
    Signature,
    Structure,
    ball,
    balanced_tree,
    complete_graph,
    coloured_graph_structure,
    cycle_graph,
    distance,
    graph_structure,
    grid_graph,
    induced,
    neighbourhood,
    path_graph,
    star_graph,
    string_structure,
)
from .logic import (
    And,
    Atom,
    CountTerm,
    Eq,
    Exists,
    Formula,
    Not,
    Or,
    PredicateAtom,
    PredicateCollection,
    Rel,
    Term,
    count,
    count_solutions,
    evaluate,
    exists,
    forall,
    free_variables,
    is_foc1,
    parse_formula,
    parse_term,
    pretty,
    satisfies,
    solutions,
    standard_collection,
    term_value,
    variables,
)

from .core import (
    BasicClTerm,
    BruteForceEvaluator,
    ClPolynomial,
    CoverTerm,
    Foc1Evaluator,
    Foc1Query,
    decompose_factored_count,
    remove_element,
    removal_formula,
)
from .plan import (
    PlanCache,
    PlanExecutor,
    PlanOptions,
    QueryPlan,
    canonicalise,
    compile_plan,
    default_plan_cache,
)
from .sparse import (
    NeighbourhoodCover,
    play_splitter_game,
    rounds_needed,
    sparse_cover,
    trivial_cover,
)
from .approx import ApproxEvaluator, ApproxResult, SamplePlan, plan_samples
from .db import Database, Schema, Table, group_by_count, join_group_count, total_counts
from .io import FormatError, load_structure, save_structure
from .robust import (
    FAULT_SITES,
    PARALLEL_FAULT_SITES,
    EvaluationBudget,
    FaultInjector,
    PartialResult,
    RetryPolicy,
    RobustEvaluator,
    RobustReport,
    ShardFailure,
    StageReport,
    inject_faults,
)

__all__ = [name for name in dir() if not name.startswith("_")]
