"""Per-layer tracing from outside the program: patched calls record spans.

The layers are ``repro``'s modules.  ``LAYERS`` names, for each layer, the
public functions whose calls it times.  :class:`Patches` replaces each of
them with a timing wrapper at *every* module binding that holds it (so
``sparse_cover`` is patched both in ``repro.sparse.covers`` and where
``repro.core.main_algorithm`` imported it), and puts every original back
on exit.

Spans are kept per thread: name, start, end, parent and request id.  The
benchmark's own operations open the root spans (``Recorder.op``); a
layer's *self time* is its span's duration minus the time its child spans
cover.  Aggregates are kept for every call; individual spans are kept up
to ``Recorder.span_cap`` and written out as JSON lines at exit.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: layer name -> "module:qualname" targets timed as that layer.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "logic.parse": (
        "repro.logic.parser:parse_formula",
        "repro.logic.parser:parse_term",
    ),
    "plan.canonicalise": ("repro.plan.normalise:canonicalise",),
    "plan.compile": ("repro.plan.compiler:compile_plan",),
    "plan.materialise": ("repro.plan.executor:PlanExecutor.prepare",),
    "plan.execute": (
        "repro.plan.executor:PlanExecutor.count_value",
        "repro.plan.executor:PlanExecutor.ground_term_value",
        "repro.plan.executor:PlanExecutor.unary_term_values",
        "repro.plan.executor:PlanExecutor.model_check",
    ),
    "structures.build": ("repro.structures.structure:Structure.__init__",),
    "structures.columnar": (
        "repro.structures.columnar:ColumnarStructure.__init__",
        "repro.structures.columnar:ColumnarStructure.derive_insert",
    ),
    "structures.with_tuple": ("repro.structures.structure:Structure.with_tuple",),
    "structures.ball": (
        "repro.structures.gaifman:ball",
        "repro.structures.columnar:ColumnarStructure.ball_ids",
    ),
    "structures.induced": ("repro.structures.gaifman:induced",),
    "sparse.cover": ("repro.sparse.covers:sparse_cover",),
    "core.removal": (
        "repro.core.removal:remove_element",
        "repro.core.removal:removal_unary_term",
    ),
    "core.main_algorithm": (
        "repro.core.main_algorithm:evaluate_unary_main_algorithm",
    ),
    "core.foc1": (
        "repro.core.evaluator:Foc1Evaluator.count",
        "repro.core.evaluator:Foc1Evaluator.ground_term_value",
        "repro.core.evaluator:Foc1Evaluator.unary_term_values",
        "repro.core.evaluator:Foc1Evaluator.model_check",
        "repro.core.evaluator:Foc1Evaluator.count_many",
    ),
    "core.local_eval": ("repro.core.local_eval:evaluate_basic_unary",),
    "core.incremental": (
        "repro.core.incremental:IncrementalUnaryCache.insert",
        "repro.core.incremental:IncrementalUnaryCache.delete",
    ),
    "cost.stats": ("repro.cost.stats:structure_stats",),
    "robust.cascade": (
        "repro.robust.guard:RobustEvaluator.count",
        "repro.robust.guard:RobustEvaluator.ground_term_value",
        "repro.robust.guard:RobustEvaluator.unary_term_values",
        "repro.robust.guard:RobustEvaluator.model_check",
        "repro.robust.guard:RobustEvaluator.count_many",
    ),
    "robust.checkpoint": (
        "repro.robust.checkpoint:CheckpointSession.snapshot",
        "repro.robust.checkpoint:structure_digest",
        "repro.plan.executor:ExecutionState.export_memo_snapshot",
        "repro.plan.executor:ExecutionState.restore_memo_snapshot",
    ),
    "approx.count": (
        "repro.approx.evaluator:ApproxEvaluator.count",
        "repro.approx.evaluator:ApproxEvaluator.ground_term_value",
    ),
}

#: The serve quantum runner is the root of serve-mix's engine work: each
#: executor-thread quantum opens one op span attributed to its request.
SERVE_QUANTUM = "repro.serve.service:QueryService._run_unit"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: str
    thread: int


class _Frame:
    __slots__ = ("id", "name", "start", "child", "request")

    def __init__(self, id: int, name: str, start: float, request: str):
        self.id = id
        self.name = name
        self.start = start
        self.child = 0.0
        self.request = request


class Recorder:
    """Thread-safe span recorder with online self-time aggregation."""

    span_cap = 200_000

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self.spans: List[Span] = []
        self.dropped = 0
        #: name -> [calls, total seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: summed duration of the spans that have no parent
        self.root_time = 0.0

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, request: str = "") -> None:
        stack = self._stack()
        if stack and not request:
            request = stack[-1].request
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(_Frame(span_id, name, self.clock(), request))

    def exit(self) -> None:
        end = self.clock()
        stack = self._stack()
        frame = stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        parent = stack[-1].id if stack else None
        with self._lock:
            row = self.totals.setdefault(frame.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - frame.child
            if parent is None:
                self.root_time += duration
            if len(self.spans) < self.span_cap:
                self.spans.append(
                    Span(frame.id, frame.name, frame.start, end, parent,
                         frame.request, threading.get_ident())
                )
            else:
                self.dropped += 1

    def op(self, name: str, request: str = ""):
        """Context manager: one root span opened by the benchmark itself."""
        return _OpSpan(self, name, request)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


class _OpSpan:
    def __init__(self, recorder: Recorder, name: str, request: str):
        self.recorder, self.name, self.request = recorder, name, request

    def __enter__(self):
        self.recorder.enter(self.name, self.request)

    def __exit__(self, *exc):
        self.recorder.exit()
        return False


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus its children's.

    Children of one span run on the span's thread, one after another, so
    the time they cover is the sum of their durations.
    """
    spans = list(spans)
    child: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child[span.parent] = child.get(span.parent, 0.0) + (span.end - span.start)
    return {span.id: (span.end - span.start) - child.get(span.id, 0.0) for span in spans}


# -- patching ------------------------------------------------------------------


def _resolve(target: str):
    """``"module:Class.attr"`` -> (the module or class, ``"attr"``)."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _timed(recorder: Recorder, name: str, function, request_of=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        recorder.enter(name, request_of(args) if request_of else "")
        try:
            return function(*args, **kwargs)
        finally:
            recorder.exit()

    return wrapper


def _quantum_request(args) -> str:
    unit = args[1]
    return ",".join(job.request.request_id for _, job in unit.members)


class Patches:
    """Install timing wrappers for ``LAYERS`` (plus the serve quantum root);
    restore every original on exit, also when the traced code raised."""

    def __init__(self, recorder: Recorder, extra_modules: Sequence[str] = ()):
        self.recorder = recorder
        self.extra_modules = tuple(extra_modules)
        self.saved: List[Tuple[object, str, object]] = []

    def targets(self) -> List[Tuple[str, str]]:
        pairs = [(layer, t) for layer, ts in LAYERS.items() for t in ts]
        pairs.append(("serve.quantum", SERVE_QUANTUM))
        return pairs

    def __enter__(self) -> "Patches":
        try:
            for layer, target in self.targets():
                owner, attr = _resolve(target)
                request_of = _quantum_request if target == SERVE_QUANTUM else None
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                    self._set(owner, attr, _timed(self.recorder, layer, original, request_of))
                    continue
                original = getattr(owner, attr)
                wrapper = _timed(self.recorder, layer, original)
                for module in self._binding_modules():
                    if module.__dict__.get(attr) is original:
                        self._set(module, attr, wrapper)
        except BaseException:
            self.__exit__()
            raise
        return self

    def _binding_modules(self):
        for name, module in list(sys.modules.items()):
            if module is not None and (
                name == "repro" or name.startswith("repro.") or name in self.extra_modules
            ):
                yield module

    def _set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> bool:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)
        return False


# -- the per-layer report --------------------------------------------------------


def layer_report(recorder: Recorder, op_names: Sequence[str]) -> Dict[str, float]:
    """Share of traced time spent in each layer's own code, plus call counts.

    The denominator is the summed duration of all parentless spans: the
    benchmark's operations (``op_names``: its own root spans and, in
    serve-mix, the service quanta) and any layer call made outside them.
    An op span's self time is time no named layer accounts for, so the
    shares and ``unattributed_ratio`` sum to 1.
    """
    totals = recorder.totals
    root_time = recorder.root_time
    root_self = sum(totals[name][2] for name in op_names if name in totals)
    report: Dict[str, float] = {"op_s": root_time}
    for layer in LAYERS:
        calls, _, self_s = totals.get(layer, (0, 0.0, 0.0))
        report[f"{layer}_share"] = self_s / root_time if root_time else 0.0
        report[f"{layer}_calls"] = int(calls)
    report["unattributed_ratio"] = root_self / root_time if root_time else 0.0
    return report
