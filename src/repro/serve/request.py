"""Request/response types for the multi-tenant query service.

A :class:`QueryRequest` names one evaluation the service should perform
on behalf of one tenant; a :class:`QueryResponse` is the terminal
outcome of an *admitted* request.  Admission refusals never produce a
response — they raise a typed
:class:`~repro.errors.AdmissionError` from ``submit`` instead, so a
shed request fails fast and loud rather than timing out by silence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..errors import ReproError
from ..logic.parser import parse_formula, parse_term
from ..logic.printer import pretty
from ..logic.syntax import Expression
from ..plan.normalise import canonicalise
from ..robust.checkpoint import Checkpoint, fingerprint
from ..structures.structure import Structure

__all__ = ["OPERATIONS", "QueryRequest", "QueryResponse"]

#: The engine operations a request may name (the CLI subcommand names).
OPERATIONS = ("check", "count", "term", "unary")


@dataclass(frozen=True)
class QueryRequest:
    """One tenant-attributed evaluation request.

    ``expression`` may be source text (parsed on submission) or an
    already-parsed :class:`~repro.logic.syntax.Expression`.  ``count``
    requires ``variables``; ``unary`` requires ``variable``.  ``seed``
    feeds the sampling tier if the request is answered under the
    degradation policy — identical requests degrade to byte-identical
    estimates.
    """

    tenant: str
    operation: str
    structure: Structure
    expression: Any
    variables: Tuple[str, ...] = ()
    variable: str = ""
    request_id: str = ""
    seed: int = 0

    def __post_init__(self) -> None:
        if self.operation not in OPERATIONS:
            raise ReproError(
                f"unknown operation {self.operation!r}; "
                f"expected one of {OPERATIONS}"
            )
        if self.operation == "count" and not self.variables:
            raise ReproError("count requests need non-empty 'variables'")
        if self.operation == "unary" and not self.variable:
            raise ReproError("unary requests need a 'variable'")

    def parsed(self) -> Expression:
        """The request expression as an AST (parsing text if needed)."""
        if isinstance(self.expression, Expression):
            return self.expression
        if self.operation in ("check", "count"):
            return parse_formula(str(self.expression))
        return parse_term(str(self.expression))


def canonical_text(request: QueryRequest, expression: Expression) -> str:
    """The request's canonical query text (checkpoint/batch identity).

    Mirrors the CLI's ``_query_key`` composition so a checkpoint taken
    by the service and one taken by ``python -m repro`` agree on what
    "the same query" means.
    """
    text = pretty(canonicalise(expression))
    if request.operation == "count":
        text += f" | vars={','.join(request.variables)}"
    elif request.operation == "unary":
        text += f" | var={request.variable}"
    return text


def query_key(request: QueryRequest, expression: Expression) -> str:
    """The checkpoint fingerprint for this request."""
    return fingerprint(
        request.operation, canonical_text(request, expression), request.structure
    )


@dataclass
class QueryResponse:
    """Terminal outcome of one admitted request.

    ``status`` is ``"ok"`` for a completed answer or ``"suspended"``
    when a bounded drain gave up granting further quanta — the response
    then carries the final :class:`~repro.robust.checkpoint.Checkpoint`
    so the work is handed back, not orphaned.  ``approximate`` marks
    answers produced by the sampling tier under the degradation policy;
    an estimate is never returned without the flag.
    """

    request_id: str
    tenant: str
    operation: str
    value: Any = None
    status: str = "ok"
    approximate: bool = False
    quanta: int = 0
    resumes: int = 0
    steps: int = 0
    batched: bool = False
    latency_s: float = 0.0
    queue_wait_s: float = 0.0
    checkpoint: Optional[Checkpoint] = field(default=None, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe view (checkpoint reduced to its summary dict)."""
        payload = {
            "schema": "repro-serve-response/1",
            "request_id": self.request_id,
            "tenant": self.tenant,
            "operation": self.operation,
            "status": self.status,
            "value": self.value
            if isinstance(self.value, (int, float, bool, str, type(None)))
            else repr(self.value),
            "approximate": self.approximate,
            "quanta": self.quanta,
            "resumes": self.resumes,
            "steps": self.steps,
            "batched": self.batched,
            "latency_s": self.latency_s,
            "queue_wait_s": self.queue_wait_s,
        }
        payload["checkpoint"] = (
            self.checkpoint.to_dict() if self.checkpoint is not None else None
        )
        return payload
