"""Multi-tenant preemptible query serving (see ``docs/SERVING.md``).

The package turns the single-query engines into a long-lived service:
:class:`QueryService` admits per-tenant request streams through a
bounded :class:`AdmissionController` (typed load shedding via
:class:`~repro.errors.AdmissionError`), schedules admitted work with
step-metered :class:`DeficitRoundRobin` fair sharing, runs every query
in preemptible budget quanta that checkpoint instead of dying, batches
compatible counts through ``count_many``, and — when configured —
degrades counts and bare counting terms to the sampling tier under
saturation (always flagged ``approximate=True``) rather than shedding
tenants.
"""

from ..errors import AdmissionError
from .admission import AdmissionController, TenantQuota
from .request import OPERATIONS, QueryRequest, QueryResponse
from .scheduler import DeficitRoundRobin
from .service import QueryService

__all__ = [
    "OPERATIONS",
    "AdmissionController",
    "AdmissionError",
    "DeficitRoundRobin",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "TenantQuota",
]
