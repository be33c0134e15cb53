"""Preemptible evaluation: checkpoint, suspend, and resume instead of kill.

The evaluation pipeline front-loads expensive phases — neighbourhood-cover
construction, Theorem 6.10 aux-relation materialisation, memoised counting
— so a query killed by :class:`~repro.errors.BudgetExceededError` forfeits
all of that work even when it was seconds from finishing.  This module is
the sage-engine-style alternative (web preemption): a query that exhausts
a *preemptible* :class:`~repro.robust.budget.EvaluationBudget` quantum is
**suspended** — it raises :class:`~repro.errors.SuspendedError` carrying a
:class:`Checkpoint` of everything already computed — and a later run
resumes from that checkpoint instead of starting over.

What a checkpoint captures
--------------------------
* **Materialised strata** — the aux relations each plan executor has
  already built (the ``Paux__N`` stages of Theorem 6.10), replayed on
  resume without re-querying the predicate oracle or paying budget ticks;
* **Memo contents** — the satisfaction/count memo tables, re-keyed by a
  stable textual form so they survive process boundaries and re-attach to
  the resumed plan's node ids;
* **Completed parallel shards** — the per-shard results a
  :class:`~repro.parallel.WorkerPool` fan-out already finished, so a
  resumed run never re-executes a completed shard;
* **The spent-step ledger and the suspended cascade stage** — so resumed
  accounting continues where it left off and the
  :class:`~repro.robust.guard.RobustEvaluator` cascade re-enters the
  stage it was suspended in.

What a run that never suspends pays
-----------------------------------
Strata are recorded as they are materialised, but memo tables are not
exported until they are needed.  An executor that finishes or suspends
registers its tables with the session (:meth:`CheckpointSession.
register_memo`); the session exports them, through :func:`memo_entries`,
when the next executor starts or registers, or when
:meth:`CheckpointSession.snapshot` runs.  The checkpoint therefore holds
the same entries as if every executor had exported on its way out, and
a later executor over the same *(structure, plan)* digest restores an
earlier one's entries as it would from a checkpoint.  The session holds
the memo tables of one executor at most, never the executor itself, so
an executor's expanded structure and search nodes are freed when it
returns.  The structure's content digest (:func:`structure_digest`) is
computed once per structure and cached on it, under the
:class:`~repro.structures.structure.Structure` cache contract.  A run of
one executor that never suspends therefore pays its content key and
nothing else.

Soundness of restore
--------------------
Executor-level state (strata, memos) is keyed by a content digest of the
*(structure, plan)* pair it was computed against.  Values are restored
only under an exactly matching digest, and evaluation is deterministic
given structure + plan, so a restored value always equals the value the
resumed run would recompute — restoration can only ever *skip* work,
never change an answer.  Shard results are keyed by the deterministic
fan-out order (scope counter + task count), which repeats exactly on
resume because everything up to the suspension point is deterministic.

Crash-consistent persistence
----------------------------
:func:`save_checkpoint` serialises to a sibling temp file and atomically
renames it over the target, guarded by an exclusive lock file against
concurrent saves; a crash mid-save (exercised via the
``checkpoint.save`` fault site) leaves the previous checkpoint intact.
:func:`load_checkpoint` verifies a version header, a payload length and a
SHA-256 integrity hash before unpickling; truncated, corrupted,
version-mismatched or foreign files raise a typed
:class:`~repro.errors.CheckpointError` — never a silent partial restore.
Checkpoint files embed a query fingerprint (:func:`fingerprint`) so a
checkpoint cannot be resumed against a different query or structure.

Note: the payload is a pickle — checkpoints are a crash/preemption
recovery mechanism for files *you* wrote, not an interchange format;
do not load checkpoints from untrusted sources.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import CheckpointError
from .faults import fault_check

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointSession",
    "StratumRecord",
    "active_checkpoint_session",
    "checkpoint_session",
    "fingerprint",
    "load_checkpoint",
    "memo_entries",
    "save_checkpoint",
    "sorted_tuples",
    "structure_digest",
]

#: Format version of persisted checkpoints.  Bumped whenever the payload
#: layout changes; mismatched versions are rejected on load (a resumed
#: run built from different code must not trust a stale snapshot).
CHECKPOINT_VERSION = 1

_MAGIC = "repro-ckpt"


@dataclass(frozen=True)
class StratumRecord:
    """One completed Theorem 6.10 materialisation stratum.

    Captures exactly what :meth:`ExecutionState.apply_materialise_step`
    produced — the auxiliary relation's symbol, arity and tuples — so a
    resume can re-expand the structure without re-evaluating the
    numerical predicate anywhere.
    """

    index: int
    symbol: str
    arity: int
    tuples: Tuple[Tuple, ...]


@dataclass
class ExecRecord:
    """Resumable state of one (structure, plan) execution context."""

    #: Completed strata by plan-step index (contiguous from 0).
    strata: Dict[int, StratumRecord] = field(default_factory=dict)
    #: Exported memo entries (see :func:`memo_entries`).
    memo: List[Tuple] = field(default_factory=list)


def memo_entries(
    holds_memo: Dict[Tuple, bool],
    count_memo: Dict[Tuple, int],
    columns: Dict[Tuple[int, Any], Dict[Any, int]],
    nodes: Sequence[Any],
) -> List[Tuple]:
    """An executor's memo tables as checkpoint memo entries.

    Memo keys are a plan node id plus the relevant bindings; an entry
    carries the node's alpha-canonical text (``nodes[id].text``) instead of
    the id, which survives a process boundary as it is (see
    ``ExecutionState.export_memo_snapshot``).  Each count column is
    exported as the per-element count entries ``ExecutionState._count``
    would have stored.
    """
    entries: List[Tuple] = []
    for (node, relevant), value in holds_memo.items():
        entries.append(("holds", nodes[node].text, relevant, value))
    for (node, relevant), value in count_memo.items():
        entries.append(("count", nodes[node].text, relevant, value))
    for (node, variable), column in columns.items():
        text = nodes[node].text
        for element, value in column.items():
            entries.append(("count", text, ((variable, element),), value))
    return entries


@dataclass
class Checkpoint:
    """A versioned snapshot of resumable evaluation state."""

    #: Fingerprint of (operation, expression, structure); resumes against
    #: anything else are rejected.
    query_key: str
    #: The engine operation that was suspended (diagnostics only).
    operation: str = ""
    #: Cascade stage the evaluation was suspended in ("" outside the
    #: robust cascade); the cascade re-enters this stage on resume.
    stage: str = ""
    #: Per-(structure, plan) executor state, keyed by content digest.
    exec_state: Dict[str, ExecRecord] = field(default_factory=dict)
    #: Completed parallel shard results: scope id -> {shard index: value}.
    shards: Dict[int, Dict[int, Any]] = field(default_factory=dict)
    #: Task count per shard scope (sanity check on resume).
    shard_counts: Dict[int, int] = field(default_factory=dict)
    #: Cumulative steps spent across all suspended quanta.
    steps_spent: int = 0
    #: How many times this evaluation has been suspended so far.
    suspensions: int = 0
    version: int = CHECKPOINT_VERSION

    def summary(self) -> str:
        strata = sum(len(r.strata) for r in self.exec_state.values())
        memo = sum(len(r.memo) for r in self.exec_state.values())
        shards = sum(len(s) for s in self.shards.values())
        head = self.operation or "evaluation"
        if self.stage:
            head += f" [stage {self.stage}]"
        return (
            f"{head}: {self.suspensions} suspension(s), "
            f"{self.steps_spent} steps spent, {strata} stratum(-a), "
            f"{memo} memo entr(y/ies), {shards} shard result(s)"
        )

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe summary (counts, not contents) for reports."""
        return {
            "query_key": self.query_key,
            "operation": self.operation,
            "stage": self.stage,
            "version": self.version,
            "suspensions": self.suspensions,
            "steps_spent": self.steps_spent,
            "strata": sum(len(r.strata) for r in self.exec_state.values()),
            "memo_entries": sum(
                len(r.memo) for r in self.exec_state.values()
            ),
            "shard_results": sum(len(s) for s in self.shards.values()),
        }


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def structure_digest(structure) -> str:
    """A content digest of a structure: universe order plus every relation.

    Two structures share a digest iff they are extensionally identical
    (universe order included, because evaluation order — and therefore
    result ordering — follows it).  Computed once per structure and cached
    on it (``Structure._digest``, see the structure's cache contract).
    """
    digest = structure._digest
    if digest is None:
        # Two threads may both compute it; they store the same string.
        digest = structure._digest = _compute_digest(structure)
    return digest


def _compute_digest(structure) -> str:
    hasher = hashlib.sha256()
    hasher.update(repr(tuple(structure.universe_order)).encode())
    for symbol in sorted(structure.signature, key=lambda s: (s.name, s.arity)):
        tuples = sorted_tuples(structure.relation(symbol), structure)
        hasher.update(f"|{symbol.name}/{symbol.arity}:{tuples!r}".encode())
    return hasher.hexdigest()


def sorted_tuples(tuples: Iterable[Tuple], structure) -> List[Tuple]:
    """``tuples`` in their natural order, or by the universe positions of
    their entries where that order is undefined (entries of types that do
    not compare, such as ``int`` and ``str``)."""
    try:
        return sorted(tuples)
    except TypeError:
        return sorted(tuples, key=structure.interner().ids)


def fingerprint(operation: str, expression_text: str, structure) -> str:
    """The checkpoint's query fingerprint: what a resume must match."""
    hasher = hashlib.sha256()
    hasher.update(operation.encode())
    hasher.update(b"\x00")
    hasher.update(expression_text.encode())
    hasher.update(b"\x00")
    hasher.update(structure_digest(structure).encode())
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# Crash-consistent persistence
# ---------------------------------------------------------------------------


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Persist ``checkpoint`` to ``path`` atomically.

    Layout: one ASCII header line
    ``repro-ckpt v<version> sha256=<hex> bytes=<n>\\n`` followed by the
    pickled payload.  The payload is written to a sibling temp file and
    atomically renamed over ``path``, so a reader never observes a
    half-written checkpoint and a crash mid-save (the ``checkpoint.save``
    fault site fires between the temp write and the rename) leaves any
    previous checkpoint at ``path`` untouched.  A ``<path>.lock`` file
    taken with ``O_EXCL`` rejects concurrent saves with a typed
    :class:`~repro.errors.CheckpointError`.
    """
    path = os.fspath(path)
    payload = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest()
    header = (
        f"{_MAGIC} v{checkpoint.version} sha256={digest} "
        f"bytes={len(payload)}\n"
    ).encode("ascii")

    lock_path = path + ".lock"
    try:
        lock_fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise CheckpointError(
            f"concurrent checkpoint save: lock file {lock_path!r} exists "
            "(another save is in progress, or a crashed save left it "
            "behind — remove it to proceed)"
        ) from None
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(header)
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            # The crash window under test: the temp file exists, the
            # target has not been replaced yet.
            fault_check("checkpoint.save")
            os.replace(tmp_path, path)
        except OSError as error:
            raise CheckpointError(
                f"cannot save checkpoint to {path!r}: {error}"
            ) from None
        finally:
            if os.path.exists(tmp_path):
                try:
                    os.remove(tmp_path)
                except OSError:
                    pass
    finally:
        os.close(lock_fd)
        try:
            os.remove(lock_path)
        except OSError:
            pass


def load_checkpoint(path) -> Checkpoint:
    """Load and verify a checkpoint; raise ``CheckpointError`` otherwise.

    Verification order: magic, format version, payload length, SHA-256
    integrity hash — only then is the payload unpickled.  Any failure
    raises a typed error and restores nothing.
    """
    path = os.fspath(path)
    fault_check("checkpoint.restore")
    try:
        with open(path, "rb") as handle:
            header = handle.readline()
            payload = handle.read()
    except OSError as error:
        raise CheckpointError(
            f"cannot read checkpoint {path!r}: {error}"
        ) from None
    try:
        text = header.decode("ascii").strip()
        magic, version_field, sha_field, bytes_field = text.split(" ")
        version = int(version_field.removeprefix("v"))
        expected_sha = sha_field.removeprefix("sha256=")
        expected_bytes = int(bytes_field.removeprefix("bytes="))
    except (UnicodeDecodeError, ValueError):
        raise CheckpointError(
            f"{path!r} is not a checkpoint file (malformed header)"
        ) from None
    if magic != _MAGIC:
        raise CheckpointError(
            f"{path!r} is not a checkpoint file (bad magic {magic!r})"
        )
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has format version {version}, this build "
            f"reads version {CHECKPOINT_VERSION}; re-run without --resume"
        )
    if len(payload) != expected_bytes:
        raise CheckpointError(
            f"checkpoint {path!r} is truncated or padded: header promises "
            f"{expected_bytes} payload bytes, found {len(payload)}"
        )
    actual_sha = hashlib.sha256(payload).hexdigest()
    if actual_sha != expected_sha:
        raise CheckpointError(
            f"checkpoint {path!r} failed integrity verification "
            f"(sha256 mismatch); refusing to restore"
        )
    try:
        checkpoint = pickle.loads(payload)
    except Exception as error:  # noqa: BLE001 — any unpickling failure
        raise CheckpointError(
            f"checkpoint {path!r} payload does not unpickle "
            f"({type(error).__name__}: {error})"
        ) from None
    if not isinstance(checkpoint, Checkpoint):
        raise CheckpointError(
            f"checkpoint {path!r} payload is a "
            f"{type(checkpoint).__name__}, not a Checkpoint"
        )
    return checkpoint


# ---------------------------------------------------------------------------
# The live session
# ---------------------------------------------------------------------------


class CheckpointSession:
    """The live recorder/restorer behind one preemptible evaluation run.

    One session spans one quantum: install it (via
    :func:`checkpoint_session`), run the evaluation under a preemptible
    budget, and on :class:`~repro.errors.SuspendedError` call
    :meth:`snapshot` to obtain the :class:`Checkpoint` for the next run,
    which is constructed with ``resume=`` that checkpoint.

    The session is consulted only from the thread that created it (the
    engines' worker threads deliberately bypass it — their progress is
    captured at shard granularity by the pool), so recording needs no
    locking beyond the pool's own deterministic, parent-side merge order.
    """

    def __init__(
        self,
        resume: "Optional[Checkpoint]" = None,
        operation: str = "",
        query_key: str = "",
    ):
        self.resume = resume
        self.operation = operation or (resume.operation if resume else "")
        self.query_key = query_key or (resume.query_key if resume else "")
        self.stage = resume.stage if resume else ""
        self._exec_state: Dict[str, ExecRecord] = (
            {key: record for key, record in resume.exec_state.items()}
            if resume
            else {}
        )
        self._shards: Dict[int, Dict[int, Any]] = (
            dict(resume.shards) if resume else {}
        )
        self._shard_counts: Dict[int, int] = (
            dict(resume.shard_counts) if resume else {}
        )
        self._scope_counter = itertools.count()
        self._steps_base = resume.steps_spent if resume else 0
        self._suspensions = resume.suspensions if resume else 0
        self._resume_stage_pending = bool(self.stage)
        self._thread = threading.get_ident()
        # The last registered executor's digest and memo tables, not yet
        # exported (see register_memo).
        self._pending_memo: "Optional[Tuple[str, Tuple[Dict, Dict, Dict, Sequence]]]" = None

    # -- thread scoping ------------------------------------------------------

    def on_owner_thread(self) -> bool:
        return threading.get_ident() == self._thread

    # -- executor state (strata + memos) -------------------------------------

    def exec_record(self, digest: str) -> ExecRecord:
        """The (created-on-demand) record for one (structure, plan) digest."""
        record = self._exec_state.get(digest)
        if record is None:
            record = ExecRecord()
            self._exec_state[digest] = record
        return record

    def record_stratum(self, digest: str, record: StratumRecord) -> None:
        self.exec_record(digest).strata[record.index] = record

    def resumed_strata(self, digest: str) -> Dict[int, StratumRecord]:
        existing = self._exec_state.get(digest)
        return existing.strata if existing is not None else {}

    def record_memo(self, digest: str, entries: List[Tuple]) -> None:
        """Replace the digest's memo snapshot (snapshots are cumulative:
        a later export contains every entry of an earlier one)."""
        record = self.exec_record(digest)
        if len(entries) >= len(record.memo):
            record.memo = list(entries)

    def register_memo(
        self,
        digest: str,
        holds_memo: Dict[Tuple, bool],
        count_memo: Dict[Tuple, int],
        columns: Dict[Tuple[int, Any], Dict[Any, int]],
        nodes: Sequence[Any],
    ) -> None:
        """Defer the :meth:`record_memo` of an executor's memo tables (see
        :func:`memo_entries`).

        The tables are exported when the next executor starts or
        registers, or by :meth:`snapshot`, so a run of one executor that
        never suspends exports nothing.  The session holds the tables, not
        the executor, and only the last executor's: a dict's fixed size
        exceeds that of a few exported entries, and a run of thousands of
        small executors (the main algorithm's clusters) would otherwise
        hold thousands of them.
        """
        self._export_pending_memo()
        self._pending_memo = (digest, (holds_memo, count_memo, columns, nodes))

    def _export_pending_memo(self) -> None:
        if self._pending_memo is not None:
            digest, tables = self._pending_memo
            self._pending_memo = None
            self.record_memo(digest, memo_entries(*tables))

    def resumed_memo(self, digest: str) -> List[Tuple]:
        self._export_pending_memo()
        existing = self._exec_state.get(digest)
        return existing.memo if existing is not None else []

    # -- parallel shard state -------------------------------------------------

    def next_shard_scope(self, count: int) -> int:
        """Claim the next deterministic fan-out scope for ``count`` tasks."""
        scope = next(self._scope_counter)
        recorded = self._shard_counts.get(scope)
        if recorded is not None and recorded != count:
            # The resumed run fanned out differently than the recorded one
            # (should not happen for deterministic evaluations); drop the
            # stale results rather than merge wrong values.
            self._shards.pop(scope, None)
        self._shard_counts[scope] = count
        return scope

    def resumed_shards(self, scope: int) -> Dict[int, Any]:
        return self._shards.get(scope, {})

    def record_shard(self, scope: int, index: int, value: Any) -> None:
        self._shards.setdefault(scope, {})[index] = value

    # -- cascade stage --------------------------------------------------------

    def record_stage(self, stage: str) -> None:
        self.stage = stage

    def consume_resume_stage(self) -> str:
        """The stage to re-enter on resume, yielded at most once."""
        if not self._resume_stage_pending:
            return ""
        self._resume_stage_pending = False
        return self.stage

    # -- snapshots ------------------------------------------------------------

    @property
    def steps_base(self) -> int:
        """Steps spent in *previous* quanta (the resumed ledger)."""
        return self._steps_base

    def snapshot(self, steps_this_run: int = 0) -> Checkpoint:
        """Freeze the session into a :class:`Checkpoint`.

        ``steps_this_run`` is the suspended quantum's own step count; the
        checkpoint's ledger adds it to the steps carried over from earlier
        quanta.  Memo tables registered and not yet exported are exported
        now.
        """
        self._export_pending_memo()
        self._suspensions += 1
        return Checkpoint(
            query_key=self.query_key,
            operation=self.operation,
            stage=self.stage,
            exec_state={
                key: ExecRecord(dict(rec.strata), list(rec.memo))
                for key, rec in self._exec_state.items()
            },
            shards={k: dict(v) for k, v in self._shards.items()},
            shard_counts=dict(self._shard_counts),
            steps_spent=self._steps_base + steps_this_run,
            suspensions=self._suspensions,
        )


# The installed session is *thread-local*: a multi-tenant server (see
# repro.serve) runs one preemptible quantum per executor thread, each
# under its own session, and those recorders must not see each other.
# Engine worker threads spawned *inside* a quantum still bypass the
# session — they find no thread-local entry, exactly as they previously
# failed the ``on_owner_thread()`` check against a process-global slot —
# so shard-granularity recording by the owning pool is unchanged.
_ACTIVE = threading.local()


def active_checkpoint_session() -> "Optional[CheckpointSession]":
    """The calling thread's installed session, if any."""
    return getattr(_ACTIVE, "session", None)


@contextmanager
def checkpoint_session(session: CheckpointSession) -> Iterator[CheckpointSession]:
    """Install ``session`` on this thread for the ``with`` block.

    Sessions do not nest (per thread): two overlapping recorders would
    interleave their scope counters and corrupt both checkpoints.
    Distinct threads may each run their own session concurrently — that
    is how the :mod:`repro.serve` scheduler preempts many queries at
    once.
    """
    if getattr(_ACTIVE, "session", None) is not None:
        raise RuntimeError("a CheckpointSession is already active")
    _ACTIVE.session = session
    try:
        yield session
    finally:
        _ACTIVE.session = None
