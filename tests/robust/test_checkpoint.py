"""Unit tests for the checkpoint format, persistence and live session.

The persistence contract (docs/ROBUSTNESS.md): a checkpoint file is either
restored whole or rejected with a typed
:class:`~repro.errors.CheckpointError` — truncation, corruption, version
or magic mismatches never produce a silent partial restore — and a failed
save (crash mid-write, concurrent writer) leaves the previous checkpoint
at the target path intact and readable.
"""

import gc
import glob
import os
import pickle
import weakref
from collections import Counter

import pytest

from repro.errors import CheckpointError, FaultInjectedError, SuspendedError
from repro.logic.parser import parse_term
from repro.logic.predicates import standard_collection
from repro.obs.metrics import collect_metrics
from repro.plan.compiler import compile_plan
from repro.plan.executor import PlanExecutor
from repro.robust import EvaluationBudget, FaultInjector, inject_faults
from repro.robust.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointSession,
    ExecRecord,
    StratumRecord,
    active_checkpoint_session,
    checkpoint_session,
    fingerprint,
    load_checkpoint,
    save_checkpoint,
    structure_digest,
)
from repro.structures.builders import graph_structure, grid_graph


def sample_checkpoint(steps=42):
    return Checkpoint(
        query_key="deadbeef" * 8,
        operation="count",
        stage="foc1",
        exec_state={
            "digest-0": ExecRecord(
                strata={0: StratumRecord(0, "Paux__0", 1, ((1,), (2,)))},
                memo=[("holds", "E(x, y)", ("x",), True)],
            )
        },
        shards={0: {0: 5, 2: 7}},
        shard_counts={0: 3},
        steps_spent=steps,
        suspensions=1,
    )


class TestPersistenceRoundTrip:
    def test_round_trip(self, tmp_path):
        target = tmp_path / "run.ckpt"
        original = sample_checkpoint()
        save_checkpoint(original, target)
        restored = load_checkpoint(target)
        assert restored == original
        assert restored.version == CHECKPOINT_VERSION
        assert restored.exec_state["digest-0"].strata[0].symbol == "Paux__0"
        assert restored.shards[0] == {0: 5, 2: 7}

    def test_save_leaves_no_droppings(self, tmp_path):
        target = tmp_path / "run.ckpt"
        save_checkpoint(sample_checkpoint(), target)
        assert sorted(os.listdir(tmp_path)) == ["run.ckpt"]

    def test_overwrite_replaces_whole_checkpoint(self, tmp_path):
        target = tmp_path / "run.ckpt"
        save_checkpoint(sample_checkpoint(steps=1), target)
        save_checkpoint(sample_checkpoint(steps=99), target)
        assert load_checkpoint(target).steps_spent == 99

    def test_summary_and_to_dict_report_counts(self):
        checkpoint = sample_checkpoint()
        summary = checkpoint.summary()
        assert "count" in summary and "stage foc1" in summary
        info = checkpoint.to_dict()
        assert info["strata"] == 1
        assert info["memo_entries"] == 1
        assert info["shard_results"] == 2
        assert info["steps_spent"] == 42
        assert info["version"] == CHECKPOINT_VERSION


class TestRejectedFiles:
    """Every corruption mode raises CheckpointError, never half-restores."""

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_not_a_checkpoint_file(self, tmp_path):
        target = tmp_path / "readme.txt"
        target.write_text("hello, this is not a checkpoint\n")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(target)

    def test_bad_magic(self, tmp_path):
        target = tmp_path / "run.ckpt"
        save_checkpoint(sample_checkpoint(), target)
        raw = target.read_bytes()
        target.write_bytes(b"xxxxx-ckpt" + raw[len(b"repro-ckpt") :])
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(target)

    def test_version_mismatch(self, tmp_path):
        target = tmp_path / "run.ckpt"
        save_checkpoint(sample_checkpoint(), target)
        raw = target.read_bytes()
        bumped = raw.replace(
            f" v{CHECKPOINT_VERSION} ".encode(),
            f" v{CHECKPOINT_VERSION + 1} ".encode(),
            1,
        )
        target.write_bytes(bumped)
        with pytest.raises(CheckpointError, match="format version"):
            load_checkpoint(target)

    def test_truncated_payload(self, tmp_path):
        target = tmp_path / "run.ckpt"
        save_checkpoint(sample_checkpoint(), target)
        raw = target.read_bytes()
        target.write_bytes(raw[:-10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(target)

    def test_padded_payload(self, tmp_path):
        target = tmp_path / "run.ckpt"
        save_checkpoint(sample_checkpoint(), target)
        with open(target, "ab") as handle:
            handle.write(b"\x00" * 8)
        with pytest.raises(CheckpointError, match="truncated or padded"):
            load_checkpoint(target)

    def test_flipped_payload_byte_fails_integrity(self, tmp_path):
        target = tmp_path / "run.ckpt"
        save_checkpoint(sample_checkpoint(), target)
        raw = bytearray(target.read_bytes())
        header_end = raw.index(b"\n") + 1
        raw[header_end + 5] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(target)

    def test_payload_of_wrong_type(self, tmp_path):
        import hashlib

        target = tmp_path / "run.ckpt"
        payload = pickle.dumps({"not": "a checkpoint"})
        digest = hashlib.sha256(payload).hexdigest()
        header = (
            f"repro-ckpt v{CHECKPOINT_VERSION} sha256={digest} "
            f"bytes={len(payload)}\n"
        ).encode("ascii")
        target.write_bytes(header + payload)
        with pytest.raises(CheckpointError, match="not a Checkpoint"):
            load_checkpoint(target)


class TestCrashConsistency:
    def test_concurrent_save_rejected_and_previous_intact(self, tmp_path):
        target = tmp_path / "run.ckpt"
        save_checkpoint(sample_checkpoint(steps=1), target)
        lock = tmp_path / "run.ckpt.lock"
        lock.write_text("")  # another writer is mid-save
        with pytest.raises(CheckpointError, match="concurrent"):
            save_checkpoint(sample_checkpoint(steps=2), target)
        # The foreign lock is not ours to remove, and the previous
        # checkpoint is untouched.
        assert lock.exists()
        assert load_checkpoint(target).steps_spent == 1

    def test_crash_mid_save_keeps_previous_checkpoint(self, tmp_path):
        target = tmp_path / "run.ckpt"
        save_checkpoint(sample_checkpoint(steps=1), target)
        injector = FaultInjector({"checkpoint.save": 1})
        with inject_faults(injector):
            with pytest.raises(FaultInjectedError):
                save_checkpoint(sample_checkpoint(steps=2), target)
        assert load_checkpoint(target).steps_spent == 1
        # The crashed save cleaned up: no temp file, no stale lock, so
        # the retry goes through.
        assert not glob.glob(str(target) + ".tmp.*")
        assert not (tmp_path / "run.ckpt.lock").exists()
        save_checkpoint(sample_checkpoint(steps=2), target)
        assert load_checkpoint(target).steps_spent == 2

    def test_crash_before_first_checkpoint_leaves_nothing(self, tmp_path):
        target = tmp_path / "run.ckpt"
        with inject_faults(FaultInjector({"checkpoint.save": 1})):
            with pytest.raises(FaultInjectedError):
                save_checkpoint(sample_checkpoint(), target)
        assert not target.exists()

    def test_restore_site_is_injectable(self, tmp_path):
        target = tmp_path / "run.ckpt"
        save_checkpoint(sample_checkpoint(), target)
        with inject_faults(FaultInjector({"checkpoint.restore": 1})):
            with pytest.raises(FaultInjectedError):
                load_checkpoint(target)
        # The file itself is fine; only the injected read failed.
        assert load_checkpoint(target).steps_spent == 42


class TestFingerprints:
    def test_structure_digest_is_extensional(self):
        a = graph_structure([1, 2, 3], [(1, 2), (2, 3)])
        b = graph_structure([1, 2, 3], [(2, 3), (1, 2)])
        c = graph_structure([1, 2, 3], [(1, 2)])
        assert structure_digest(a) == structure_digest(b)
        assert structure_digest(a) != structure_digest(c)

    def test_universe_order_matters(self):
        # Output ordering follows universe order, so it is part of the key.
        a = graph_structure([1, 2, 3], [(1, 2)])
        b = graph_structure([3, 2, 1], [(1, 2)])
        assert structure_digest(a) != structure_digest(b)

    def test_fingerprint_separates_operations_and_queries(self):
        s = graph_structure([1, 2], [(1, 2)])
        assert fingerprint("count", "E(x, y)", s) != fingerprint(
            "check", "E(x, y)", s
        )
        assert fingerprint("count", "E(x, y)", s) != fingerprint(
            "count", "E(y, x)", s
        )


class TestSessionRecording:
    def test_fresh_session_snapshot(self):
        session = CheckpointSession(operation="count", query_key="k")
        session.record_stratum("d", StratumRecord(0, "Paux__0", 1, ((1,),)))
        session.record_memo("d", [("holds", "E(x, y)", ("x",), True)])
        scope = session.next_shard_scope(3)
        session.record_shard(scope, 0, "r0")
        session.record_stage("foc1")
        checkpoint = session.snapshot(steps_this_run=10)
        assert checkpoint.steps_spent == 10
        assert checkpoint.suspensions == 1
        assert checkpoint.stage == "foc1"
        assert checkpoint.exec_state["d"].strata[0].tuples == ((1,),)
        assert checkpoint.shards == {0: {0: "r0"}}
        assert checkpoint.shard_counts == {0: 3}

    def test_resumed_session_accumulates_ledger(self):
        first = CheckpointSession(operation="count", query_key="k")
        checkpoint = first.snapshot(steps_this_run=10)
        second = CheckpointSession(resume=checkpoint)
        assert second.steps_base == 10
        assert second.operation == "count"
        assert second.query_key == "k"
        again = second.snapshot(steps_this_run=5)
        assert again.steps_spent == 15
        assert again.suspensions == 2

    def test_snapshot_is_isolated_from_later_recording(self):
        session = CheckpointSession(operation="count", query_key="k")
        scope = session.next_shard_scope(2)
        session.record_shard(scope, 0, "r0")
        checkpoint = session.snapshot()
        session.record_shard(scope, 1, "r1")
        session.record_stratum("d", StratumRecord(0, "P", 1, ()))
        assert checkpoint.shards == {0: {0: "r0"}}
        assert "d" not in checkpoint.exec_state

    def test_memo_snapshots_only_grow(self):
        # Memo exports are cumulative; a shorter (stale) export from an
        # earlier point in the run must not clobber a fuller one.
        session = CheckpointSession(operation="count", query_key="k")
        session.record_memo("d", [("a",), ("b",)])
        session.record_memo("d", [("a",)])
        assert session.resumed_memo("d") == [("a",), ("b",)]
        session.record_memo("d", [("a",), ("b",), ("c",)])
        assert len(session.resumed_memo("d")) == 3

    def test_shard_scopes_are_claimed_in_call_order(self):
        session = CheckpointSession(operation="count", query_key="k")
        assert session.next_shard_scope(2) == 0
        assert session.next_shard_scope(5) == 1
        assert session.next_shard_scope(1) == 2

    def test_resumed_shards_round_trip(self):
        first = CheckpointSession(operation="count", query_key="k")
        scope = first.next_shard_scope(3)
        first.record_shard(scope, 0, "r0")
        first.record_shard(scope, 2, "r2")
        second = CheckpointSession(resume=first.snapshot())
        resumed_scope = second.next_shard_scope(3)
        assert resumed_scope == 0
        assert second.resumed_shards(resumed_scope) == {0: "r0", 2: "r2"}

    def test_mismatched_fanout_drops_stale_results(self):
        # A resumed run that fans out a different task count cannot trust
        # the recorded per-index values.
        first = CheckpointSession(operation="count", query_key="k")
        scope = first.next_shard_scope(3)
        first.record_shard(scope, 0, "r0")
        second = CheckpointSession(resume=first.snapshot())
        resumed_scope = second.next_shard_scope(4)
        assert second.resumed_shards(resumed_scope) == {}

    def test_resume_stage_is_consumed_once(self):
        first = CheckpointSession(operation="count", query_key="k")
        first.record_stage("baseline")
        second = CheckpointSession(resume=first.snapshot())
        assert second.consume_resume_stage() == "baseline"
        assert second.consume_resume_stage() == ""

    def test_fresh_session_has_no_resume_stage(self):
        session = CheckpointSession(operation="count", query_key="k")
        assert session.consume_resume_stage() == ""


class TestActiveSession:
    def test_install_and_clear(self):
        session = CheckpointSession(operation="count", query_key="k")
        assert active_checkpoint_session() is None
        with checkpoint_session(session) as installed:
            assert installed is session
            assert active_checkpoint_session() is session
        assert active_checkpoint_session() is None

    def test_cleared_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with checkpoint_session(CheckpointSession()):
                raise RuntimeError("boom")
        assert active_checkpoint_session() is None

    def test_nesting_rejected(self):
        with checkpoint_session(CheckpointSession()):
            with pytest.raises(RuntimeError, match="already active"):
                with checkpoint_session(CheckpointSession()):
                    pass
        assert active_checkpoint_session() is None

    def test_owner_thread_scoping(self):
        import threading

        session = CheckpointSession()
        assert session.on_owner_thread()
        seen = []
        t = threading.Thread(target=lambda: seen.append(session.on_owner_thread()))
        t.start()
        t.join()
        assert seen == [False]

    def test_concurrent_sessions_are_thread_local(self):
        # The multi-tenant service runs one checkpoint session per
        # executor thread; installs must never bleed across threads or
        # into the coordinating thread (serve regression, ISSUE #10).
        import threading

        barrier = threading.Barrier(2)
        observed = {}

        def worker(name):
            session = CheckpointSession(operation="count", query_key=name)
            with checkpoint_session(session):
                barrier.wait()  # both sessions active simultaneously
                observed[name] = active_checkpoint_session() is session
                barrier.wait()
            observed[name + ".cleared"] = active_checkpoint_session() is None

        threads = [
            threading.Thread(target=worker, args=(name,))
            for name in ("a", "b")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert observed == {
            "a": True,
            "b": True,
            "a.cleared": True,
            "b.cleared": True,
        }
        assert active_checkpoint_session() is None


CENSUS = parse_term("#(x). @eq(#(y). E(x, y), 2)")


def _executor(structure, budget=None):
    plan = compile_plan("ground_term", [CENSUS], (), structure.signature)
    return PlanExecutor(plan, structure, standard_collection(), budget)


class TestDeferredMemoExport:
    """Executors register their memo tables with the session, which
    exports them when the next executor starts or registers, or when it
    takes a snapshot."""

    def test_snapshot_carries_a_finished_executors_memo(self):
        session = CheckpointSession(operation="term", query_key="k")
        with checkpoint_session(session):
            first = _executor(grid_graph(3, 3))
            first.ground_term_value()
            second = _executor(
                grid_graph(4, 4), EvaluationBudget(max_steps=5, preemptible=True)
            )
            with pytest.raises(SuspendedError):
                second.ground_term_value()
        checkpoint = session.snapshot()
        expected = first.state.export_memo_snapshot()
        assert expected
        assert checkpoint.exec_state[first._ckpt_key].memo == expected
        assert checkpoint.exec_state[second._ckpt_key].memo == (
            second.state.export_memo_snapshot()
        )

    def test_exports_wait_for_the_next_executor_or_a_snapshot(self, monkeypatch):
        exported = []
        monkeypatch.setattr(
            "repro.robust.checkpoint.memo_entries",
            lambda *tables: exported.append(tables) or [],
        )
        session = CheckpointSession(operation="term", query_key="k")
        with checkpoint_session(session):
            executors = [_executor(grid_graph(n, n)) for n in (3, 4, 5)]
            executors[0].ground_term_value()
            assert exported == []
            executors[1].ground_term_value()
            executors[2].ground_term_value()
        tables = [
            (e.state._holds_memo, e.state._count_memo, e.state._columns)
            for e in executors
        ]
        assert exported == tables[:2]
        session.snapshot()
        assert exported == tables
        session.snapshot()
        assert exported == tables

    def test_the_session_does_not_keep_the_executor_alive(self):
        session = CheckpointSession(operation="term", query_key="k")
        with checkpoint_session(session):
            executor = _executor(grid_graph(4, 4))
            executor.ground_term_value()
        key = executor._ckpt_key
        expected = executor.state.export_memo_snapshot()
        state = weakref.ref(executor.state)
        del executor
        gc.collect()
        assert state() is None
        assert session.snapshot().exec_state[key].memo == expected

    def test_a_same_digest_executor_restores_the_earlier_registration(self):
        structure = grid_graph(4, 4)
        session = CheckpointSession(operation="term", query_key="k")
        with checkpoint_session(session):
            first = _executor(structure)
            value = first.ground_term_value()
            with collect_metrics() as metrics:
                second = _executor(structure, EvaluationBudget())
                assert second.ground_term_value() == value
        assert second._ckpt_key == first._ckpt_key
        restored = metrics.counter("checkpoint.memo.restored")
        assert restored == len(first.state.export_memo_snapshot()) > 0
        assert Counter(session.snapshot().exec_state[first._ckpt_key].memo) == (
            Counter(first.state.export_memo_snapshot())
        )
