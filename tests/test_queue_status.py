"""Queue observability: heartbeat lifecycle, ``runner queue status``
snapshots (JSON + table goldens), and per-worker result provenance
flowing cache -> ResultSet -> report.

The goldens pin the exact operator-facing output for a synthetic but
fully deterministic queue state (injected clock, fixed worker ids,
fixed entry keys); regenerate after a deliberate change with
``pytest tests/test_queue_status.py --update-golden`` and review the
diff.
"""

import io
import json
import os
import pickle
import socket
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.api import ResultSet
from repro.experiments.report import build_report
from repro.orchestration import (
    HeartbeatWriter,
    JobQueue,
    OrchestrationContext,
    QueueWorker,
    ResultCache,
    TaskEnvelope,
    WorkerHeartbeat,
    make_task,
    queue_status,
    render_status,
    shard_name,
)
from repro.orchestration.jobqueue import FailureRecord

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Fixed wall clock for every golden-snapshot age computation.
NOW = 1_750_000_000.0


class FakeClock:
    def __init__(self, now: float) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


def _double(task):
    return task.params * 2


def _snoop_heartbeats(task):
    """Task body: report every heartbeat visible *mid-execution*."""
    beats = JobQueue(task.params).read_heartbeats()
    return [(beat.worker_id, beat.current_lease) for beat in beats]


# ----------------------------------------------------------------------
# Heartbeat lifecycle
# ----------------------------------------------------------------------


class TestHeartbeatLifecycle:
    def test_start_writes_and_beat_refreshes(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        clock = FakeClock(1000.0)
        writer = HeartbeatWriter(
            queue, interval=0, identity="hostA:7", clock=clock
        ).start()
        [beat] = queue.read_heartbeats()
        assert beat.worker_id == "hostA:7"
        assert beat.host == "hostA" and beat.pid == 7
        assert beat.started == beat.last_beat == 1000.0
        assert beat.current_lease is None

        clock.now = 1010.0
        writer.beat(current_lease="k1", claimed=3, completed=2)
        [beat] = queue.read_heartbeats()
        assert beat.last_beat == 1010.0
        assert beat.started == 1000.0  # start time never moves
        assert beat.current_lease == "k1"
        assert (beat.claimed, beat.completed) == (3, 2)

    def test_clean_stop_removes_the_file(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        writer = HeartbeatWriter(queue, interval=0, identity="hostA:7")
        writer.start()
        assert queue.read_heartbeats()
        writer.stop(remove=True)
        assert queue.read_heartbeats() == []

    def test_stop_without_remove_leaves_final_beat(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        writer = HeartbeatWriter(queue, interval=0, identity="hostA:7")
        writer.start()
        writer.beat(current_lease="k1")
        writer.stop(remove=False)
        [beat] = queue.read_heartbeats()
        assert beat.current_lease is None  # not executing anything

    def test_background_thread_keeps_beating_while_main_is_busy(
        self, tmp_path
    ):
        """The refresh thread is what distinguishes a slow task from a
        dead worker: last_beat advances with no beat() call from the
        main thread."""
        queue = JobQueue(tmp_path / "q")
        writer = HeartbeatWriter(
            queue, interval=0.02, identity="hostA:7"
        ).start()
        try:
            [first] = queue.read_heartbeats()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                [beat] = queue.read_heartbeats()
                if beat.last_beat > first.last_beat:
                    break
                time.sleep(0.01)
            else:
                raise AssertionError("background thread never beat")
        finally:
            writer.stop(remove=True)

    def test_corrupt_heartbeat_files_are_skipped(self, tmp_path):
        queue = JobQueue(tmp_path / "q").ensure()
        (queue.workers_dir / "junk.json").write_text("not json {")
        (queue.workers_dir / "alien.json").write_text('{"format": 99}')
        queue.write_heartbeat(WorkerHeartbeat(
            worker_id="hostA:7", host="hostA", pid=7,
            started=NOW, last_beat=NOW,
        ))
        [beat] = queue.read_heartbeats()
        assert beat.worker_id == "hostA:7"

    def test_worker_run_publishes_lease_and_removes_on_exit(
        self, tmp_path
    ):
        """End to end through QueueWorker: mid-task the heartbeat names
        the lease being executed; a clean exit retires the file."""
        cache = ResultCache(tmp_path / "cache", version="v")
        queue = JobQueue(tmp_path / "cache" / "queue").ensure()
        task = make_task(("snoop",), _snoop_heartbeats, str(queue.directory))
        entry_key = cache.entry_key(task.key, "fp")
        queue.enqueue(TaskEnvelope(
            entry_key=entry_key, task=task, cache_version="v"
        ))
        worker = QueueWorker(
            queue, cache,
            poll_interval=0.01, idle_timeout=0.1, max_tasks=1,
            heartbeat_interval=60.0,  # beats only at claim/finish
        )
        stats = worker.run()
        assert stats.completed == 1
        hit, seen = cache.load(entry_key)
        assert hit
        assert seen == [(f"{socket.gethostname()}:{os.getpid()}", entry_key)]
        assert queue.read_heartbeats() == []  # clean exit removed it


# ----------------------------------------------------------------------
# `queue status` snapshots
# ----------------------------------------------------------------------


def synthetic_queue_state(root: Path) -> Path:
    """A deterministic in-flight sweep under ``root/cache``.

    Two tasks pending, one leased (45.5 s ago, held by the live
    worker), one failed, three results cached; one live and one stale
    worker.  Every timestamp is derived from ``NOW``.
    """
    cache_dir = root / "cache"
    for name in ("e1", "e2", "e3"):
        shard = cache_dir / shard_name(name)
        shard.mkdir(parents=True, exist_ok=True)
        (shard / f"{name}.pkl").write_bytes(b"x")
    # An in-flight write: temp files are not entries.
    (cache_dir / shard_name("e1") / ".tmp-ignored.pkl").write_bytes(b"x")

    queue = JobQueue(cache_dir / "queue").ensure()
    for name in ("t1", "t2"):
        (queue.tasks_dir / f"{name}.task").write_bytes(b"x")
    lease = queue.leases_dir / "l1.task"
    lease.write_bytes(b"x")
    os.utime(lease, (NOW - 45.5, NOW - 45.5))

    record = FailureRecord(
        entry_key="f1",
        task_key=("fig12", "sim", "mix007"),
        error="RuntimeError: boom",
        traceback="Traceback (most recent call last):\n  boom\n",
        worker="hostB:202",
    )
    with open(queue.failed_dir / "f1.pkl", "wb") as handle:
        pickle.dump(record, handle)

    # Liveness is judged by the heartbeat *file* mtime (the shared
    # filesystem's clock), so pin those too -- the embedded last_beat
    # values are self-reported context only.
    queue.write_heartbeat(WorkerHeartbeat(
        worker_id="hostA:101", host="hostA", pid=101,
        started=NOW - 60.0, last_beat=NOW - 2.0,
        current_lease="l1", claimed=5, completed=4, failed=0, refused=0,
    ))
    os.utime(queue.heartbeat_path("hostA:101"), (NOW - 2.0, NOW - 2.0))
    queue.write_heartbeat(WorkerHeartbeat(
        worker_id="hostB:202", host="hostB", pid=202,
        started=NOW - 600.0, last_beat=NOW - 120.0,
        current_lease=None, claimed=3, completed=2, failed=1, refused=0,
    ))
    os.utime(queue.heartbeat_path("hostB:202"), (NOW - 120.0, NOW - 120.0))
    return cache_dir


def check_golden(name: str, text: str, request) -> None:
    path = GOLDEN_DIR / name
    if request.config.getoption("--update-golden"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return
    assert path.exists(), (
        f"missing golden {path}; generate with "
        "`pytest tests/test_queue_status.py --update-golden`"
    )
    assert path.read_text() == text, (
        f"{name} is stale; regenerate with "
        "`pytest tests/test_queue_status.py --update-golden` and "
        "review the diff"
    )


class TestQueueStatus:
    def test_json_snapshot_matches_golden(self, tmp_path, monkeypatch,
                                          request):
        monkeypatch.chdir(tmp_path)
        synthetic_queue_state(tmp_path)
        status = queue_status(Path("cache"), now=NOW)
        check_golden(
            "queue_status.json",
            json.dumps(status, indent=2, sort_keys=True) + "\n",
            request,
        )

    def test_table_rendering_matches_golden(self, tmp_path, monkeypatch,
                                            request):
        monkeypatch.chdir(tmp_path)
        synthetic_queue_state(tmp_path)
        status = queue_status(Path("cache"), now=NOW)
        check_golden(
            "queue_status.txt", render_status(status) + "\n", request
        )

    def test_counts_and_worker_classification(self, tmp_path):
        cache_dir = synthetic_queue_state(tmp_path)
        status = queue_status(cache_dir, now=NOW)
        assert status["tasks"] == {
            "pending": 2, "leased": 1, "failed": 1, "results_cached": 3,
        }
        by_id = {
            worker["worker_id"]: worker for worker in status["workers"]
        }
        assert by_id["hostA:101"]["status"] == "live"
        assert by_id["hostB:202"]["status"] == "stale"
        # The live worker's heartbeat attributes the lease it holds.
        [lease] = status["leases"]
        assert lease == {
            "entry_key": "l1", "age_seconds": 45.5, "worker": "hostA:101",
        }
        [failure] = status["failures"]
        assert failure["error"] == "RuntimeError: boom"
        assert "Traceback" in failure["traceback"]
        # Throughput counts only the live worker (4 done over its 60s
        # uptime); the stale worker's history must not dilute the rate.
        assert status["throughput"]["completed"] == 4
        assert status["throughput"]["tasks_per_second"] == round(4 / 60, 4)

    def test_empty_queue_reports_zeros(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        status = queue_status(cache_dir, now=NOW)
        assert status["tasks"] == {
            "pending": 0, "leased": 0, "failed": 0, "results_cached": 0,
        }
        assert status["workers"] == []
        rendered = render_status(status)
        assert "none attached" in rendered

    def test_cli_json_single_document(self, tmp_path, monkeypatch,
                                      capsys):
        monkeypatch.chdir(tmp_path)
        synthetic_queue_state(tmp_path)
        assert runner.main(["queue", "status", "cache", "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["tasks"]["pending"] == 2

    def test_cli_table_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        synthetic_queue_state(tmp_path)
        assert runner.main(["queue", "status", "cache"]) == 0
        out = capsys.readouterr().out
        assert "2 pending, 1 leased" in out
        assert "hostA:101" in out and "stale" in out

    def test_cli_missing_cache_dir_errors(self, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.chdir(tmp_path)
        assert runner.main(["queue", "status", "nope"]) == 1
        assert "no such cache directory" in capsys.readouterr().err

    def test_cli_unknown_queue_verb_usage(self, capsys):
        assert runner.main(["queue", "frobnicate"]) == 2
        assert "queue status" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["queue", "status", "cache"], ["queue", "status", "cache", "--json"],
        ["profile", "cache"], ["profile", "cache", "--json"],
    ], ids=["status", "status-json", "profile", "profile-json"])
    def test_cli_closed_stdout_is_not_an_error(self, argv, tmp_path,
                                               monkeypatch):
        """`runner profile CACHE | head -c 10` exits 0 once head has
        gone, like `queue status`, instead of a BrokenPipeError
        traceback."""

        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.chdir(tmp_path)
        synthetic_queue_state(tmp_path)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert runner.main(argv) == 0


# ----------------------------------------------------------------------
# Per-worker provenance: cache -> ResultSet -> report
# ----------------------------------------------------------------------


class TestResultProvenance:
    def test_store_stamps_this_process_by_default(self, tmp_path):
        cache = ResultCache(tmp_path, version="vX")
        cache.store("k1", ("t",), 42)
        provenance = cache.load_provenance("k1")
        assert provenance["worker"] == (
            f"{socket.gethostname()}:{os.getpid()}"
        )
        assert provenance["code_version"] == "vX"
        assert provenance["stored_at"] == pytest.approx(time.time(), abs=60)

    def test_legacy_entry_without_provenance_still_loads(self, tmp_path):
        cache = ResultCache(tmp_path, version="vX")
        entry = {
            "format": 1, "entry_key": "k1", "task_key": ("t",),
            "version": "vX", "payload": 7,
        }
        cache.path_for("k1").parent.mkdir(parents=True)
        with open(cache.path_for("k1"), "wb") as handle:
            pickle.dump(entry, handle)
        assert cache.load("k1") == (True, 7)
        assert cache.load_provenance("k1") is None
        assert cache.provenance_seen == {"k1": None}

    def test_remote_worker_provenance_flows_into_meta_and_report(
        self, tmp_path
    ):
        """The round-trip the report renders: a worker on another host
        stored the result; a warm run here must attribute it."""
        writer = ResultCache(tmp_path / "cache", version="vX")
        task = make_task(("t",), _double, 21)
        entry_key = writer.entry_key(task.key, "fp")
        writer.store(
            entry_key, task.key, 42,
            provenance={
                "worker": "farmhost:4242",
                "stored_at": 123.0,
                "code_version": "vX",
            },
        )

        ctx = OrchestrationContext(
            cache=ResultCache(tmp_path / "cache", version="vX")
        )
        before = runner._stats_snapshot(ctx)
        assert ctx.run([task], fingerprint="fp") == {("t",): 42}

        result_set = ResultSet(experiment="demo", title="Demo")
        runner._stamp_provenance(result_set, ctx, before)
        provenance = result_set.meta["provenance"]
        assert provenance["workers"] == {"farmhost:4242": 1}
        assert provenance["tasks"]["cache_hits"] == 1

        html = build_report([result_set])
        assert "farmhost:4242" in html

    def test_workers_scoped_per_experiment_snapshot(self, tmp_path):
        """Two experiments in one CLI invocation must not inherit each
        other's worker counts (the snapshot-delta contract)."""
        cache = ResultCache(tmp_path / "cache", version="vX")
        first = make_task(("a",), _double, 1)
        second = make_task(("b",), _double, 2)
        cache.store(
            cache.entry_key(first.key, "fp"), first.key, 2,
            provenance={"worker": "alpha:1", "stored_at": 0.0,
                        "code_version": "vX"},
        )
        cache.store(
            cache.entry_key(second.key, "fp"), second.key, 4,
            provenance={"worker": "beta:2", "stored_at": 0.0,
                        "code_version": "vX"},
        )

        ctx = OrchestrationContext(
            cache=ResultCache(tmp_path / "cache", version="vX")
        )
        first_before = runner._stats_snapshot(ctx)
        ctx.run([first], fingerprint="fp")
        first_set = ResultSet(experiment="one", title="One")
        runner._stamp_provenance(first_set, ctx, first_before)

        second_before = runner._stats_snapshot(ctx)
        ctx.run([second], fingerprint="fp")
        second_set = ResultSet(experiment="two", title="Two")
        runner._stamp_provenance(second_set, ctx, second_before)

        assert first_set.meta["provenance"]["workers"] == {"alpha:1": 1}
        assert second_set.meta["provenance"]["workers"] == {"beta:2": 1}

    def test_repeated_experiment_keeps_worker_attribution(self, tmp_path):
        """``runner run fig12 fig12``: the repeat serves the same cached
        entries again, and its workers map must attribute them too
        (regression: slicing the first-seen dict positionally left the
        repeat's slice -- and workers map -- empty)."""
        cache = ResultCache(tmp_path / "cache", version="vX")
        task = make_task(("t",), _double, 21)
        cache.store(
            cache.entry_key(task.key, "fp"), task.key, 42,
            provenance={"worker": "farmhost:7", "stored_at": 0.0,
                        "code_version": "vX"},
        )

        ctx = OrchestrationContext(
            cache=ResultCache(tmp_path / "cache", version="vX")
        )
        for attempt in ("first", "repeat"):
            before = runner._stats_snapshot(ctx)
            assert ctx.run([task], fingerprint="fp") == {("t",): 42}
            result_set = ResultSet(experiment="demo", title="Demo")
            runner._stamp_provenance(result_set, ctx, before)
            provenance = result_set.meta["provenance"]
            assert provenance["workers"] == {"farmhost:7": 1}, attempt
            assert provenance["tasks"]["cache_hits"] == 1, attempt

    def test_partial_per_seed_worker_counts_render_with_zero_holes(self):
        """A worker that served only some seeds of an aggregate merges
        into a list with None holes; the report must render the N+M
        per-seed convention, not leak commas into the worker list."""
        from repro.experiments.report import _format_worker_count

        assert _format_worker_count(3) == "3"
        assert _format_worker_count([5, None]) == "5+0"
        assert _format_worker_count([None, 2]) == "0+2"

    def test_seed_without_workers_key_keeps_other_seeds_attribution(
        self
    ):
        """Aggregating a seed that predates worker provenance (or ran
        --no-cache) with one that has it must keep the attribution,
        not silently drop the whole row."""
        from repro.experiments.aggregate import ResultSetAggregate

        with_workers = ResultSet(
            experiment="demo", title="Demo",
            scalars={"x": 1.0},
            meta={"provenance": {
                "backend": "queue", "cache_dir": "c",
                "tasks": {"submitted": 5, "cache_hits": 0, "executed": 5},
                "workers": {"hostA:1": 5},
            }},
        )
        without_workers = ResultSet(
            experiment="demo", title="Demo",
            scalars={"x": 2.0},
            meta={"provenance": {
                "backend": "serial", "cache_dir": None,
                "tasks": {"submitted": 5, "cache_hits": 0, "executed": 5},
            }},
        )
        merged = ResultSetAggregate.from_result_sets(
            [with_workers, without_workers], [0, 1]
        ).to_result_set()
        html = build_report([merged])
        assert "hostA:1 ×5+0" in html

    def test_participating_submitter_counts_local_task_once(
        self, tmp_path
    ):
        """A locally executed queue task is stored then immediately
        re-read; the provenance log must count it once, not twice."""
        from repro.orchestration import QueueBackend, default_queue_dir

        cache = ResultCache(tmp_path / "cache")
        backend = QueueBackend(default_queue_dir(cache.directory))
        ctx = OrchestrationContext(cache=cache, backend=backend)
        before = runner._stats_snapshot(ctx)
        assert ctx.run(
            [make_task(("t",), _double, 3)], fingerprint="fp"
        ) == {("t",): 6}
        result_set = ResultSet(experiment="demo", title="Demo")
        runner._stamp_provenance(result_set, ctx, before)
        own = f"{socket.gethostname()}:{os.getpid()}"
        assert result_set.meta["provenance"]["workers"] == {own: 1}
