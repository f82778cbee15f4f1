"""Shared-filesystem job-queue backend.

The submitter publishes every cache miss into a
:class:`~repro.orchestration.jobqueue.JobQueue` directory and then
watches the shared :class:`~repro.orchestration.cache.ResultCache` for
the results to appear.  Any number of ``runner worker`` processes --
on this host or on any host mounting the same filesystem -- claim
tasks via atomic lease renames, execute them, and publish results
through the same sha256-keyed cache the serial and process backends
use.  The cache *is* the result channel, which buys three properties
for free:

* **resumability** -- kill anything, restart it, and only uncached
  tasks run again;
* **N-way sharing** -- several submitters can drain one sweep (a task
  already queued or leased is not enqueued twice);
* **bit-identical results** -- workers run the same pure task
  functions, so a queue run is indistinguishable from a serial one.

Large submissions are **chunked**: cache misses travel K to a queue
file (:class:`~repro.orchestration.jobqueue.ChunkEnvelope`), so a
31-task grid costs ~8 enqueue/claim/lease round-trips instead of 31.
Chunking batches *transport only* -- each member keeps its own cache
entry, failure record, and publish-as-it-completes semantics, so
results remain bit-identical to unchunked runs and a worker killed
mid-chunk loses at most the task in flight.  ``chunk_size=None`` (the
default) sizes chunks from the submission via :func:`auto_chunk_size`;
small sweeps stay unchunked.

By default the submitter *participates*: while waiting it claims and
executes queued tasks itself, so a queue run with zero workers still
completes (it degenerates to a serial run with extra file traffic).
Pass ``participate=False`` (CLI ``--queue-wait``) to leave all
execution to workers.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.orchestration.backends.base import (
    BackendError,
    ExecutionBackend,
    PendingTask,
)
from repro.orchestration.cache import ResultCache
from repro.orchestration.hashing import TaskKey
from repro.orchestration.jobqueue import (
    ChunkEnvelope,
    JobQueue,
    QueueEnvelope,
    TaskEnvelope,
    reclaim_throttle,
)
from repro.orchestration.task import SetupCache
from repro.orchestration.worker import (
    HeartbeatWriter,
    WorkerStats,
    execute_lease,
)

#: How long a lease may sit untouched before the submitter assumes its
#: worker died and makes the task claimable again.  Characterization
#: tasks at paper scale run minutes, not hours; an over-eager reclaim
#: only wastes a duplicate execution, never correctness.
DEFAULT_LEASE_TIMEOUT = 600.0

#: A waiting (non-participating) submitter prints a queue-state line
#: to stderr this often while stalled, so "no workers attached" or
#: "all workers refuse my code version" is visible instead of silent.
STALL_REPORT_INTERVAL = 60.0

#: Collection passes with at most this many outstanding tasks poll
#: per-entry; larger passes scan the cache directory once.  Per-entry
#: stats are O(outstanding) but scale with the sweep (O(N^2) over a
#: drain); one scandir is O(total cache entries), which a long-lived
#: shared cache can make the larger number when only a handful of
#: tasks remain.
PER_ENTRY_POLL_MAX = 16

#: Auto chunking aims for at least this many chunks per submission, so
#: a small worker fleet can still load-balance one sweep.
AUTO_CHUNK_TARGET = 8

#: Auto chunking never puts more tasks than this under one lease: the
#: chunk is the reclaim/loss granularity, so a bound keeps worst-case
#: duplicated work after a SIGKILL small.
AUTO_CHUNK_MAX = 32


def auto_chunk_size(task_count: int) -> int:
    """Chunk size when the caller did not pick one.

    Submissions at or below :data:`AUTO_CHUNK_TARGET` stay unchunked
    (size 1): the per-task queue overhead is negligible there and
    single-task files keep the PR 5 semantics byte-for-byte.  Larger
    submissions are split into ~:data:`AUTO_CHUNK_TARGET` chunks,
    capped at :data:`AUTO_CHUNK_MAX` tasks per chunk.
    """
    if task_count <= AUTO_CHUNK_TARGET:
        return 1
    return min(AUTO_CHUNK_MAX, -(-task_count // AUTO_CHUNK_TARGET))


@dataclass
class QueueBackendStats:
    """What one submitter saw while draining its batch.

    ``enqueued``/``already_in_flight``/``requeued`` count *tasks*
    (chunk members individually); ``chunks_enqueued`` counts the queue
    files actually published, so ``enqueued / chunks_enqueued`` is the
    realized transport batching.
    """

    enqueued: int = 0
    chunks_enqueued: int = 0
    already_in_flight: int = 0
    local_executed: int = 0
    remote_completed: int = 0
    leases_reclaimed: int = 0
    requeued: int = 0


class QueueTaskFailed(BackendError):
    """A worker recorded a failure for one of our tasks."""


class QueueBackend(ExecutionBackend):
    """Drains a sweep through a file-based job queue."""

    name = "queue"
    publishes_to_cache = True

    def __init__(
        self,
        queue_dir: Union[str, Path],
        *,
        participate: bool = True,
        poll_interval: float = 0.2,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        chunk_size: Optional[int] = None,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise BackendError("chunk size must be at least 1")
        self.queue = JobQueue(queue_dir)
        self.participate = participate
        self.poll_interval = poll_interval
        self.lease_timeout = lease_timeout
        self.chunk_size = chunk_size
        self.stats = QueueBackendStats()
        #: Queue keys published by a submitter on a different code
        #: version.  Remembered so the participating claim loop skips
        #: them *before* the claim rename instead of re-claiming and
        #: re-releasing the same foreign tasks every poll.
        self._foreign_keys = set()
        #: Setup-context memo for locally executed (participation)
        #: leases, mirroring a worker's per-process cache.
        self._setup_cache = SetupCache()

    # ------------------------------------------------------------------

    def execute(
        self,
        pending: Sequence[PendingTask],
        cache: Optional[ResultCache] = None,
    ) -> Iterator[Tuple[TaskKey, Any]]:
        if cache is None:
            raise BackendError(
                "the queue backend publishes results through the shared "
                "result cache and cannot run with caching disabled "
                "(drop --no-cache)"
            )
        for item in pending:
            if item.entry_key is None:
                raise BackendError(
                    "queue backend received a pending task without a "
                    "cache entry key"
                )
        self.queue.ensure()

        size = (
            self.chunk_size
            if self.chunk_size is not None
            else auto_chunk_size(len(pending))
        )
        # ``carriers`` maps every entry key to the envelope that
        # transports it -- the TaskEnvelope itself when unchunked, the
        # enclosing ChunkEnvelope otherwise.  Grouping follows
        # submission order, which is deterministic per sweep, so two
        # submitters chunking the same batch produce identical chunk
        # queue keys and dedupe through ``enqueue``.
        carriers: Dict[str, QueueEnvelope] = {}
        to_enqueue: List[QueueEnvelope] = []
        members = [
            TaskEnvelope(
                entry_key=item.entry_key,
                task=item.task,
                cache_version=cache.version,
            )
            for item in pending
        ]
        for start in range(0, len(members), max(size, 1)):
            batch = members[start:start + max(size, 1)]
            envelope: QueueEnvelope = (
                batch[0] if len(batch) == 1
                else ChunkEnvelope(
                    members=tuple(batch), cache_version=cache.version
                )
            )
            to_enqueue.append(envelope)
            for member in batch:
                carriers[member.entry_key] = envelope

        outstanding: Dict[str, PendingTask] = {}
        for item in pending:
            self.queue.clear_failure(item.entry_key)  # fresh attempt
            outstanding[item.entry_key] = item
        for envelope in to_enqueue:
            if self.queue.enqueue(envelope):
                self.stats.enqueued += len(envelope.members)
                self.stats.chunks_enqueued += 1
            else:
                self.stats.already_in_flight += len(envelope.members)

        # A participating submitter executes tasks exactly like a
        # worker, so it publishes a heartbeat exactly like one: its
        # long-running local task must enjoy the same reclaim
        # protection from peers running their own --lease-timeout.
        heartbeat = (
            HeartbeatWriter(self.queue).start() if self.participate else None
        )
        try:
            yield from self._drain(
                outstanding, carriers, cache, heartbeat
            )
        finally:
            if heartbeat is not None:
                heartbeat.stop(remove=True)

    def _drain(
        self,
        outstanding: Dict[str, PendingTask],
        carriers: Dict[str, QueueEnvelope],
        cache: ResultCache,
        heartbeat: Optional[HeartbeatWriter],
    ) -> Iterator[Tuple[TaskKey, Any]]:
        last_reclaim = time.monotonic()
        last_progress = time.monotonic()
        # Chunk queue keys -> member entry keys, for retiring a chunk
        # file once every member's result exists (it may have become
        # moot through another submitter's cache, never claimed here).
        chunk_members: Dict[str, List[str]] = {}
        for entry_key, envelope in carriers.items():
            if len(envelope.members) > 1:
                chunk_members.setdefault(
                    envelope.queue_key, []
                ).append(entry_key)
        while outstanding:
            progressed = False
            # Collect everything workers have published since last
            # look.  ONE scan of the cache directory (and one of the
            # failure directory) answers the whole pass; a per-entry
            # ``stat`` here is O(N) metadata round-trips per pass --
            # O(N^2) over a draining sweep, ruinous on NFS.  (Small
            # remainders flip back to per-entry stats so a huge
            # long-lived cache is not re-listed to find 3 stragglers.)
            present = self._present_entries(outstanding, cache)
            failed = self.queue.failed_entry_keys()
            for entry_key in list(outstanding):
                item = outstanding[entry_key]
                if entry_key not in present:
                    if entry_key in failed:
                        failure = self.queue.failure_for(entry_key)
                        if failure is not None:
                            raise QueueTaskFailed(
                                f"task {item.task.key} failed on worker "
                                f"{failure.worker}: {failure.error}\n"
                                f"{failure.traceback}"
                            )
                    continue
                hit, value = cache.load(entry_key)
                if not hit:
                    # The entry existed a moment ago but did not load:
                    # either a writer raced us (next poll wins) or the
                    # file was corrupt and load just *deleted* it.  The
                    # vanished-task sweep below republishes the latter
                    # case, so neither can strand the sweep.
                    continue
                del outstanding[entry_key]
                # The result may have arrived from outside the queue
                # (another submitter's cache); drop our now-moot task
                # file so workers stop seeing it.  Chunk files are
                # retired below, once *every* member is accounted for.
                if carriers[entry_key].queue_key == entry_key:
                    self.queue.discard_task(entry_key)
                self.stats.remote_completed += 1
                progressed = True
                yield item.task.key, value

            # Retire chunk files whose members have all completed
            # elsewhere: a chunk is only moot as a whole.
            for queue_key in list(chunk_members):
                if any(
                    member in outstanding
                    for member in chunk_members[queue_key]
                ):
                    continue
                self.queue.discard_task(queue_key)
                del chunk_members[queue_key]

            if not outstanding:
                break

            if self.participate:
                # Only claim tasks from our own source tree: executing
                # a foreign-version submitter's task here would publish
                # results computed by the wrong code under its key (the
                # same refusal QueueWorker makes).  The claim filter
                # skips such tasks without starving our own behind
                # them, and once an envelope has been refused its queue
                # key is skipped *before* the rename on later polls.
                lease = self.queue.claim(
                    accept=self._accept_own_version(cache),
                    skip=self._foreign_keys.__contains__,
                )
                if lease is not None:
                    progressed = True
                    yield from self._run_claimed(
                        lease, outstanding, cache, heartbeat
                    )

            if not progressed:
                now = time.monotonic()
                if now - last_reclaim >= reclaim_throttle(self.poll_interval):
                    self.stats.leases_reclaimed += self.queue.reclaim_stale(
                        self.lease_timeout
                    )
                    # Reuse this pass's directory scans: nothing that
                    # could change them has run since (no progress was
                    # made), and re-scanning would double the per-pass
                    # metadata traffic the single-scan fix removed.  A
                    # result discarded as corrupt *during* this pass is
                    # requeued one throttle interval later, off a
                    # fresh scan.
                    self.stats.requeued += self._requeue_vanished(
                        outstanding, carriers, present, failed
                    )
                    last_reclaim = now
                if now - last_progress >= STALL_REPORT_INTERVAL:
                    print(
                        f"[queue] waiting on {len(outstanding)} task(s): "
                        f"{self.queue.pending_count()} queued, "
                        f"{self.queue.leased_count()} leased at "
                        f"{self.queue.directory} -- attach workers with "
                        "`runner worker` (same --cache-dir and code "
                        "version)",
                        file=sys.stderr,
                    )
                    last_progress = now
                time.sleep(self.poll_interval)
            else:
                last_progress = time.monotonic()

    def _run_claimed(
        self,
        lease,
        outstanding: Dict[str, PendingTask],
        cache: ResultCache,
        heartbeat: Optional[HeartbeatWriter],
    ) -> Iterator[Tuple[TaskKey, Any]]:
        """Execute one claimed lease locally and yield our results.

        Works member-by-member so a chunk lease behaves exactly like
        K single-task leases: each member of ours is collected (or its
        failure surfaced) individually, and members belonging to
        another submitter sharing the queue are left for their owner.
        """
        members = lease.envelope.members
        # Keys attributed *before* this claim were already collected
        # for one of our experiments; re-executing them (a reclaimed
        # duplicate) must keep their worker label -- the CLI dedups
        # the repeated key within a provenance slice.
        attributed_before = {
            member.entry_key
            for member in members
            if member.entry_key in cache.provenance_seen
        }
        heartbeat.beat(
            current_lease=lease.envelope.queue_key,
            claimed=heartbeat.state.claimed + 1,
        )
        local_stats = WorkerStats()
        execute_lease(
            lease, cache, self.queue,
            setup_cache=self._setup_cache, stats=local_stats,
        )
        heartbeat.beat(
            current_lease=None,
            completed=heartbeat.state.completed + local_stats.completed,
            failed=heartbeat.state.failed + local_stats.failed,
        )
        for member in members:
            entry_key = member.entry_key
            # The claimed task may belong to another submitter
            # sharing this queue; its owner collects (or surfaces
            # the failure of) that one, not us.
            item = outstanding.pop(entry_key, None)
            if item is None:
                if entry_key not in attributed_before:
                    # Not one of this submitter's results: blank its
                    # worker label (a None label is never counted when
                    # the CLI resolves its event-log slice through
                    # ``provenance_seen``), or the current experiment's
                    # worker counts would disagree with its task
                    # counts.
                    cache.provenance_seen[entry_key] = None
                continue
            failure = self.queue.failure_for(entry_key)
            if failure is not None:
                raise QueueTaskFailed(
                    f"task {item.task.key} failed: "
                    f"{failure.error}\n{failure.traceback}"
                )
            hit, value = cache.load(entry_key)
            if not hit:  # pragma: no cover - store just ran
                raise BackendError(
                    f"result for {item.task.key} vanished "
                    "immediately after store"
                )
            self.stats.local_executed += 1
            yield item.task.key, value

    def _present_entries(
        self, outstanding: Dict[str, PendingTask], cache: ResultCache
    ) -> set:
        """Outstanding entry keys that exist in the cache right now.

        Small remainders are checked entry by entry with
        ``cache.exists``; large ones use the one-pass shard scan.
        """
        if len(outstanding) <= PER_ENTRY_POLL_MAX:
            return {
                entry_key
                for entry_key in outstanding
                if cache.exists(entry_key)
            }
        return cache.scan_entry_keys()

    def _accept_own_version(self, cache: ResultCache):
        def accept(envelope: QueueEnvelope) -> bool:
            if envelope.cache_version == cache.version:
                return True
            self._foreign_keys.add(envelope.queue_key)
            return False

        return accept

    def _requeue_vanished(
        self,
        outstanding: Dict[str, PendingTask],
        carriers: Dict[str, QueueEnvelope],
        present: set,
        failed: set,
    ) -> int:
        """Republish outstanding tasks that exist *nowhere* anymore.

        The submitter is the source of truth: it still holds every
        Task object, so a task with no queue file, no lease, no
        failure record, and no cache entry -- e.g. a worker completed
        it but the stored result was later corrupted and discarded by
        ``cache.load`` -- is simply enqueued again instead of being
        waited on forever.  Pure tasks make the retry free of risk.
        ``present``/``failed`` are the calling pass's directory scans.

        A vanished chunk member republishes its whole carrier chunk;
        the enqueue existence check dedupes members sharing a carrier
        (and suppresses the republish entirely while the chunk's file
        or lease is still in flight), and already-cached members are
        skipped on re-execution, so only the missing work re-runs.
        """
        requeued = 0
        for entry_key in outstanding:
            if entry_key in present:
                continue  # a poll will collect it
            if entry_key in failed:
                # Open the record only for snapshot members -- a
                # speculative per-entry open here would rebuild the
                # O(N)-metadata-ops-per-pass storm the collection-pass
                # fix removed.  (A fail() landing after the snapshot
                # may get its task briefly re-enqueued, but its record
                # is never clobbered -- clear_failure only runs for
                # snapshot members -- so the next collection pass
                # surfaces it; only a little duplicate work, never a
                # lost traceback.)
                if self.queue.failure_for(entry_key) is not None:
                    continue  # a poll will surface the failure
                # A record file exists but cannot be read (e.g. EACCES
                # across NFS users): it must not strand the sweep, so
                # clear it if we can and retry the task.
                self.queue.clear_failure(entry_key)
            if self.queue.enqueue(carriers[entry_key]):
                requeued += 1
        return requeued

    def describe(self) -> str:
        mode = "participating" if self.participate else "waiting"
        return f"queue at {self.queue.directory} ({mode})"
