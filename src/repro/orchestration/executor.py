"""Execution policy: cache short-circuiting over a pluggable backend.

:class:`OrchestrationContext` is the single object experiments thread
through their ``run()`` functions.  It owns the *policy* -- the
optional on-disk :class:`~repro.orchestration.cache.ResultCache`, the
progress callback, and run statistics -- and delegates raw execution
of cache misses to an
:class:`~repro.orchestration.backends.ExecutionBackend` (``serial``,
``process``, or ``queue``; see ``repro/orchestration/backends/``).
The default context (``jobs=1``, no cache) reproduces the old
sequential behavior exactly, so every experiment still works with no
arguments.

Execution contract: tasks are pure functions of their parameters, so
the mapping returned by :meth:`OrchestrationContext.run` is
bit-identical whichever backend ran the tasks and whether they came
out of a warm cache -- the determinism suites in
``tests/test_orchestration.py`` and ``tests/test_backends.py`` enforce
this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.orchestration.backends import (
    ExecutionBackend,
    PendingTask,
    default_backend,
)
from repro.orchestration.cache import ResultCache
from repro.orchestration.hashing import TaskKey
from repro.orchestration.task import Task, TaskGroup

#: ``progress(done, total, key)`` called after every finished task.
ProgressCallback = Callable[[int, int, TaskKey], None]


@dataclass
class OrchestrationStats:
    """What one context did across all its submissions."""

    submitted: int = 0
    hits: int = 0
    executed: int = 0


class OrchestrationContext:
    """Execution policy shared by all experiments in one run."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressCallback] = None,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.cache = cache
        self.progress = progress
        self.stats = OrchestrationStats()
        #: ``backend`` wins when given; otherwise ``jobs`` picks the
        #: classic behavior (1 = serial, N = local process pool).
        self.backend = backend if backend is not None else default_backend(jobs)

    def close(self) -> None:
        """Release backend resources, e.g. worker pools (idempotent)."""
        self.backend.close()

    def __enter__(self) -> "OrchestrationContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------

    def run(
        self, tasks: Sequence[Task], *, fingerprint: Any = None
    ) -> Dict[TaskKey, Any]:
        """Execute (or recall) every task; return ``{task.key: result}``.

        ``fingerprint`` scopes the cache: it should capture everything
        outside ``task.key`` that influences results (by convention the
        full ``ExperimentScale`` and ``SystemConfig``).
        """
        return self.run_groups([TaskGroup(tasks=tuple(tasks),
                                          fingerprint=fingerprint)])

    def run_groups(
        self, groups: Sequence[TaskGroup]
    ) -> Dict[TaskKey, Any]:
        """Execute several fingerprint-scoped groups as ONE submission.

        Cache entries are keyed per group (``task.key`` under that
        group's ``fingerprint``), but all cache misses fan out over the
        backend together -- groups are a cache-scoping construct, not
        an execution barrier.  Task keys must be unique across the
        whole submission.
        """
        tasks = [task for group in groups for task in group.tasks]
        keys = [task.key for task in tasks]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate task keys in one submission")

        self.stats.submitted += len(tasks)
        total = len(tasks)
        done = 0
        results: Dict[TaskKey, Any] = {}
        pending: List[PendingTask] = []

        for group in groups:
            if self.cache is None:
                pending.extend(PendingTask(task=task) for task in group.tasks)
                continue
            group_keys = self.cache.entry_keys(
                [task.key for task in group.tasks], group.fingerprint
            )
            for task, entry_key in zip(group.tasks, group_keys):
                hit, value = self.cache.load(entry_key)
                if hit:
                    results[task.key] = value
                    self.stats.hits += 1
                    done += 1
                    self._report(done, total, task.key)
                    continue
                pending.append(PendingTask(task=task, entry_key=entry_key))

        entry_keys = {item.task.key: item.entry_key for item in pending}
        store = self.cache is not None and not self.backend.publishes_to_cache
        for key, value in self._execute(pending):
            if store:
                # Locally executing backends stash per-task timing
                # stamps in ``profiles``; fold them into the entry's
                # provenance (popped, so the dict stays bounded).
                self.cache.store(
                    entry_keys[key], key, value,
                    profile=self.backend.profiles.pop(key, None),
                )
            results[key] = value
            self.stats.executed += 1
            done += 1
            self._report(done, total, key)
        return results

    # ------------------------------------------------------------------

    def _execute(self, pending: List[PendingTask]):
        """Yield ``(key, result)`` pairs from the backend.

        Kept as a separate method so tests can spy on batch sizes; the
        order of results follows the backend (the queue backend yields
        in completion order, the others in submission order).
        """
        yield from self.backend.execute(pending, self.cache)

    def _report(self, done: int, total: int, key: TaskKey) -> None:
        if self.progress is not None:
            self.progress(done, total, key)


def serial_context() -> OrchestrationContext:
    """The no-pool, no-cache default used when none is supplied."""
    return OrchestrationContext(jobs=1, cache=None)
