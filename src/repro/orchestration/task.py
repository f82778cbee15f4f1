"""The unit of orchestrated work.

A :class:`Task` is one independent, picklable computation: a single
simulation, one bank characterization, one baseline run.  Experiments
decompose their sweeps into tasks, hand them to an
:class:`~repro.orchestration.executor.OrchestrationContext`, and
reassemble figure/table results from the returned mapping.

Requirements on a task:

* ``fn`` must be a **module-level** function (workers unpickle it by
  qualified name) taking the task itself and returning a picklable
  result.
* ``params`` must be picklable and, together with ``key``, fully
  determine the result -- task functions must not read mutable global
  state, so that serial, parallel, and cached runs are bit-identical.
* ``key`` must be unique within one submission and stable across
  processes (build it from strings, ints, and tuples).

Each task carries a ``seed`` derived from ``(base_seed, key)`` via
:func:`~repro.orchestration.hashing.derive_task_seed`.  Tasks that
need *independent* randomness (e.g. iteration jitter in a new
workload) should seed their generators from it.  Paired-comparison
tasks -- the Fig 12 simulations, where every configuration must replay
the *same* traces and vulnerability profiles against the same
baseline -- deliberately keep seeding from the experiment-level
``ExperimentScale.seed`` instead, and ``seed`` is advisory.

Setup contexts
--------------

Some tasks share expensive, *deterministic* setup: the Svärd threshold
providers behind a Fig 12 grid, a scaled vulnerability profile.  A task
may declare that setup explicitly via ``setup`` (a module-level
function of the task returning the context) and ``setup_key`` (a
hashable value that fully determines the context).  The execution
layers then build the context **once per key per worker process** and
reuse it across a chunk via :class:`SetupCache` -- with the contract
that the context is immutable during ``fn`` (or at least reusable:
same inputs, same outputs, bit-identical results with or without the
cache).  A task with ``setup=None`` behaves exactly as before.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.orchestration.hashing import TaskKey, derive_task_seed


@dataclass(frozen=True)
class Task:
    """One independent unit of work."""

    key: TaskKey
    fn: Callable[..., Any]
    params: Any = None
    seed: int = 0
    #: Optional module-level function building the shared setup
    #: context for this task.  When set, ``fn`` is called as
    #: ``fn(task, context)`` instead of ``fn(task)``.
    setup: Optional[Callable[["Task"], Any]] = None
    #: Hashable key identifying the setup context; tasks with equal
    #: ``(setup, setup_key)`` may share one built context.  Must fully
    #: determine what ``setup`` returns.
    setup_key: Any = None

    def execute(self) -> Any:
        if self.setup is None:
            return self.fn(self)
        return self.fn(self, self.setup(self))


class SetupCache:
    """A small keyed LRU of built setup contexts, one per process.

    Keys are ``(task.setup, task.setup_key)`` -- the function identity
    disambiguates two experiments that happen to pick colliding keys.
    Capacity is deliberately tiny: a chunk drawn from one
    :class:`TaskGroup` shares a handful of contexts at most, and
    evicting one merely costs a rebuild, never correctness.
    """

    def __init__(self, capacity: int = 8) -> None:
        self.capacity = max(1, int(capacity))
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()

    def context_for(self, task: Task) -> Any:
        """The (memoized) setup context for ``task``; builds on miss."""
        key = (task.setup, task.setup_key)
        try:
            context = self._entries[key]
        except (KeyError, TypeError):
            # TypeError: unhashable setup_key -- fall through to an
            # unmemoized build rather than refusing the task.
            self.misses += 1
            context = task.setup(task)
            try:
                self._entries[key] = context
            except TypeError:
                return context
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return context
        self.hits += 1
        self._entries.move_to_end(key)
        return context

    def clear(self) -> None:
        self._entries.clear()


@dataclass(frozen=True)
class TaskGroup:
    """Tasks sharing one cache fingerprint, submitted together.

    Experiments decompose into one or more groups; tasks within a
    group fan out in a single submission, and the group's
    ``fingerprint`` scopes the on-disk cache (by convention it captures
    every scale/config input outside the task keys).  Grouping by
    fingerprint keeps cache entries shareable between experiments that
    submit the same underlying work -- e.g. the per-(module, bank)
    characterizations -- while still invalidating on any scale change.
    """

    tasks: Tuple[Task, ...]
    fingerprint: Any = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))


def make_task(
    key: TaskKey, fn: Callable[..., Any], params: Any = None, *,
    base_seed: int = 0,
    setup: Optional[Callable[[Task], Any]] = None,
    setup_key: Any = None,
) -> Task:
    """Build a task with its seed derived from ``(base_seed, key)``."""
    key = tuple(key)
    return Task(key=key, fn=fn, params=params,
                seed=derive_task_seed(base_seed, key),
                setup=setup, setup_key=setup_key)


def run_task(task: Task) -> Tuple[TaskKey, Any]:
    """Worker entry point: execute one task, return ``(key, result)``."""
    return task.key, task.execute()


def execute_task_profiled(
    task: Task, setup_cache: Optional[SetupCache] = None
) -> Tuple[Any, Dict[str, float]]:
    """Execute one task, timing setup and run phases separately.

    Returns ``(result, profile)`` where ``profile`` holds ``setup_s``
    (wall time spent building the setup context -- near zero on a
    :class:`SetupCache` hit, which is exactly what the profiling layer
    should show) and ``run_s`` (wall time inside ``fn``).  ``store_s``
    / ``result_bytes`` / ``chunk_size`` are stamped later, by whoever
    stores the result and knows the transport shape.
    """
    if task.setup is None:
        started = time.perf_counter()
        result = task.fn(task)
        return result, {
            "setup_s": 0.0,
            "run_s": time.perf_counter() - started,
        }
    setup_started = time.perf_counter()
    if setup_cache is None:
        context = task.setup(task)
    else:
        context = setup_cache.context_for(task)
    run_started = time.perf_counter()
    result = task.fn(task, context)
    finished = time.perf_counter()
    return result, {
        "setup_s": run_started - setup_started,
        "run_s": finished - run_started,
    }


#: Per-process setup cache used by pool workers: ``multiprocessing``
#: forks/spawns fresh interpreters, so each pool worker memoizes
#: independently, exactly like a queue worker process does.
_PROCESS_SETUP_CACHE = SetupCache()


def run_task_profiled(task: Task) -> Tuple[TaskKey, Any, Dict[str, float]]:
    """Pool-worker entry point: ``(key, result, profile)``.

    Module-level (picklable by qualified name) and routed through the
    per-process :data:`_PROCESS_SETUP_CACHE`, so chunked pool
    submissions reuse setup contexts within each worker process.
    """
    result, profile = execute_task_profiled(task, _PROCESS_SETUP_CACHE)
    return task.key, result, profile
