"""Queue observability: one-shot snapshots of a live sweep.

``runner queue status <cache-dir>`` calls :func:`queue_status` and
renders the snapshot either as one JSON document (``--json``, for
scripts and the chaos smoke) or as the human-readable table of
:func:`render_status`.  Everything here is read-only and advisory: a
snapshot races the sweep it observes by design, and nothing the queue
state machine does depends on it.

The snapshot answers the operator questions a black-box sweep raises:

* how many tasks are **pending / leased / failed**, and how many
  results are already in the cache;
* which workers are attached, which are **live** (fresh heartbeat)
  and which **stale** (beats stopped -- crashed, SIGKILLed, or
  unplugged), and what each one is doing right now;
* what exactly failed, where, and with which traceback;
* rough **throughput** across all workers that ever beat.

This module also hosts the **profiling aggregation** behind
``runner profile <cache-dir>`` and ``runner queue status --profile``:
every profiled execution stamps ``{setup_s, run_s, store_s,
result_bytes, chunk_size}`` into its cache entry's provenance (see
``repro.orchestration.cache``), and :func:`profile_cache` folds those
stamps into per-experiment timing distributions (p50/p95 task times,
overhead share) -- the raw series a perf-trend dashboard charts.
"""

from __future__ import annotations

import pickle
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.orchestration.cache import (
    profile_from_provenance,
    scan_cache_entry_keys,
    shard_name,
)
from repro.orchestration.jobqueue import JobQueue, default_queue_dir

#: A worker whose heartbeat is older than this many seconds is shown
#: as stale (``runner queue status --stale-after`` overrides).
DEFAULT_STALE_AFTER = 30.0

#: Bumped when the snapshot JSON shape changes.
STATUS_FORMAT = 1

#: Bumped when the profile aggregation JSON shape changes.
PROFILE_FORMAT = 1


def queue_status(
    cache_dir: Union[str, Path],
    queue_dir: Union[str, Path, None] = None,
    *,
    now: Optional[float] = None,
    stale_after: float = DEFAULT_STALE_AFTER,
    profile: bool = False,
) -> Dict[str, Any]:
    """A JSON-ready snapshot of one queue directory and its cache.

    ``now`` is injectable so tests (and golden snapshots) can pin
    every derived age; production callers leave it to the wall clock.
    ``profile=True`` additionally folds the cache's per-task profile
    stamps into the snapshot (one full cache read -- opt-in because a
    status poll should stay cheap on large caches).
    """
    cache_dir = Path(cache_dir)
    queue = JobQueue(
        Path(queue_dir) if queue_dir is not None else default_queue_dir(cache_dir)
    )
    now = time.time() if now is None else now

    # Ages come from heartbeat *file mtimes*: the shared filesystem's
    # clock, the same domain lease ages use (and the same rule
    # reclaim_stale applies), so a worker host with a skewed wall
    # clock is not misclassified.  Embedded timestamps stay
    # self-reported context (uptime).
    heartbeats = queue.heartbeat_entries()
    workers = []
    for beat, mtime in heartbeats:
        age = max(0.0, now - mtime)
        # Uptime = the worker's own started->last_beat span (both from
        # its clock, so skew cancels) plus -- for live workers only --
        # the file age since that beat.  Never observer-now minus
        # worker-started (a fast worker clock would clamp it to a
        # nonsense 0), and never still-ticking after death: a stale
        # worker's uptime freezes at its last beat.
        uptime = max(0.0, beat.last_beat - beat.started) + (
            age if age < stale_after else 0.0
        )
        workers.append({
            "worker_id": beat.worker_id,
            "host": beat.host,
            "pid": beat.pid,
            "status": "live" if age < stale_after else "stale",
            "beat_age_seconds": round(age, 3),
            "uptime_seconds": round(uptime, 3),
            "current_lease": beat.current_lease,
            "claimed": beat.claimed,
            "completed": beat.completed,
            "failed": beat.failed,
            "refused": beat.refused,
        })

    # After a reclaim, a dead worker's frozen heartbeat and the live
    # re-claimer can both name the same lease; process stale beats
    # first so the live owner wins the attribution.
    owners: Dict[str, str] = {}
    for beat, mtime in sorted(
        heartbeats, key=lambda entry: now - entry[1] < stale_after
    ):
        if beat.current_lease is not None:
            owners[beat.current_lease] = beat.worker_id
    leases = [
        {
            "entry_key": entry_key,
            "age_seconds": round(max(0.0, now - mtime), 3),
            "worker": owners.get(entry_key),
        }
        for entry_key, mtime in queue.lease_entries()
    ]

    failures = [
        {
            "entry_key": record.entry_key,
            "task_key": [str(part) for part in record.task_key],
            "worker": record.worker,
            "error": record.error,
            "traceback": record.traceback,
        }
        for record in queue.failure_records()
    ]

    # Throughput only counts *live* workers: stale heartbeats are
    # never garbage-collected (they are the death notices), so folding
    # yesterday's SIGKILLed worker into today's rate would make the
    # number meaningless on any long-lived queue directory.
    live_workers = [
        worker for worker in workers if worker["status"] == "live"
    ]
    completed = sum(worker["completed"] for worker in live_workers)
    window = max(
        (worker["uptime_seconds"] for worker in live_workers), default=0.0
    )
    # The fleet rate is the SUM of per-worker rates: dividing the
    # pooled count by the single longest uptime would understate a
    # fleet of fresh workers riding alongside one old-timer by an
    # order of magnitude.
    rates = [
        worker["completed"] / worker["uptime_seconds"]
        for worker in live_workers
        if worker["uptime_seconds"] > 0
    ]
    throughput = {
        "completed": completed,
        "window_seconds": round(window, 3),
        "tasks_per_second": round(sum(rates), 4) if rates else None,
    }

    status = {
        "format": STATUS_FORMAT,
        "generated_at": now,
        "cache_dir": str(cache_dir),
        "queue_dir": str(queue.directory),
        "stale_after_seconds": stale_after,
        "tasks": {
            "pending": queue.pending_count(),
            "leased": len(leases),
            "failed": len(failures),
            "results_cached": len(scan_cache_entry_keys(cache_dir)),
        },
        "workers": workers,
        "leases": leases,
        "failures": failures,
        "throughput": throughput,
    }
    if profile:
        status["profile"] = profile_cache(cache_dir)
    return status


def render_status(status: Dict[str, Any]) -> str:
    """The human-readable form of one :func:`queue_status` snapshot."""
    tasks = status["tasks"]
    lines = [
        f"queue {status['queue_dir']}",
        f"cache {status['cache_dir']}",
        "",
        f"tasks: {tasks['pending']} pending, {tasks['leased']} leased, "
        f"{tasks['failed']} failed, {tasks['results_cached']} results in cache",
    ]

    workers = status["workers"]
    live = sum(1 for worker in workers if worker["status"] == "live")
    lines.append("")
    if not workers:
        lines.append(
            "workers: none attached (start some with `runner worker`)"
        )
    else:
        lines.append(
            f"workers: {live} live, {len(workers) - live} stale "
            f"(heartbeat older than {_seconds(status['stale_after_seconds'])})"
        )
        rows = [(
            "worker", "status", "beat", "up", "lease",
            "done", "failed", "refused",
        )]
        for worker in workers:
            rows.append((
                worker["worker_id"],
                worker["status"],
                _seconds(worker["beat_age_seconds"]),
                _seconds(worker["uptime_seconds"]),
                _short(worker["current_lease"]),
                str(worker["completed"]),
                str(worker["failed"]),
                str(worker["refused"]),
            ))
        lines.extend(_table(rows, indent="  "))

    leases = status["leases"]
    lines.append("")
    if not leases:
        lines.append("leases: none")
    else:
        lines.append(f"leases: {len(leases)}")
        rows = [("entry", "age", "worker")]
        for lease in leases:
            rows.append((
                _short(lease["entry_key"]),
                _seconds(lease["age_seconds"]),
                lease["worker"] or "?",
            ))
        lines.extend(_table(rows, indent="  "))

    failures = status["failures"]
    lines.append("")
    if not failures:
        lines.append("failures: none")
    else:
        lines.append(f"failures: {len(failures)} (tracebacks in --json)")
        for failure in failures:
            label = "/".join(failure["task_key"]) or _short(failure["entry_key"])
            lines.append(
                f"  {label}: {failure['error']} "
                f"(worker {failure['worker']})"
            )

    throughput = status["throughput"]
    lines.append("")
    if throughput["tasks_per_second"] is None:
        lines.append(
            f"throughput: {throughput['completed']} completed by live "
            "workers"
        )
    else:
        lines.append(
            f"throughput: {throughput['completed']} completed by live "
            f"workers over {_seconds(throughput['window_seconds'])} "
            f"({throughput['tasks_per_second']:g} tasks/s)"
        )
    if status.get("profile") is not None:
        lines.append("")
        lines.append(render_profile(status["profile"]))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Profiling aggregation
# ----------------------------------------------------------------------


def summarize_profiles(profiles: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold per-task profile stamps into one distribution summary.

    ``overhead_share`` is the fraction of total busy time spent
    *around* the task function (setup construction + result
    serialization) rather than inside it -- the number chunking and
    setup memoization exist to drive down.
    """
    setup = [float(p.get("setup_s", 0.0)) for p in profiles]
    run = [float(p.get("run_s", 0.0)) for p in profiles]
    store = [float(p.get("store_s", 0.0)) for p in profiles]
    sizes = [int(p.get("result_bytes", 0)) for p in profiles]
    chunks = [int(p.get("chunk_size", 1)) for p in profiles]
    overhead = sum(setup) + sum(store)
    busy = overhead + sum(run)
    return {
        "tasks": len(profiles),
        "setup_s": _distribution(setup),
        "run_s": _distribution(run),
        "store_s": _distribution(store),
        "result_bytes": {
            "total": sum(sizes),
            "mean": sum(sizes) / len(sizes) if sizes else 0.0,
        },
        "chunk_size": {
            "mean": sum(chunks) / len(chunks) if chunks else 0.0,
            "max": max(chunks, default=0),
        },
        "overhead_share": round(overhead / busy, 6) if busy > 0 else 0.0,
    }


def profile_cache(cache_dir: Union[str, Path]) -> Dict[str, Any]:
    """Aggregate every profile stamp in a cache directory.

    Entries stored by unprofiled code paths (anything pre-profiling)
    simply lack the stamp and are counted in ``entries_total`` only.
    Grouping is by the first task-key element -- by convention the
    experiment name (``fig12``, ``fig7`` ...).  Reads are raw and
    version-agnostic: the aggregation is observational, so entries
    written by other code versions still count.
    """
    cache_dir = Path(cache_dir)
    per_experiment: Dict[str, List[Dict[str, Any]]] = {}
    everything: List[Dict[str, Any]] = []
    entries_total = 0
    for entry_key in sorted(scan_cache_entry_keys(cache_dir)):
        entry = _read_entry(cache_dir, entry_key)
        if not isinstance(entry, dict):
            continue
        entries_total += 1
        stamp = profile_from_provenance(entry.get("provenance"))
        if stamp is None:
            continue
        task_key = entry.get("task_key") or ()
        name = str(task_key[0]) if task_key else "(unknown)"
        per_experiment.setdefault(name, []).append(stamp)
        everything.append(stamp)
    return {
        "format": PROFILE_FORMAT,
        "cache_dir": str(cache_dir),
        "entries_total": entries_total,
        "entries_profiled": len(everything),
        "experiments": {
            name: summarize_profiles(stamps)
            for name, stamps in sorted(per_experiment.items())
        },
        "overall": summarize_profiles(everything),
    }


def render_profile(profile: Dict[str, Any]) -> str:
    """The human-readable form of one :func:`profile_cache` summary."""
    lines = [
        f"profile of cache {profile['cache_dir']}",
        f"entries: {profile['entries_profiled']} profiled / "
        f"{profile['entries_total']} total",
    ]
    if not profile["entries_profiled"]:
        lines.append(
            "no profiled entries yet (stored by a pre-profiling code "
            "path, or the cache is empty)"
        )
        return "\n".join(lines)
    lines.append("")
    rows = [(
        "experiment", "tasks", "run p50", "run p95",
        "setup mean", "store mean", "overhead", "chunk",
    )]
    sections = list(profile["experiments"].items())
    if len(sections) != 1:
        sections.append(("(overall)", profile["overall"]))
    for name, summary in sections:
        rows.append((
            name,
            str(summary["tasks"]),
            _seconds(summary["run_s"]["p50"]),
            _seconds(summary["run_s"]["p95"]),
            _seconds(summary["setup_s"]["mean"]),
            _seconds(summary["store_s"]["mean"]),
            f"{100.0 * summary['overhead_share']:.1f}%",
            f"{summary['chunk_size']['mean']:.1f}",
        ))
    lines.extend(_table(rows, indent="  "))
    return "\n".join(lines)


def _read_entry(cache_dir: Path, entry_key: str) -> Any:
    """One raw cache entry; ``None`` if unreadable (racing writers,
    corrupt files -- skip, never raise)."""
    path = cache_dir / shard_name(entry_key) / f"{entry_key}.pkl"
    try:
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except Exception:
        return None


def _distribution(values: List[float]) -> Dict[str, float]:
    if not values:
        return {"total": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    ordered = sorted(values)
    return {
        "total": sum(ordered),
        "mean": sum(ordered) / len(ordered),
        "p50": _percentile(ordered, 0.50),
        "p95": _percentile(ordered, 0.95),
        "max": ordered[-1],
    }


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    rank = max(1, -(-int(q * 100) * len(ordered) // 100))
    return ordered[min(rank, len(ordered)) - 1]


# ----------------------------------------------------------------------


def _short(entry_key: Optional[str], width: int = 12) -> str:
    if not entry_key:
        return "-"
    return entry_key[:width] if len(entry_key) > width else entry_key


def _seconds(value: float) -> str:
    if value >= 3600:
        return f"{value / 3600:.1f}h"
    if value >= 60:
        return f"{value / 60:.1f}m"
    return f"{value:.1f}s"


def _table(rows: List[tuple], indent: str = "") -> List[str]:
    widths = [
        max(len(row[column]) for row in rows)
        for column in range(len(rows[0]))
    ]
    return [
        indent + "  ".join(
            cell.ljust(width) for cell, width in zip(row, widths)
        ).rstrip()
        for row in rows
    ]
