"""Shared pieces of a recipe sweep: provenance stamps, layout, report.

``runner recipe run`` executes every ``(experiment, seed, scale)``
cell of a :class:`~repro.experiments.recipes.Recipe` through an
:class:`~repro.orchestration.OrchestrationContext`, stamps
``meta.recipe`` + ``meta.provenance``, emits the artifact, and finally
aggregates the seed matrix into one ``report.html``.  This module
holds the pieces of that loop: the orchestration-counter snapshots
behind ``meta.provenance`` (which ``runner run`` stamps too), the
artifact layout, and the report writer.

Artifact layout under a sweep's output directory::

    <out>/seed<seed>/<experiment>.json     one ResultSet per cell
    <out>/seed<seed>/<device>/...          with a recipe `devices` axis
    <out>/report.html                      aggregated across seeds

All files are published with atomic renames
(:func:`repro.experiments.render.atomic_write_text`), so a reader of
the tree mid-sweep -- a static file server, say -- sees complete
artifacts or none.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from repro.experiments.recipes import Recipe
from repro.experiments.render import atomic_write_text
from repro.orchestration import OrchestrationContext

__all__ = [
    "recipe_out_dir",
    "stamp_provenance",
    "stats_snapshot",
    "write_recipe_report",
]


def stats_snapshot(orch: OrchestrationContext) -> tuple:
    """Orchestration counters *now*; pair with :func:`stamp_provenance`."""
    provenance_seen = (
        len(orch.cache.provenance_events) if orch.cache is not None else 0
    )
    return (
        orch.stats.submitted,
        orch.stats.hits,
        orch.stats.executed,
        provenance_seen,
    )


def stamp_provenance(
    result_set, orch: OrchestrationContext, before: tuple
) -> None:
    """Record how this ResultSet was computed (shown by the report).

    ``before`` is the :func:`stats_snapshot` taken just before the
    experiment ran, so the task counts are per-experiment even though
    the context is shared by the whole CLI invocation.  When a cache
    is attached, ``workers`` maps each worker label (``host:pid``)
    that computed one of this experiment's results -- this process,
    a pool worker's parent, or any ``runner worker`` on any host --
    to its result count, straight from the per-entry provenance
    stamps in the cache; ``profile`` summarizes the per-task timing
    stamps (:data:`~repro.orchestration.PROFILE_FIELDS`) of the
    entries this experiment touched that carry them.
    """
    submitted, hits, executed, provenance_before = before
    now_submitted, now_hits, now_executed, _ = stats_snapshot(orch)
    provenance = {
        "backend": orch.backend.describe(),
        "cache_dir": (
            str(orch.cache.directory) if orch.cache is not None else None
        ),
        "tasks": {
            "submitted": now_submitted - submitted,
            "cache_hits": now_hits - hits,
            "executed": now_executed - executed,
        },
    }
    if orch.cache is not None:
        # Slice the append-only event log, not the first-seen dict:
        # a repeated experiment's cache hits re-log already-seen
        # entry keys, so its slice is never empty.  Dedup keys within
        # the slice (a store immediately re-read counts once) and
        # resolve worker labels through the dict, which the queue
        # backend blanks for foreign submitters' entries.
        workers: dict = {}
        profiles: list = []
        events = orch.cache.provenance_events[provenance_before:]
        for entry_key in dict.fromkeys(events):
            worker = orch.cache.provenance_seen.get(entry_key)
            if worker is not None:
                workers[worker] = workers.get(worker, 0) + 1
            profile = orch.cache.profile_seen.get(entry_key)
            if profile is not None:
                profiles.append(profile)
        provenance["workers"] = {
            worker: workers[worker] for worker in sorted(workers)
        }
        if profiles:
            from repro.orchestration.status import summarize_profiles

            provenance["profile"] = summarize_profiles(profiles)
    result_set.meta["provenance"] = provenance


def recipe_out_dir(
    out_dir: Path, recipe: Recipe, seed: int, *, device: Optional[str] = None
) -> Path:
    """Deterministic artifact layout: one subdirectory per seed.

    Recipes with a ``devices`` axis nest one more level
    (``seed0/lpddr4-3200/...``) so a multi-generation sweep never
    collides the same experiment's artifacts.
    """
    seed_dir = out_dir / f"seed{seed}"
    if device is None:
        return seed_dir
    return seed_dir / device.lower()


def write_recipe_report(
    recipe: Recipe, smoke: bool, completed: List[tuple], out_dir: Path
) -> Path:
    """``<out>/report.html`` for the cells of one recipe run.

    The cells aggregate **in memory** (per experiment and device,
    across the seed matrix), so the report works with any ``--format``
    -- the on-disk artifacts need not be JSON.  ``completed`` holds
    ``(experiment_name, seed, device, result_set)`` tuples (``device``
    is ``None`` without a devices axis).  The page is published
    atomically so a reader of the tree never sees half a report.
    """
    from repro.experiments.aggregate import ResultSetAggregate
    from repro.experiments.report import build_report

    sections = []
    for experiment_name in recipe.experiments:
        # One section per (experiment, device) cell group: a devices
        # axis must not aggregate DDR4 numbers with DDR5 numbers.
        for device in recipe.devices or (None,):
            members = [
                (seed, result_set)
                for name, seed, cell_device, result_set in completed
                if name == experiment_name and cell_device == device
            ]
            if not members:
                continue  # every seed of this cell group failed
            if len(members) == 1:
                sections.append(members[0][1])
            else:
                sections.append(ResultSetAggregate.from_result_sets(
                    [result_set for _, result_set in members],
                    [seed for seed, _ in members],
                ).to_result_set())
    seeds = ", ".join(str(seed) for seed in recipe.seeds)
    html = build_report(
        sections,
        title=f"{recipe.name} v{recipe.version}",
        subtitle=f"{recipe.description} -- seeds {seeds}"
                 + (" (smoke scale)" if smoke else ""),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.html"
    atomic_write_text(path, html)
    return path

