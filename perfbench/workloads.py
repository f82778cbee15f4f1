"""The benchmark's three workloads, built on the public experiment API.

Each workload names the registered experiments it runs, the
``ExperimentScale`` it runs them at (the benchmark's ``--seed``
becomes ``ExperimentScale.seed``; nothing else varies with it), and
the backend it runs them on.  Load is a closed loop from one client:
the experiments' tasks run back to back in one process, with no pool
and no external workers.  Inside the simulator, 8 cores each run 4
dependent request chains (``SystemConfig``'s defaults), also closed.

The engine workloads also name the correctness checks that need to
know their structure: which Svärd (profile, HC_first) pairs they
build, which tasks use each pair, and which cell is replayed through
the JEDEC conformance checker.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Rows per bank for every workload.  In the engine workloads this only
#: sizes the Svärd profile (the simulated bank keeps ``SystemConfig``'s
#: 128K rows); in ``characterize`` it sizes every characterized bank.
ROWS_PER_BANK = 512

#: Requests per core of ``fig12-quick``'s synthetic mixes.
FIG12_REQUESTS_PER_CORE = 800

SvardPair = Tuple[str, int]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiments: Tuple[str, ...]
    #: ``"serial"`` or ``"queue"`` (the submitter drains its own queue).
    backend: str
    #: ``seed -> ExperimentScale`` of every experiment of the workload.
    scale: Callable[[int], Any]
    #: The Svärd (profile, HC_first) pairs the workload builds.
    svard_pairs: Callable[[Any], List[SvardPair]] = lambda scale: []
    #: The Svärd pair a task key depends on, if any.
    task_pair: Callable[[tuple], Optional[SvardPair]] = lambda key: None
    #: Picks the one cell replayed through the conformance checker.
    conformance_cell: Optional[Callable[[tuple], bool]] = None
    #: Paper outcomes recorded as exact outputs (never gated on).
    outcomes: Callable[[Dict[str, Any]], Dict[str, Any]] = lambda tables: {}

    def experiment_objects(self) -> List[Any]:
        from repro.experiments.api import get_experiment

        return [get_experiment(name) for name in self.experiments]


def _fig12_scale(seed: int):
    from repro.experiments.common import ExperimentScale
    from repro.experiments.fig12_performance import Fig12Experiment

    base = ExperimentScale(
        rows_per_bank=ROWS_PER_BANK,
        requests_per_core=FIG12_REQUESTS_PER_CORE,
        seed=seed,
    )
    return replace(base, **Fig12Experiment.quick_overrides)


def _fig13_scale(seed: int):
    from repro.experiments.common import ExperimentScale

    # Fig13Experiment raises requests_per_core to its 12,000 floor.
    return ExperimentScale(
        rows_per_bank=ROWS_PER_BANK, svard_profiles=("S0",), seed=seed
    )


def _characterize_scale(seed: int):
    from repro.experiments.common import ExperimentScale

    return ExperimentScale(rows_per_bank=ROWS_PER_BANK, seed=seed)


def _profile_label(configuration: str) -> Optional[str]:
    prefix = "Svärd-"
    return configuration[len(prefix):] if configuration.startswith(prefix) else None


def _fig12_pairs(scale) -> List[SvardPair]:
    return [(label, hc) for label in scale.svard_profiles for hc in scale.hc_first_values]


def _fig12_task_pair(key: tuple) -> Optional[SvardPair]:
    # ("fig12", "sim", defense, configuration, hc, mix)
    if key[1] != "sim":
        return None
    label = _profile_label(key[3])
    return (label, key[4]) if label is not None else None


def _fig13_pairs(scale) -> List[SvardPair]:
    from repro.experiments.fig13_adversarial import HC_FIRST

    return [(label, HC_FIRST) for label in scale.svard_profiles]


def _fig13_task_pair(key: tuple) -> Optional[SvardPair]:
    from repro.experiments.fig13_adversarial import HC_FIRST

    # ("fig13", "attack", defense, configuration)
    if key[1] != "attack":
        return None
    label = _profile_label(key[3])
    return (label, HC_FIRST) if label is not None else None


def _rows(tables: Dict[str, Any], experiment: str, table: str) -> List[Dict[str, Any]]:
    found = tables[experiment][table]
    return [dict(zip(found["headers"], row)) for row in found["rows"]]


def _fig12_outcomes(tables: Dict[str, Any]) -> Dict[str, Any]:
    """Svärd-S0's weighted-speedup ratio over No Svärd, per defense and HC."""
    speedups = {
        (row["defense"], row["config"], row["hc_first"]): row["weighted_speedup"]
        for row in _rows(tables, "fig12", "metrics")
    }
    return {
        f"outcome.ws_ratio.{defense}.{config}.hc{hc}": value / speedups[(defense, "No Svärd", hc)]
        for (defense, config, hc), value in sorted(speedups.items())
        if config != "No Svärd"
    }


def _fig13_outcomes(tables: Dict[str, Any]) -> Dict[str, Any]:
    """Slowdown under attack, normalized to No Svärd (below 1 = Svärd helps)."""
    return {
        f"outcome.norm_slowdown.{row['defense']}.{row['config']}": row["normalized_slowdown"]
        for row in _rows(tables, "fig13", "slowdown")
        if row["config"] != "No Svärd"
    }


def _characterize_outcomes(tables: Dict[str, Any]) -> Dict[str, Any]:
    inference = _rows(tables, "fig8", "inference")
    return {
        "outcome.fig8.modules": len(inference),
        "outcome.fig8.subarray_count_found": sum(
            row["inferred_k"] == row["true_k"] for row in inference
        ),
        "outcome.fig9.max_f1": tables["fig9"]["scalars"]["max_f1"],
        "outcome.table3.strong_features": len(tables["table3"]["strong_features"]["rows"]),
    }


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fig12-quick",
            why="Fig 12 quick grid on the serial backend: the headline experiment, "
                "weighted on trace draws, FR-FCFS and per-ACT Svärd lookups, with "
                "one Svärd provider shared by five defenses",
            experiments=("fig12",),
            backend="serial",
            scale=_fig12_scale,
            svard_pairs=_fig12_pairs,
            task_pair=_fig12_task_pair,
            # PARA at HC_first 64 issues the most preventive actions of
            # the grid, so the checker sees every kind of command burst.
            conformance_cell=lambda key: key[1:5] == ("sim", "PARA", "Svärd-S0", 64),
            outcomes=_fig12_outcomes,
        ),
        Workload(
            name="fig13-attack",
            why="Fig 13 at HC_first 64: Hydra thrash and RRS hammer under 360-1,500 "
                "preventive ops per 1,000 ACTs, so the event loop and mitigations "
                "dominate and trace generation is trivial",
            experiments=("fig13",),
            backend="serial",
            scale=_fig13_scale,
            svard_pairs=_fig13_pairs,
            task_pair=_fig13_task_pair,
            # RRS's swaps are four preventive ACTs each; its cell also
            # replays in half the time of Hydra's all-miss thrash.
            conformance_cell=lambda key: key[1:4] == ("attack", "RRS", "Svärd-S0"),
            outcomes=_fig13_outcomes,
        ),
        Workload(
            name="characterize",
            why="Figs 3, 7, 8, 9 and Table 3 on the queue backend: the "
                "characterization half, no simulator, ~185 short tasks, so "
                "per-task cache and queue cost shows",
            experiments=("fig3", "fig7", "fig8", "fig9", "table3"),
            backend="queue",
            scale=_characterize_scale,
            outcomes=_characterize_outcomes,
        ),
    )
}


def workload_named(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}"
        ) from None


def make_backend(workload: Workload, cache_dir) -> Any:
    """The workload's backend; the queue lives inside the cache dir."""
    from repro.orchestration import create_backend

    if workload.backend == "queue":
        return create_backend("queue", queue_dir=f"{cache_dir}/queue", participate=True)
    return create_backend(workload.backend)


def svard_failures(workload: Workload, scale) -> List[SvardPair]:
    """The workload's Svärd pairs whose instance breaks the invariant."""
    from repro.core.svard import Svard
    from repro.experiments.common import scaled_profile

    return [
        (label, hc)
        for label, hc in workload.svard_pairs(scale)
        if not Svard.build(scaled_profile(label, hc, scale)).verify_security_invariant()
    ]


def conformance_replay(workload: Workload, scale) -> Optional[Dict[str, Any]]:
    """Re-run the workload's conformance cell with command logging on.

    The cell's own task function runs unchanged; only its
    ``MemorySystem.run`` call is routed through
    :func:`repro.sim.conformance.check_run`.  Returns the task key, the
    number of JEDEC violations and the cell's result (to compare with
    the cold run's), or ``None`` for a workload without a cell.
    """
    if workload.conformance_cell is None:
        return None
    from repro.orchestration import serial_context
    from repro.sim.conformance import check_run
    from repro.sim.engine import MemorySystem

    (experiment,) = workload.experiment_objects()
    tasks = [
        task
        for group in experiment.build_tasks(scale, serial_context())
        for task in group.tasks
        if workload.conformance_cell(task.key)
    ]
    if len(tasks) != 1:
        raise RuntimeError(f"{workload.name}: expected one conformance cell, got {len(tasks)}")
    (task,) = tasks
    reports: List[Any] = []
    original = MemorySystem.run

    def logged_run(system, **kwargs):
        if "command_log" in kwargs:  # check_run's own call
            return original(system, **kwargs)
        result, report = check_run(system)
        reports.append(report)
        return result

    MemorySystem.run = logged_run
    try:
        value = task.execute()
    finally:
        MemorySystem.run = original
    return {
        "task": repr(task.key),
        "simulations": len(reports),
        "violations": sum(len(report.violations) for report in reports),
        "value": value,
    }
