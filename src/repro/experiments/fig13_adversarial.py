"""Fig 13: Hydra and RRS under adversarial access patterns.

At a worst-case HC_first of 64, the paper measures the slowdown of
Hydra under a counter-cache-thrashing pattern and of RRS under a
single-row hammer, for No Svärd and the three Svärd profiles,
normalized to No Svärd.  Svärd reduces both (Obsv 16, checked as
``Takeaway 9@fig13-wide``).  The paper finds the reduction largest
with the Mfr. S profile (Obsv 17); the reproduction contradicts that
order, with Svärd-S0 helping least on both defenses -- a known
deviation, with its numbers in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.defenses import DEFENSE_CLASSES
from repro.experiments.api import (
    Experiment,
    PlotSpec,
    ResultSet,
    ResultTable,
    TableBlock,
    TextBlock,
    register,
)
from repro.experiments.common import (
    DEFENSE_EPOCH_NS,
    NO_SVARD,
    ExperimentScale,
    svard_configurations,
    svard_thresholds,
)
from repro.orchestration import (
    OrchestrationContext,
    Task,
    TaskGroup,
    make_task,
)
from repro.sim.config import SystemConfig
from repro.sim.engine import MemorySystem
from repro.workloads.adversarial import HydraAdversarialTrace, RrsAdversarialTrace

HC_FIRST = 64


@dataclass
class Fig13Result:
    #: (defense, configuration) -> slowdown normalized to No Svärd.
    normalized_slowdown: Dict[Tuple[str, str], float]
    #: (defense, configuration) -> raw slowdown vs no-defense baseline.
    raw_slowdown: Dict[Tuple[str, str], float]

    def render(self) -> str:
        return result_set(self).render_text()


def result_set(result: Fig13Result) -> ResultSet:
    title = f"Fig 13: adversarial access patterns at HC_first = {HC_FIRST}"
    data_rows = [
        (
            defense,
            config,
            result.raw_slowdown[(defense, config)],
            value,
        )
        for (defense, config), value in sorted(
            result.normalized_slowdown.items()
        )
    ]
    return ResultSet(
        experiment="fig13",
        title=title,
        scalars={"hc_first": HC_FIRST},
        tables=(
            ResultTable(
                name="slowdown",
                headers=(
                    "defense", "config", "raw_slowdown",
                    "normalized_slowdown",
                ),
                rows=data_rows,
            ),
        ),
        layout=(
            TextBlock(title + "\n\n"),
            TableBlock(
                headers=(
                    "defense", "config", "slowdown", "norm. to No Svärd",
                ),
                rows=[
                    (defense, config, f"{raw:.2f}", f"{normalized:.3f}")
                    for defense, config, raw, normalized in data_rows
                ],
            ),
        ),
        plots=(
            PlotSpec(
                name="slowdown",
                kind="bar",
                table="slowdown",
                x="defense",
                y=("normalized_slowdown",),
                series="config",
                title=title,
                ylabel="slowdown normalized to No Svärd",
            ),
        ),
    )


#: Scaled-down row-count-cache capacity for the adversarial study:
#: the trace's working set must exceed it (see EXPERIMENTS.md).
HYDRA_RCC_ENTRIES = 512


def _adversarial_traces(defense_name: str, config: SystemConfig) -> List:
    if defense_name == "Hydra":
        # The attacker revisits each row often enough that its group
        # escalates to exact tracking even under Svärd's relaxed
        # thresholds -- Hydra's counter traffic is then threshold-
        # independent, which is the attack's point.
        return [
            HydraAdversarialTrace(
                n_rows=640,
                bank_stride=config.total_banks,
                rows_per_bank=config.rows_per_bank,
                start_offset=core * 80,
            )
            for core in range(config.cores)
        ]
    return [
        RrsAdversarialTrace(
            target_row=997 * (core + 1) % config.rows_per_bank,
            scratch_row=(997 * (core + 1) + 64) % config.rows_per_bank,
            bank=core % config.total_banks,
        )
        for core in range(config.cores)
    ]


def attack_baseline_task(task: Task) -> List[float]:
    """No-defense finish times of an attack experiment's traces.

    ``task.params`` is ``(make_traces, pattern, config)``: the cores
    replay ``make_traces(pattern, config)``.  Fig 13 and
    attack-manysided share this task and :func:`attack_task`.
    """
    make_traces, pattern, config = task.params
    return MemorySystem(config, make_traces(pattern, config)).run().finish_times()


def attack_cell(
    make_traces: Callable[[Any, SystemConfig], List],
    pattern: Any,
    defense_name: str,
    configuration: str,
    scale: ExperimentScale,
    config: SystemConfig,
) -> MemorySystem:
    """One defended cell of an attack experiment, not yet run.

    The cores replay ``make_traces(pattern, config)`` against
    ``defense_name`` at :data:`HC_FIRST` with the thresholds of the
    Svärd ``configuration``; Hydra gets the scaled-down row-count
    cache.  The arguments are an :func:`attack_task`'s params, so a
    caller that reads the defense's counters runs the task's own cell.
    """
    options = {"rcc_entries": HYDRA_RCC_ENTRIES} if defense_name == "Hydra" else {}
    defense = DEFENSE_CLASSES[defense_name](
        HC_FIRST,
        thresholds=svard_thresholds(configuration, HC_FIRST, scale),
        rows_per_bank=config.rows_per_bank,
        seed=scale.seed,
        **options,
    )
    return MemorySystem(config, make_traces(pattern, config), defense=defense)


def attack_task(task: Task) -> List[float]:
    """Finish times of one :func:`attack_cell` under attack."""
    return attack_cell(*task.params).run().finish_times()


@register
class Fig13Experiment(Experiment):
    name = "fig13"
    description = "Hydra and RRS under adversarial access patterns"
    paper_ref = "Fig. 13"

    DEFENSE_NAMES = ("Hydra", "RRS")

    def __init__(self, system_config: Optional[SystemConfig] = None) -> None:
        self.system_config = system_config

    def _config(self, scale: ExperimentScale) -> SystemConfig:
        return self.system_config or scale.system_config(
            requests_per_core=max(scale.requests_per_core, 12_000),
            defense_epoch_ns=DEFENSE_EPOCH_NS,
        )

    def build_tasks(self, scale, orch):
        config = self._config(scale)
        tasks = [
            make_task(
                ("fig13", "baseline", defense_name),
                attack_baseline_task,
                (_adversarial_traces, defense_name, config),
                base_seed=scale.seed,
            )
            for defense_name in self.DEFENSE_NAMES
        ]
        tasks += [
            make_task(
                ("fig13", "attack", defense_name, configuration),
                attack_task,
                (
                    _adversarial_traces, defense_name, defense_name,
                    configuration, scale, config,
                ),
                base_seed=scale.seed,
            )
            for defense_name in self.DEFENSE_NAMES
            for configuration in svard_configurations(scale)
        ]
        return [TaskGroup(tasks=tuple(tasks), fingerprint=("fig13", scale, config))]

    def reduce(self, scale, outputs):
        configurations = svard_configurations(scale)
        raw: Dict[Tuple[str, str], float] = {}
        normalized: Dict[Tuple[str, str], float] = {}
        for defense_name in self.DEFENSE_NAMES:
            base_times = np.array(outputs[("fig13", "baseline", defense_name)])
            for configuration in configurations:
                times = outputs[("fig13", "attack", defense_name, configuration)]
                raw[(defense_name, configuration)] = float(
                    np.mean(np.array(times) / base_times)
                )
            reference = raw[(defense_name, NO_SVARD)]
            for configuration in configurations:
                normalized[(defense_name, configuration)] = (
                    raw[(defense_name, configuration)] / reference
                )
        return Fig13Result(normalized_slowdown=normalized, raw_slowdown=raw)

    def result_set(self, result):
        return result_set(result)


def run(
    scale: ExperimentScale = ExperimentScale(),
    *,
    system_config: Optional[SystemConfig] = None,
    orchestration: Optional[OrchestrationContext] = None,
) -> Fig13Result:
    return Fig13Experiment(system_config=system_config).run(scale, orchestration)
