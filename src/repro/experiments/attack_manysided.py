"""Many-sided (N-aggressor) hammering versus the preventive defenses.

The ROADMAP's "richer attack patterns" item: round-robin N-sided
RowHammer (TRRespass-style) against the probabilistic and
tracking-based defenses at a worst-case HC_first of 64.  Spreading the
same activation rate over more aggressor rows dilutes per-row
activation counts, which is precisely the regime where sampling
defenses (PARA) keep paying per-activation while trackers
(BlockHammer) relax -- and where Svärd's per-row thresholds shift the
balance.  Reported like Fig 13: slowdown versus the no-defense
baseline, normalized to No Svärd per (defense, N).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

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
)
from repro.experiments.fig13_adversarial import (
    HC_FIRST,
    attack_baseline_task,
    attack_task,
)
from repro.orchestration import OrchestrationContext, TaskGroup, make_task
from repro.sim.config import SystemConfig
from repro.workloads.adversarial import ManySidedHammerTrace

#: The aggressor-count sweep: double-sided, the common many-sided
#: escalation, and a cache/tracker-straining wide rotation.
N_SIDES_SWEEP = (2, 8, 32)


@dataclass
class ManySidedResult:
    #: (defense, n_sides, configuration) -> slowdown normalized to
    #: No Svärd at the same (defense, n_sides).
    normalized_slowdown: Dict[Tuple[str, int, str], float]
    #: (defense, n_sides, configuration) -> raw slowdown vs no-defense.
    raw_slowdown: Dict[Tuple[str, int, str], float]

    def render(self) -> str:
        return result_set(self).render_text()


def result_set(result: ManySidedResult) -> ResultSet:
    title = (
        f"Many-sided hammering at HC_first = {HC_FIRST}: "
        "N-aggressor rotation vs preventive defenses"
    )
    data_rows = [
        (
            defense,
            n_sides,
            config,
            result.raw_slowdown[(defense, n_sides, config)],
            value,
        )
        for (defense, n_sides, config), value in sorted(
            result.normalized_slowdown.items()
        )
    ]
    return ResultSet(
        experiment="attack-manysided",
        title=title,
        scalars={"hc_first": HC_FIRST},
        tables=(
            ResultTable(
                name="slowdown",
                headers=(
                    "defense", "n_sides", "config", "raw_slowdown",
                    "normalized_slowdown",
                ),
                rows=data_rows,
            ),
        ),
        layout=(
            TextBlock(title + "\n\n"),
            TableBlock(
                headers=(
                    "defense", "N", "config", "slowdown",
                    "norm. to No Svärd",
                ),
                rows=[
                    (
                        defense, str(n_sides), config,
                        f"{raw:.2f}", f"{normalized:.3f}",
                    )
                    for defense, n_sides, config, raw, normalized in data_rows
                ],
            ),
        ),
        plots=(
            PlotSpec(
                name="slowdown",
                kind="bar",
                table="slowdown",
                x="n_sides",
                y=("normalized_slowdown",),
                series="config",
                title=title,
                ylabel="slowdown normalized to No Svärd",
            ),
        ),
    )


def _attack_traces(n_sides: int, config: SystemConfig) -> List:
    # One aggressor set per core, in separate banks, phased within the
    # rotation so simultaneous cores do not ride each other's row
    # buffer; stride 2 is the generalized double-sided sandwich.
    return [
        ManySidedHammerTrace(
            n_sides=n_sides,
            base_row=(1000 + 4096 * core) % config.rows_per_bank,
            bank=core % config.total_banks,
            rows_per_bank=config.rows_per_bank,
            start_offset=core * 3,
        )
        for core in range(config.cores)
    ]


@register
class ManySidedExperiment(Experiment):
    name = "attack-manysided"
    description = "Many-sided (N-aggressor) hammering vs PARA/BlockHammer"
    paper_ref = "Sec. 7.3 (extended)"

    DEFENSE_NAMES = ("PARA", "BlockHammer")

    quick_overrides = {"requests_per_core": 3000}

    def __init__(self, system_config: Optional[SystemConfig] = None) -> None:
        self.system_config = system_config

    def _config(self, scale: ExperimentScale) -> SystemConfig:
        return self.system_config or scale.system_config(
            requests_per_core=max(scale.requests_per_core, 6_000),
            defense_epoch_ns=DEFENSE_EPOCH_NS,
        )

    def build_tasks(self, scale, orch):
        config = self._config(scale)
        tasks = [
            make_task(
                ("attack-manysided", "baseline", n_sides),
                attack_baseline_task,
                (_attack_traces, n_sides, config),
                base_seed=scale.seed,
            )
            for n_sides in N_SIDES_SWEEP
        ]
        tasks += [
            make_task(
                ("attack-manysided", "attack", defense_name, n_sides,
                 configuration),
                attack_task,
                (
                    _attack_traces, n_sides, defense_name, configuration,
                    scale, config,
                ),
                base_seed=scale.seed,
            )
            for defense_name in self.DEFENSE_NAMES
            for n_sides in N_SIDES_SWEEP
            for configuration in svard_configurations(scale)
        ]
        return [TaskGroup(
            tasks=tuple(tasks),
            fingerprint=("attack-manysided", scale, config),
        )]

    def reduce(self, scale, outputs):
        configurations = svard_configurations(scale)
        raw: Dict[Tuple[str, int, str], float] = {}
        normalized: Dict[Tuple[str, int, str], float] = {}
        for defense_name in self.DEFENSE_NAMES:
            for n_sides in N_SIDES_SWEEP:
                base_times = np.array(
                    outputs[("attack-manysided", "baseline", n_sides)]
                )
                for configuration in configurations:
                    times = outputs[(
                        "attack-manysided", "attack", defense_name, n_sides,
                        configuration,
                    )]
                    raw[(defense_name, n_sides, configuration)] = float(
                        np.mean(np.array(times) / base_times)
                    )
                reference = raw[(defense_name, n_sides, NO_SVARD)]
                for configuration in configurations:
                    normalized[(defense_name, n_sides, configuration)] = (
                        raw[(defense_name, n_sides, configuration)]
                        / reference
                    )
        return ManySidedResult(
            normalized_slowdown=normalized, raw_slowdown=raw
        )

    def result_set(self, result):
        return result_set(result)


def run(
    scale: ExperimentScale = ExperimentScale(),
    *,
    system_config: Optional[SystemConfig] = None,
    orchestration: Optional[OrchestrationContext] = None,
) -> ManySidedResult:
    return ManySidedExperiment(system_config=system_config).run(
        scale, orchestration
    )
