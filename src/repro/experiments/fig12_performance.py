"""Fig 12: performance of five defenses with and without Svärd.

For each defense (AQUA, BlockHammer, Hydra, PARA, RRS), each Svärd
configuration (No Svärd, Svärd-H1, Svärd-M0, Svärd-S0), and each
worst-case HC_first (4K down to 64), the harness simulates the
multiprogrammed mixes and reports weighted speedup, harmonic speedup,
and maximum slowdown, normalized to a no-defense baseline -- the
same three rows of subplots as the paper's figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.defenses import DEFENSE_CLASSES
from repro.defenses.base import ThresholdProvider
from repro.experiments.api import (
    Experiment,
    ExperimentError,
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
    defended_run,
    mix_baseline_task,
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
from repro.sim.metrics import MultiProgramMetrics, compute_metrics
from repro.workloads.mixes import WorkloadMix, generate_mixes

TITLE = "Fig 12: Svärd performance evaluation"


@dataclass
class Fig12Result:
    """Averaged metrics per (defense, configuration, HC_first)."""

    metrics: Dict[Tuple[str, str, int], MultiProgramMetrics]
    configurations: Tuple[str, ...]
    hc_values: Tuple[int, ...]
    n_mixes: int

    def weighted_speedup(self, defense: str, config: str, hc: int) -> float:
        return self.metrics[(defense, config, hc)].weighted_speedup

    def improvement(self, defense: str, config: str, hc: int) -> float:
        """Svärd's speedup ratio over No Svärd (the paper's 1.23x etc.)."""
        return (
            self.metrics[(defense, config, hc)].weighted_speedup
            / self.metrics[(defense, NO_SVARD, hc)].weighted_speedup
        )

    def mean_improvement(self, defense: str, hc: int) -> float:
        """Average improvement across the Svärd profiles at one HC."""
        svard_configs = [c for c in self.configurations if c != NO_SVARD]
        return float(
            np.mean([self.improvement(defense, c, hc) for c in svard_configs])
        )

    def render(self) -> str:
        return result_set(self).render_text()


METRIC_NAMES = ("weighted_speedup", "harmonic_speedup", "max_slowdown")


def result_set(result: Fig12Result) -> ResultSet:
    metric_rows = [
        (
            defense,
            config,
            # One plotted line per (defense, config) pair -- series'ing
            # on either column alone would interleave unrelated rows.
            f"{defense} / {config}",
            int(hc),
            metrics.weighted_speedup,
            metrics.harmonic_speedup,
            metrics.max_slowdown,
        )
        for (defense, config, hc), metrics in sorted(result.metrics.items())
    ]
    layout: List = [TextBlock(TITLE + "\n\n")]
    for index, metric_name in enumerate(METRIC_NAMES):
        if index:
            layout.append(TextBlock("\n\n"))
        layout.append(
            TextBlock(
                f"{metric_name} (normalized to no-defense baseline):\n"
            )
        )
        # metric_rows columns: defense, config, defense_config,
        # hc_first, then one column per METRIC_NAMES entry.
        value_column = 4 + index
        layout.append(
            TableBlock(
                headers=("defense", "config", "HC_first", "value"),
                rows=[
                    (row[0], row[1], str(row[3]), f"{row[value_column]:.3f}")
                    for row in metric_rows
                ],
            )
        )
    return ResultSet(
        experiment="fig12",
        title=TITLE,
        scalars={"n_mixes": result.n_mixes},
        tables=(
            ResultTable(
                name="metrics",
                headers=(
                    "defense", "config", "defense_config", "hc_first",
                    "weighted_speedup", "harmonic_speedup", "max_slowdown",
                ),
                rows=metric_rows,
            ),
        ),
        layout=tuple(layout),
        plots=tuple(
            PlotSpec(
                name=metric_name,
                kind="line",
                table="metrics",
                x="hc_first",
                y=(metric_name,),
                series="defense_config",
                title=f"Fig 12: {metric_name} vs worst-case HC_first",
                xlabel="HC_first",
                ylabel=metric_name,
                logx=True,
            )
            for metric_name in METRIC_NAMES
        ),
    )


def _mean_metrics(values: Sequence[MultiProgramMetrics]) -> MultiProgramMetrics:
    return MultiProgramMetrics(
        weighted_speedup=float(np.mean([v.weighted_speedup for v in values])),
        harmonic_speedup=float(np.mean([v.harmonic_speedup for v in values])),
        max_slowdown=float(np.mean([v.max_slowdown for v in values])),
    )


def _provider_setup(task: Task) -> ThresholdProvider:
    """Setup hook: the Svärd threshold provider this task needs.

    Building one walks the full vulnerability profile, and every
    defense at the same (profile, HC_first) shares it -- declared as
    the task's *setup context* so the execution layers build it once
    per ``setup_key`` per worker process and reuse it across a chunk
    (see ``SetupCache``).  Providers are pure functions of their key,
    so memoization never changes results.
    """
    _mix, _defense, configuration, hc, scale, _config = task.params
    return svard_thresholds(configuration, hc, scale)


def _simulation_task(
    task: Task, thresholds: Optional[ThresholdProvider] = None
) -> List[float]:
    """One defended simulation; returns raw per-core finish times.

    Normalization happens in the parent so that this task depends on
    nothing but its own parameters (all configurations of a mix
    replay the same traces, seeded from the experiment scale).
    ``thresholds`` arrives from the setup hook for Svärd
    configurations and stays ``None`` for the No-Svärd rows (which
    declare no setup).
    """
    mix, defense_name, _configuration, hc, scale, config = task.params
    defense = DEFENSE_CLASSES[defense_name](
        hc, thresholds=thresholds, rows_per_bank=config.rows_per_bank,
        seed=scale.seed,
    )
    return defended_run(mix, config, defense).finish_times()


@register
class Fig12Experiment(Experiment):
    name = "fig12"
    description = "defense performance with and without Svärd"
    paper_ref = "Fig. 12"
    #: The runner's quick grid: three HC values, one profile, one mix.
    quick_overrides = {
        "hc_first_values": (4096, 256, 64),
        "svard_profiles": ("S0",),
        "n_mixes": 1,
    }

    def __init__(
        self,
        defenses: Optional[Sequence[str]] = None,
        system_config: Optional[SystemConfig] = None,
    ) -> None:
        self.defenses = defenses
        self.system_config = system_config

    # ------------------------------------------------------------------

    def _defense_names(self) -> List[str]:
        if self.defenses is None:
            return sorted(DEFENSE_CLASSES)
        if not self.defenses:
            raise ExperimentError("fig12: the explicit defense list is empty")
        return sorted(self.defenses)

    def _config(self, scale: ExperimentScale) -> SystemConfig:
        return self.system_config or scale.system_config(
            requests_per_core=scale.requests_per_core,
            defense_epoch_ns=DEFENSE_EPOCH_NS,
        )

    @staticmethod
    def _mixes(scale: ExperimentScale, config: SystemConfig) -> List[WorkloadMix]:
        # Called from both build_tasks and reduce; mix generation must
        # stay a pure function of (scale, config) so the two sides
        # agree on task keys.
        return generate_mixes(
            scale.n_mixes, cores=config.cores, seed=scale.seed
        )

    # ------------------------------------------------------------------

    def build_tasks(self, scale, orch):
        # One mix's tasks run together, baseline first, so a serial run
        # records each mix once (see defended_run); tasks sharing a
        # Svärd setup key run back to back.
        config = self._config(scale)
        tasks = []
        for mix in self._mixes(scale, config):
            tasks.append(make_task(
                ("fig12", "baseline", mix.name),
                mix_baseline_task,
                (mix, config),
                base_seed=scale.seed,
            ))
            tasks += [
                make_task(
                    ("fig12", "sim", defense_name, configuration, hc, mix.name),
                    _simulation_task,
                    (mix, defense_name, configuration, hc, scale, config),
                    base_seed=scale.seed,
                    setup=(
                        _provider_setup if configuration != NO_SVARD else None
                    ),
                    setup_key=(
                        (configuration, hc, scale)
                        if configuration != NO_SVARD else None
                    ),
                )
                for configuration in svard_configurations(scale)
                for hc in scale.hc_first_values
                for defense_name in self._defense_names()
            ]
        return [TaskGroup(tasks=tuple(tasks), fingerprint=("fig12", scale, config))]

    def reduce(self, scale, outputs):
        config = self._config(scale)
        mixes = self._mixes(scale, config)
        configurations = svard_configurations(scale)

        # Per-mix baselines: alone times (no defense) and shared baseline.
        alone_times: Dict[str, List[float]] = {}
        baseline: Dict[str, MultiProgramMetrics] = {}
        for mix in mixes:
            times = outputs[("fig12", "baseline", mix.name)]
            alone_times[mix.name] = times["alone"]
            baseline[mix.name] = compute_metrics(times["alone"], times["shared"])

        results: Dict[Tuple[str, str, int], MultiProgramMetrics] = {}
        for defense_name in self._defense_names():
            for configuration in configurations:
                for hc in scale.hc_first_values:
                    per_mix = [
                        compute_metrics(
                            alone_times[mix.name],
                            outputs[
                                ("fig12", "sim", defense_name, configuration,
                                 hc, mix.name)
                            ],
                        ).normalized_to(baseline[mix.name])
                        for mix in mixes
                    ]
                    results[(defense_name, configuration, hc)] = _mean_metrics(
                        per_mix
                    )
        return Fig12Result(
            metrics=results,
            configurations=configurations,
            hc_values=tuple(scale.hc_first_values),
            n_mixes=len(mixes),
        )

    def result_set(self, result):
        return result_set(result)


def run(
    scale: ExperimentScale = ExperimentScale(),
    *,
    defenses: Optional[Sequence[str]] = None,
    system_config: Optional[SystemConfig] = None,
    orchestration: Optional[OrchestrationContext] = None,
) -> Fig12Result:
    return Fig12Experiment(
        defenses=defenses, system_config=system_config
    ).run(scale, orchestration)
