"""Ablation: how many vulnerability bins does Svärd need?

Section 6.4 fixes the metadata at 4 bits (16 bins) per row because
"the number of bins in each distribution is smaller than 16".  This
ablation sweeps the bin count from 1 (equivalent to No Svärd: every
row gets the worst-case threshold) to 16 and measures the weighted
speedup recovered per bin, justifying the 4-bit choice: the benefit
saturates well before 16 bins because thresholds are geometric and
defense overheads scale with 1/threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.svard import Svard
from repro.defenses import DEFENSE_CLASSES
from repro.defenses.base import SvardThresholds
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
    ExperimentScale,
    defended_run,
    mix_baseline_task,
    scaled_profile,
)
from repro.orchestration import (
    OrchestrationContext,
    Task,
    TaskGroup,
    make_task,
)
from repro.sim.config import SystemConfig
from repro.sim.metrics import compute_metrics
from repro.workloads.mixes import generate_mixes

BIN_SWEEP: Tuple[int, ...] = (1, 2, 4, 8, 16)


@dataclass
class AblationBinsResult:
    #: n_bins -> weighted speedup normalized to the no-defense baseline.
    speedup_by_bins: Dict[int, float]
    defense: str
    hc_first: int
    profile: str

    def render(self) -> str:
        return result_set(self).render_text()

    def saturation_bins(self, tolerance: float = 0.02) -> int:
        """Smallest bin count within ``tolerance`` of the 16-bin result."""
        best = self.speedup_by_bins[max(self.speedup_by_bins)]
        for bins in sorted(self.speedup_by_bins):
            if self.speedup_by_bins[bins] >= best - tolerance:
                return bins
        return max(self.speedup_by_bins)


def result_set(result: AblationBinsResult) -> ResultSet:
    title = (
        f"Ablation: Svärd bin count ({result.defense}, "
        f"HC_first={result.hc_first}, profile {result.profile})"
    )
    data_rows = [
        (int(bins), result.speedup_by_bins[bins])
        for bins in sorted(result.speedup_by_bins)
    ]
    return ResultSet(
        experiment="ablation-bins",
        title=title,
        scalars={
            "defense": result.defense,
            "hc_first": result.hc_first,
            "profile": result.profile,
        },
        tables=(
            ResultTable(
                name="speedup_by_bins",
                headers=("bins", "weighted_speedup"),
                rows=data_rows,
            ),
        ),
        layout=(
            TextBlock(title + "\n\n"),
            TableBlock(
                headers=("bins", "weighted speedup (norm.)"),
                rows=[
                    (str(bins), f"{speedup:.3f}")
                    for bins, speedup in data_rows
                ],
            ),
        ),
        plots=(
            PlotSpec(
                name="speedup",
                kind="line",
                table="speedup_by_bins",
                x="bins",
                y=("weighted_speedup",),
                title=title,
                xlabel="Svärd bins",
                ylabel="weighted speedup (norm.)",
                logx=True,
            ),
        ),
    )


def _bins_task(task: Task) -> list:
    """One defended simulation at a given Svärd bin count."""
    mix, n_bins, defense, hc_first, profile_label, scale, config = task.params
    profile = scaled_profile(profile_label, hc_first, scale)
    svard = Svard.build(profile, n_bins=n_bins)
    assert svard.verify_security_invariant()
    defense_obj = DEFENSE_CLASSES[defense](
        hc_first,
        thresholds=SvardThresholds(svard),
        rows_per_bank=config.rows_per_bank,
        seed=scale.seed,
    )
    return defended_run(mix, config, defense_obj).finish_times()


@register
class AblationBinsExperiment(Experiment):
    name = "ablation-bins"
    description = "Svärd bin-count ablation (weighted speedup per bin)"
    paper_ref = "Section 6.4"
    quick_overrides = {"requests_per_core": 2500}

    def __init__(
        self,
        defense: str = "PARA",
        hc_first: int = 64,
        profile_label: str = "S0",
        bin_sweep: Sequence[int] = BIN_SWEEP,
        system_config: Optional[SystemConfig] = None,
    ) -> None:
        self.defense = defense
        self.hc_first = hc_first
        self.profile_label = profile_label
        self.bin_sweep = tuple(bin_sweep)
        self.system_config = system_config

    def _config(self, scale: ExperimentScale) -> SystemConfig:
        return self.system_config or scale.system_config(
            requests_per_core=scale.requests_per_core,
            defense_epoch_ns=DEFENSE_EPOCH_NS,
        )

    @staticmethod
    def _mix(scale: ExperimentScale, config: SystemConfig):
        return generate_mixes(1, cores=config.cores, seed=scale.seed)[0]

    def build_tasks(self, scale, orch):
        config = self._config(scale)
        mix = self._mix(scale, config)
        tasks = [
            make_task(
                ("ablation-bins", "baseline", mix.name),
                mix_baseline_task,
                (mix, config),
                base_seed=scale.seed,
            )
        ]
        tasks += [
            make_task(
                (
                    "ablation-bins", "bins", self.defense, self.hc_first,
                    self.profile_label, n_bins,
                ),
                _bins_task,
                (
                    mix, n_bins, self.defense, self.hc_first,
                    self.profile_label, scale, config,
                ),
                base_seed=scale.seed,
            )
            for n_bins in self.bin_sweep
        ]
        return [
            TaskGroup(
                tasks=tuple(tasks),
                fingerprint=("ablation-bins", scale, config),
            )
        ]

    def reduce(self, scale, outputs):
        config = self._config(scale)
        mix = self._mix(scale, config)
        times = outputs[("ablation-bins", "baseline", mix.name)]
        alone = times["alone"]
        baseline = compute_metrics(alone, times["shared"])
        speedups: Dict[int, float] = {}
        for n_bins in self.bin_sweep:
            finish = outputs[
                (
                    "ablation-bins", "bins", self.defense, self.hc_first,
                    self.profile_label, n_bins,
                )
            ]
            metrics = compute_metrics(alone, finish).normalized_to(baseline)
            speedups[n_bins] = metrics.weighted_speedup
        return AblationBinsResult(
            speedup_by_bins=speedups,
            defense=self.defense,
            hc_first=self.hc_first,
            profile=self.profile_label,
        )

    def result_set(self, result):
        return result_set(result)


def run(
    scale: ExperimentScale = ExperimentScale(),
    *,
    defense: str = "PARA",
    hc_first: int = 64,
    profile_label: str = "S0",
    bin_sweep: Sequence[int] = BIN_SWEEP,
    system_config: Optional[SystemConfig] = None,
    orchestration: Optional[OrchestrationContext] = None,
) -> AblationBinsResult:
    return AblationBinsExperiment(
        defense=defense,
        hc_first=hc_first,
        profile_label=profile_label,
        bin_sweep=bin_sweep,
        system_config=system_config,
    ).run(scale, orchestration)
