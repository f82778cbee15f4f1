"""Fig 9: fraction of spatial features vs F1-score threshold.

For every module, every address-bit feature predicts the binarized
HC_first class; the figure plots, per module, the fraction of
features whose F1 exceeds a sweep of thresholds.  The paper's
observations: the fraction drops drastically between 0.6 and 0.7, no
feature exceeds 0.8, and only S0/S1/S3/S4 keep features above 0.7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.correlation import FeatureCorrelation, correlate_features
from repro.analysis.features import extract_features
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
    ExperimentScale,
    _memo_key,
    absorb_characterizations,
    characterization_groups,
    characterize,
)
from repro.faults.modules import module_by_label

#: The figure sweeps thresholds 0.0 .. 1.0 in steps of 0.1.
F1_THRESHOLDS: Tuple[float, ...] = tuple(round(t / 10, 1) for t in range(11))

#: Per-process memo of each module's feature correlations, keyed like
#: the characterization they score, so Table 3 reuses Fig 9's scoring.
#: The correlations are a pure function of that characterization and
#: the module's geometry, which its label and row count fix.
_CORRELATIONS: Dict[tuple, Tuple[FeatureCorrelation, ...]] = {}

TITLE = "Fig 9: fraction of spatial features above F1 threshold"


@dataclass
class Fig9Result:
    #: module -> threshold -> fraction of features above it.
    fractions: Dict[str, Dict[float, float]]
    correlations: Dict[str, List[FeatureCorrelation]]

    def modules_with_strong_features(self, threshold: float = 0.7) -> List[str]:
        return sorted(
            label
            for label, curve in self.fractions.items()
            if curve[threshold] > 0
        )

    def max_f1(self) -> float:
        return max(
            c.f1 for cs in self.correlations.values() for c in cs
        )

    def render(self) -> str:
        return result_set(self).render_text()


def result_set(result: Fig9Result) -> ResultSet:
    strong = ", ".join(result.modules_with_strong_features()) or "none"
    fraction_rows = [
        (label, float(threshold), float(result.fractions[label][threshold]))
        for label in sorted(result.fractions)
        for threshold in F1_THRESHOLDS
    ]
    correlation_rows = [
        (label, c.feature.short_name, float(c.f1))
        for label in sorted(result.correlations)
        for c in result.correlations[label]
    ]
    return ResultSet(
        experiment="fig9",
        title=TITLE,
        scalars={
            "max_f1": result.max_f1(),
            "strong_modules": strong,
        },
        tables=(
            ResultTable(
                name="fractions",
                headers=("module", "threshold", "fraction"),
                rows=fraction_rows,
            ),
            ResultTable(
                name="correlations",
                headers=("module", "feature", "f1"),
                rows=correlation_rows,
            ),
        ),
        layout=(
            TextBlock(TITLE + "\n\n"),
            TableBlock(
                headers=("module",)
                + tuple(f"{t:.1f}" for t in F1_THRESHOLDS),
                rows=[
                    (label,)
                    + tuple(
                        f"{result.fractions[label][t]:.2f}"
                        for t in F1_THRESHOLDS
                    )
                    for label in sorted(result.fractions)
                ],
            ),
            TextBlock(
                f"\n\nmodules with F1 > 0.7 features: {strong}"
                f"\nmaximum F1 observed: {result.max_f1():.3f}"
            ),
        ),
        plots=(
            PlotSpec(
                name="fractions",
                kind="line",
                table="fractions",
                x="threshold",
                y=("fraction",),
                series="module",
                title=TITLE,
                xlabel="F1 threshold",
                ylabel="fraction of features",
            ),
        ),
    )


def module_correlations(
    label: str, scale: ExperimentScale
) -> List[FeatureCorrelation]:
    """Every feature's F1 against one module's measured HC_first."""
    key = _memo_key(label, scale, 36.0)
    if key not in _CORRELATIONS:
        chars = characterize(label, scale)
        measured = np.concatenate(
            [chars.banks[bank].measured_hc_first for bank in sorted(chars.banks)]
        )
        params = module_by_label(label).variation_params(scale.rows_for(label))
        features, matrix, _ = extract_features(
            scale.rows_for(label), params.subarray_rows, tuple(sorted(chars.banks))
        )
        _CORRELATIONS[key] = tuple(correlate_features(features, matrix, measured))
    return list(_CORRELATIONS[key])


def run(scale: ExperimentScale = ExperimentScale()) -> Fig9Result:
    fractions: Dict[str, Dict[float, float]] = {}
    correlations: Dict[str, List[FeatureCorrelation]] = {}
    for label in scale.modules:
        result = module_correlations(label, scale)
        correlations[label] = result
        f1s = np.array([c.f1 for c in result])
        fractions[label] = {
            t: float(np.mean(f1s > t)) for t in F1_THRESHOLDS
        }
    return Fig9Result(fractions=fractions, correlations=correlations)


@register
class Fig9Experiment(Experiment):
    name = "fig9"
    description = "fraction of spatial features above F1 threshold"
    paper_ref = "Fig. 9"

    def build_tasks(self, scale, orch):
        return characterization_groups(scale.modules, scale)

    def reduce(self, scale, outputs):
        absorb_characterizations(scale.modules, scale, outputs)
        return run(scale)

    def result_set(self, result):
        return result_set(result)
