"""Table 3: spatial features with F1 > 0.7.

Only four modules (S0, S1, S3, S4) expose features whose F1 exceeds
0.7; the features come from row/subarray address bits (and one
distance bit), never from bank bits, and no module's average strong-
feature F1 exceeds 0.77.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.analysis.correlation import FeatureCorrelation, strong_features
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
    absorb_characterizations,
    characterization_groups,
)
from repro.experiments.fig9_spatial_features import module_correlations

#: Paper's Table 3: per-module average F1 of strong features.
PAPER_TABLE3_F1 = {"S0": 0.77, "S1": 0.71, "S3": 0.75, "S4": 0.76}

TITLE = "Table 3: spatial features with F1 > 0.7"


@dataclass
class Table3Result:
    strong: Dict[str, List[FeatureCorrelation]]

    def average_f1(self, label: str) -> float:
        features = self.strong.get(label, [])
        if not features:
            raise KeyError(f"{label} has no strong features")
        return float(np.mean([c.f1 for c in features]))

    def render(self) -> str:
        return result_set(self).render_text()


def result_set(result: Table3Result) -> ResultSet:
    display_rows = []
    summary_rows = []
    feature_rows = []
    for label in sorted(result.strong):
        features = result.strong[label]
        if not features:
            continue
        names = ", ".join(c.feature.short_name for c in features)
        expected = PAPER_TABLE3_F1.get(label)
        average = result.average_f1(label)
        display_rows.append(
            (
                label,
                names,
                f"{average:.2f}",
                f"{expected:.2f}" if expected is not None else "-",
            )
        )
        summary_rows.append((label, average, expected))
        feature_rows.extend(
            (label, c.feature.short_name, float(c.f1)) for c in features
        )
    return ResultSet(
        experiment="table3",
        title=TITLE,
        tables=(
            ResultTable(
                name="strong_features",
                headers=("module", "feature", "f1"),
                rows=feature_rows,
            ),
            ResultTable(
                name="average_f1",
                headers=("module", "average_f1", "paper_average_f1"),
                rows=summary_rows,
            ),
        ),
        layout=(
            TextBlock(TITLE + "\n\n"),
            TableBlock(
                headers=("module", "features", "avg F1", "paper avg F1"),
                rows=display_rows,
            ),
        ),
        plots=(
            PlotSpec(
                name="average_f1",
                kind="bar",
                table="average_f1",
                x="module",
                y=("average_f1", "paper_average_f1"),
                title=TITLE,
                ylabel="average F1 of strong features",
            ),
        ),
    )


def run(scale: ExperimentScale = ExperimentScale()) -> Table3Result:
    strong = {
        label: strong_features(module_correlations(label, scale))
        for label in scale.modules
    }
    return Table3Result(strong=strong)


@register
class Table3Experiment(Experiment):
    name = "table3"
    description = "spatial features with F1 > 0.7"
    paper_ref = "Table 3"

    def build_tasks(self, scale, orch):
        return characterization_groups(scale.modules, scale)

    def reduce(self, scale, outputs):
        absorb_characterizations(scale.modules, scale, outputs)
        return run(scale)

    def result_set(self, result):
        return result_set(result)
