"""Aging study (Section 5.5): re-characterize after prolonged stress.

Characterizes a module, applies the :class:`repro.faults.AgingModel`
drift (68 days of double-sided hammering at 80 C by default), then
re-characterizes and reports the before/after HC_first transitions of
Fig 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.characterization.runner import (
    CharacterizationConfig,
    CharacterizationRunner,
)
from repro.faults.aging import AgingModel
from repro.faults.modules import ModuleSpec


@dataclass
class AgingStudyResult:
    """Before/after measured HC_first values and their transitions."""

    module_label: str
    days: float
    before: np.ndarray
    after: np.ndarray

    def transitions(self) -> Dict[Tuple[int, int], float]:
        """Fig 10's marker data: fraction of rows per (before, after).

        Fractions are normalized within each before-aging value, so
        they sum to 1.0 per x-tick, as in the figure.
        """
        result: Dict[Tuple[int, int], float] = {}
        for b in np.unique(self.before):
            mask = self.before == b
            total = int(mask.sum())
            for a in np.unique(self.after[mask]):
                count = int((self.after[mask] == a).sum())
                result[(int(b), int(a))] = count / total
        return result

    def weakened_fraction(self) -> float:
        """Overall fraction of rows whose HC_first dropped."""
        return float(np.mean(self.after < self.before))

    def worst_case_changed(self) -> bool:
        """Did aging lower the module's worst-case HC_first (Obsv 13)?"""
        return int(self.after.min()) < int(self.before.min())


@dataclass
class AgingStudy:
    """Runs the before/after characterization pair on one bank."""

    spec: ModuleSpec
    config: CharacterizationConfig
    days: float = 68.0
    temperature_c: float = 80.0

    def run(self, bank: int = 1) -> AgingStudyResult:
        runner = CharacterizationRunner(self.spec, self.config)
        before_profile = runner.characterize_bank(bank)

        aging = AgingModel(
            days=self.days,
            temperature_c=self.temperature_c,
            seed=self.config.seed,
        )
        # Apply the drift to the model's ground truth in place: rows
        # that weakened get new, lower true thresholds.
        state = runner.model.bank_state(bank)
        state.field_ = aging.age_field(state.field_)

        after_profile = runner.characterize_bank(bank)
        return AgingStudyResult(
            module_label=self.spec.label,
            days=self.days,
            before=before_profile.measured_hc_first,
            after=after_profile.measured_hc_first,
        )
