"""RowPress study: the effect of tAggOn on HC_first (Section 5.3).

Repeats the characterization at the three aggressor-on times the paper
tests -- 36 ns (minimum tRAS), 0.5 us (realistic row-buffer-hit
window), and 2 us (streaming the whole row) -- and summarizes the
HC_first distributions (Fig 7).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.characterization.metrics import BoxStats, box_stats, coefficient_of_variation_pct
from repro.characterization.runner import (
    CharacterizationConfig,
    CharacterizationRunner,
    ModuleCharacterization,
)
from repro.faults.modules import ModuleSpec

#: The paper's tAggOn sweep: 36 ns, 0.5 us, 2 us.
T_AGG_ON_SWEEP_NS: Tuple[float, ...] = (36.0, 500.0, 2000.0)


@dataclass
class RowPressStudy:
    """Characterize one module at several aggressor-on times."""

    spec: ModuleSpec
    config: CharacterizationConfig

    def run(self) -> Dict[float, ModuleCharacterization]:
        """One characterization per tAggOn value."""
        results: Dict[float, ModuleCharacterization] = {}
        for t_on in T_AGG_ON_SWEEP_NS:
            config = replace(self.config, t_agg_on_ns=t_on)
            runner = CharacterizationRunner(self.spec, config)
            results[t_on] = runner.run()
        return results

    @staticmethod
    def hc_first_boxes(
        results: Dict[float, ModuleCharacterization]
    ) -> Dict[float, BoxStats]:
        """Fig 7's box stats: HC_first distribution per tAggOn."""
        return {
            t_on: box_stats(chars.all_hc_first())
            for t_on, chars in results.items()
        }

    @staticmethod
    def hc_first_cv_pct(
        results: Dict[float, ModuleCharacterization]
    ) -> Dict[float, float]:
        """Obsv 11's CV values per tAggOn."""
        return {
            t_on: coefficient_of_variation_pct(chars.all_hc_first())
            for t_on, chars in results.items()
        }
