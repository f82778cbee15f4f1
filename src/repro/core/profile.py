"""Read-disturbance vulnerability profiles.

A :class:`VulnerabilityProfile` holds the measured ``HC_first`` of
every row of every profiled bank -- the artifact the characterization
pipeline produces and Svärd consumes.

Two operations mirror the paper's evaluation methodology (Section 7.1):

* ``scaled_to_worst_case(target)`` scales every value so the profile's
  minimum equals a chosen worst-case ``HC_first`` (4K down to 64),
  modelling future, more vulnerable chips with the same *shape* of
  spatial variation.
* ``tiled_to(rows, banks)`` extends a scaled-down characterization to
  a full-size simulated DRAM configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.characterization.runner import ModuleCharacterization
from repro.faults.modules import ModuleSpec


@dataclass(frozen=True)
class VulnerabilityProfile:
    """Per-row HC_first values for one module, keyed by bank."""

    module_label: str
    per_bank: Mapping[int, np.ndarray]

    def __post_init__(self) -> None:
        if not self.per_bank:
            raise ValueError("profile needs at least one bank")
        for bank, values in self.per_bank.items():
            arr = np.asarray(values)
            if arr.size == 0:
                raise ValueError(f"bank {bank} has no rows")
            if np.any(arr <= 0):
                raise ValueError(f"bank {bank} has non-positive HC_first")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_characterization(
        cls, characterization: ModuleCharacterization
    ) -> "VulnerabilityProfile":
        """Profile from measured (grid-snapped) characterization data."""
        return cls(
            module_label=characterization.module_label,
            per_bank={
                bank: profile.measured_hc_first.astype(np.float64)
                for bank, profile in characterization.banks.items()
            },
        )

    @classmethod
    def from_ground_truth(
        cls,
        spec: ModuleSpec,
        *,
        banks: Sequence[int] = (0,),
        rows_per_bank: Optional[int] = None,
        seed: int = 0,
    ) -> "VulnerabilityProfile":
        """Profile straight from the fault model's true per-row values."""
        per_bank = {}
        for bank in banks:
            field_ = spec.generate_field(
                bank=bank, rows_per_bank=rows_per_bank, seed=seed
            )
            per_bank[bank] = field_.hc_first.copy()
        return cls(module_label=spec.label, per_bank=per_bank)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def banks(self) -> Sequence[int]:
        return sorted(self.per_bank)

    @property
    def worst_case(self) -> float:
        """The module's minimum HC_first across all profiled rows."""
        return float(min(np.min(v) for v in self.per_bank.values()))

    @property
    def rows_per_bank(self) -> int:
        return len(next(iter(self.per_bank.values())))

    def values(self, bank: int) -> np.ndarray:
        key = bank if bank in self.per_bank else self.banks[bank % len(self.banks)]
        return np.asarray(self.per_bank[key])

    def hc_first(self, bank: int, row: int) -> float:
        """HC_first of one row; banks/rows beyond the profile wrap.

        Wrapping lets a profile characterized on a few banks and a
        scaled-down row count serve a full-size simulated system, the
        same way the paper applies one module's profile to all banks.
        """
        values = self.values(bank)
        return float(values[row % len(values)])

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def scaled_to_worst_case(self, target_worst_case: float) -> "VulnerabilityProfile":
        """Scale all values so the minimum equals ``target_worst_case``.

        This is how the paper evaluates future chips: the spatial
        *shape* of the profile is preserved while its floor is moved to
        the HC_first under evaluation (4K ... 64).
        """
        if target_worst_case <= 0:
            raise ValueError("target worst case must be positive")
        factor = target_worst_case / self.worst_case
        return VulnerabilityProfile(
            module_label=self.module_label,
            per_bank={
                bank: np.asarray(values) * factor
                for bank, values in self.per_bank.items()
            },
        )

    def tiled_to(self, rows_per_bank: int, banks: Iterable[int]) -> "VulnerabilityProfile":
        """Materialize a profile for a larger geometry by tiling."""
        if rows_per_bank < 1:
            raise ValueError("rows_per_bank must be positive")
        bank_list = list(banks)
        if not bank_list:
            raise ValueError("need at least one bank")
        source_banks = self.banks
        per_bank = {}
        for i, bank in enumerate(bank_list):
            source = np.asarray(self.per_bank[source_banks[i % len(source_banks)]])
            repeats = -(-rows_per_bank // len(source))
            per_bank[bank] = np.tile(source, repeats)[:rows_per_bank]
        return VulnerabilityProfile(module_label=self.module_label, per_bank=per_bank)

    def normalized(self) -> Dict[int, np.ndarray]:
        """Per-bank values normalized to the global worst case."""
        worst = self.worst_case
        return {
            bank: np.asarray(values) / worst
            for bank, values in self.per_bank.items()
        }
