"""The Svärd mechanism (Section 6).

On every row activation the memory controller (or the DRAM chip)
queries Svärd with the activated row address; Svärd returns the
``HC_first`` threshold of the *potential victim rows* -- conservative
for weak rows, relaxed for strong ones.  The deployed read-disturbance
defense uses that threshold instead of the module-wide worst case.

Two metadata storage options from Section 6.2 are modelled:

* :class:`McTableStore` -- an SRAM table in the memory controller with
  one 4-bit entry per DRAM row.
* :class:`InDramStore` -- four extra bits per DRAM row stored with the
  data-integrity metadata, fetched in parallel with the activation
  (zero added latency) and co-refreshed by the defense's preventive
  actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Protocol

import numpy as np

from repro.core.binning import VulnerabilityBins
from repro.core.profile import VulnerabilityProfile


class MetadataStore(Protocol):
    """Where the per-row bin ids live."""

    #: The stored bin-id table: one array of 4-bit ids per bank.
    bins_per_bank: Dict[int, np.ndarray]

    def bin_id(self, bank: int, row: int) -> int:
        """The stored 4-bit bin id of one row."""

    def storage_bits(self) -> int:
        """Total metadata bits held by this store."""


@dataclass
class _BinIdTable:
    """The per-row bin-id table both storage options hold.

    A bank without a table of its own maps to the stored bank at its
    index (modulo the bank count) in ascending bank order; a row maps
    modulo the table length.
    """

    bins_per_bank: Dict[int, np.ndarray]

    def bin_id(self, bank: int, row: int) -> int:
        table = self.bins_per_bank.get(bank)
        if table is None:
            banks = sorted(self.bins_per_bank)
            table = self.bins_per_bank[banks[bank % len(banks)]]
        return int(table[row % len(table)])

    def storage_bits(self) -> int:
        return 4 * sum(len(t) for t in self.bins_per_bank.values())


@dataclass
class McTableStore(_BinIdTable):
    """Per-row bin-id table in the memory controller (option A).

    Lookup latency is hidden under the row activation (the Section 6.4
    CACTI estimate is 0.47 ns against a ~14 ns tRCD).
    """


@dataclass
class InDramStore(_BinIdTable):
    """Bin ids in the DRAM rows' integrity bits (option B).

    The id arrives with the first read of the activated row, so it
    adds no latency; the bits live in the disturbed row itself, so the
    defense's preventive refreshes must cover them -- modelled by the
    ``co_refreshed`` flag the defenses assert.
    """

    co_refreshed: bool = True


@dataclass
class Svard:
    """Svärd: per-row threshold provider for read-disturbance defenses."""

    profile: VulnerabilityProfile
    bins: VulnerabilityBins
    store: MetadataStore

    def __post_init__(self) -> None:
        # The store's bin ids resolved to thresholds once, as one list
        # of floats per bank: a defense looks a threshold up per victim
        # of every ACT.  Bin ids are range-checked here, once.
        edges = self.bins.edges.tolist()
        self._row_thresholds: Dict[int, List[float]] = {}
        for bank, ids in self.store.bins_per_bank.items():
            ids = np.asarray(ids).tolist()
            if ids and not 0 <= min(ids) <= max(ids) < len(edges):
                raise ValueError(f"bank {bank}: bin id out of range")
            self._row_thresholds[bank] = [edges[i] for i in ids]
        self._stored_banks = sorted(self._row_thresholds)

    @classmethod
    def build(
        cls,
        profile: VulnerabilityProfile,
        *,
        n_bins: int = 16,
        storage: str = "mc-table",
    ) -> "Svard":
        """Classify a profile into bins and populate a metadata store.

        ``storage`` selects Section 6.2's implementation option:
        ``"mc-table"`` or ``"in-dram"``.
        """
        all_values = np.concatenate(
            [profile.values(bank) for bank in profile.banks]
        )
        bins = VulnerabilityBins.from_values(all_values, n_bins)
        bins_per_bank = {
            bank: bins.bin_ids(profile.values(bank)) for bank in profile.banks
        }
        if storage == "mc-table":
            store: MetadataStore = McTableStore(bins_per_bank=bins_per_bank)
        elif storage == "in-dram":
            store = InDramStore(bins_per_bank=bins_per_bank)
        else:
            raise ValueError(f"unknown storage option {storage!r}")
        return cls(profile=profile, bins=bins, store=store)

    # ------------------------------------------------------------------

    def threshold_for(self, bank: int, row: int) -> float:
        """The HC_first threshold Svärd reports for one (victim) row.

        Resolves banks and rows as :meth:`MetadataStore.bin_id` does.
        """
        thresholds = self._row_thresholds.get(bank)
        if thresholds is None:
            stored = self._stored_banks[bank % len(self._stored_banks)]
            thresholds = self._row_thresholds[bank] = self._row_thresholds[stored]
        return thresholds[row % len(thresholds)]

    def aggressiveness_scale(self, bank: int, row: int) -> float:
        """How much less aggressive a defense can be for this row.

        1.0 for rows in the weakest bin; larger for stronger rows.
        """
        return self.threshold_for(bank, row) / self.profile.worst_case

    def worst_case_threshold(self) -> float:
        return float(self.bins.threshold_of(0))

    # ------------------------------------------------------------------
    # Security (Section 6.3)
    # ------------------------------------------------------------------

    def verify_security_invariant(self) -> bool:
        """No row's reported threshold exceeds its actual HC_first.

        This is the property that makes Svärd security-preserving: a
        defense configured with Svärd's threshold acts at least as
        early as the row's own vulnerability requires.
        """
        for bank in self.profile.banks:
            values = self.profile.values(bank)
            thresholds = self.bins.thresholds(values)
            if np.any(thresholds > values):
                return False
        return True

    def overprotection_factor(self) -> float:
        """Mean factor by which the no-Svärd configuration overprotects.

        Without Svärd every row is treated as the worst-case row;
        this reports ``mean(HC_first / worst_case)`` -- the headroom
        Svärd converts into fewer preventive actions.
        """
        total, count = 0.0, 0
        worst = self.profile.worst_case
        for bank in self.profile.banks:
            values = self.profile.values(bank)
            total += float(np.sum(values / worst))
            count += len(values)
        return total / count
