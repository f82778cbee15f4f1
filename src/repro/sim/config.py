"""Simulated system configuration (Table 4) and mitigation costs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.geometry import DramGeometry
from repro.dram.timing import DDR4_3200, TimingParameters


@dataclass(frozen=True)
class SystemConfig:
    """The paper's simulated system (Table 4), with scale knobs.

    The paper simulates 8 cores at 3.2 GHz over one DDR4 channel with
    2 ranks x 4 bank groups x 4 banks and 128K rows per bank, FR-FCFS
    with a column cap of 16, MOP address mapping, and a 2 MiB/core
    last-level cache.  ``requests_per_core`` replaces the paper's
    200M-instruction budget as the unit of work.
    """

    cores: int = 8
    ranks: int = 2
    bank_groups: int = 4
    banks_per_group: int = 4
    rows_per_bank: int = 128 * 1024
    columns_per_row: int = 128
    timing: TimingParameters = field(default_factory=lambda: DDR4_3200)
    column_cap: int = 16
    read_queue_entries: int = 64
    write_queue_entries: int = 64
    mlp_per_core: int = 4
    llc_bytes_per_core: int = 2 * 1024 * 1024
    requests_per_core: int = 2000
    #: Period of the defenses' epoch resets (None = the full tREFW).
    #: The engine hands it to the defense, which also paces on it.
    #: Experiments simulate a slice of a refresh window, so they
    #: compress the epoch to keep quota-per-window semantics
    #: representative (see EXPERIMENTS.md).
    defense_epoch_ns: float | None = None

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be positive")
        # The channel's organization follows DramGeometry's rules.
        DramGeometry(
            ranks=self.ranks,
            bank_groups=self.bank_groups,
            banks_per_group=self.banks_per_group,
            rows_per_bank=self.rows_per_bank,
            columns_per_row=self.columns_per_row,
        )
        if self.column_cap < 1:
            raise ValueError("column cap must be positive")
        if self.mlp_per_core < 1:
            raise ValueError("MLP must be positive")
        if self.requests_per_core < 1:
            raise ValueError("requests_per_core must be positive")
        # A negative epoch re-arms the engine's epoch event in its own
        # past, so the run never ends; `not >` also rejects NaN.
        if self.defense_epoch_ns is not None and not self.defense_epoch_ns > 0:
            raise ValueError("defense_epoch_ns must be positive")

    @property
    def banks_per_rank(self) -> int:
        return self.bank_groups * self.banks_per_group

    @property
    def total_banks(self) -> int:
        return self.ranks * self.banks_per_rank


@dataclass(frozen=True)
class MitigationCosts:
    """DRAM-time cost of each preventive action, derived from timing.

    * A victim refresh is one row cycle (ACT + restore + PRE).
    * A counter read/write (Hydra) is a row cycle plus a column burst.
    * A row copy is charged in halves, each a row cycle plus the row's
      column burst: a migration (AQUA) streams the row out and back
      (two halves), a swap (RRS) is two migrations (four halves; see
      :data:`repro.defenses.base.MITIGATION_ACCOUNTING`).
    """

    timing: TimingParameters = field(default_factory=lambda: DDR4_3200)
    columns_per_row: int = 128

    @property
    def victim_refresh_ns(self) -> float:
        return self.timing.tRC

    @property
    def counter_access_ns(self) -> float:
        return self.timing.tRC + self.timing.tCL + self.timing.tBL

    @property
    def row_copy_half_ns(self) -> float:
        """One half of a row copy: a row cycle plus the row's column burst."""
        return self.timing.tRC + self.columns_per_row * self.timing.column_to_column_ns
