"""Adversarial access patterns (Fig 13 and the attack experiments).

* Against Hydra: cycle through more escalated rows than the row-count
  cache holds, so every activation misses the cache and triggers an
  extra DRAM counter access in steady state.
* Against RRS: hammer a single row as fast as possible, maximizing the
  number of row-swap operations.
* Many-sided hammering: round-robin over N aggressor rows in one bank,
  the classic N-sided RowHammer shape (TRRespass-style), stressing
  probabilistic defenses whose per-activation mitigation chance decays
  as the attacker spreads activations over more aggressors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import TraceStep


@dataclass
class HydraAdversarialTrace:
    """Counter-cache thrashing: cycle over more rows than the RCC holds.

    Rows sit one tracking group apart (``row_stride`` = Hydra's group
    size), so each quickly escalates to exact per-row counting; cycling
    over more rows than the row-count cache holds then makes every
    activation miss the cache and drag a counter across the DRAM
    interface.  ``start_offset`` phases multiple attacking cores so
    their activations do not coalesce in the row buffer.
    """

    n_rows: int = 1024
    row_stride: int = 128
    bank_stride: int = 16
    rows_per_bank: int = 128 * 1024
    gap_ns: float = 5.0
    start_offset: int = 0
    _position: int = 0

    def __post_init__(self) -> None:
        self._position = self.start_offset

    def next_step(self, chain: int) -> TraceStep:
        index = self._position
        self._position += 1
        row = ((index % self.n_rows) * self.row_stride) % self.rows_per_bank
        # A row always lives in the same bank (page placement).
        bank = (row // self.row_stride) % self.bank_stride
        return TraceStep(bank=bank, row=row, column=0, gap_ns=self.gap_ns)


@dataclass
class RrsAdversarialTrace:
    """Single-row hammering: maximizes RRS swap operations.

    Alternates between the target row and a scratch row.  The toggle
    belongs to the trace, so a core's request chains
    (``SystemConfig.mlp_per_core``) share it: requests to both rows
    are outstanding at once, and FR-FCFS serves those to the open row
    first.  Many accesses therefore hit the row buffer instead of
    re-activating the target -- 66.4% at Fig 13's configuration
    (8 cores x 12,000 requests, four chains each, seed 0, no defense).
    """

    target_row: int = 1000
    scratch_row: int = 5000
    bank: int = 0
    gap_ns: float = 5.0
    _toggle: bool = False

    def next_step(self, chain: int) -> TraceStep:
        self._toggle = not self._toggle
        row = self.target_row if self._toggle else self.scratch_row
        return TraceStep(bank=self.bank, row=row, column=0, gap_ns=self.gap_ns)


@dataclass
class ManySidedHammerTrace:
    """N-sided hammering: round-robin over N aggressor rows in a bank.

    Aggressors sit ``row_stride`` apart (stride 2 is the classic
    double-sided sandwich generalized to N victims); visiting them in
    strict rotation spreads the activation count evenly, which is what
    defeats sampling defenses tuned for one or two hot rows.
    ``start_offset`` phases multiple attacking cores within the
    rotation.

    The rotation belongs to the trace, so a core's request chains
    (``SystemConfig.mlp_per_core``) share it.  At N=8 and N=32 the
    outstanding requests target distinct rows and no access hits the
    row buffer.  At N=2 requests to both rows are outstanding at once
    and FR-FCFS serves those to the open row first, so 66.4% of
    accesses hit (``attack-manysided``'s configuration: 8 cores x
    6,000 requests, four chains each, no defense).
    """

    n_sides: int = 8
    base_row: int = 1000
    row_stride: int = 2
    bank: int = 0
    rows_per_bank: int = 128 * 1024
    gap_ns: float = 5.0
    start_offset: int = 0
    _position: int = 0

    def __post_init__(self) -> None:
        if self.n_sides < 2:
            raise ValueError("many-sided hammering needs at least 2 sides")
        self._position = self.start_offset

    def next_step(self, chain: int) -> TraceStep:
        index = self._position
        self._position += 1
        row = (
            self.base_row + (index % self.n_sides) * self.row_stride
        ) % self.rows_per_bank
        return TraceStep(bank=self.bank, row=row, column=0, gap_ns=self.gap_ns)
