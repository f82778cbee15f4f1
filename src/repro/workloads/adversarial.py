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

Each trace hands out precomputed :class:`TraceStep` tuples, built once
from its parameters at construction: steps are immutable, so sharing
them is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Tuple

from repro.sim.engine import TraceStep


@lru_cache(maxsize=8, typed=True)
def _hydra_cycle(
    n_rows: int, row_stride: int, bank_stride: int, rows_per_bank: int,
    gap_ns: float,
) -> Tuple[TraceStep, ...]:
    """One thrashing cycle, shared by every trace of the same geometry
    (a Fig 13 cell's cores differ only in their phase)."""
    steps = []
    for index in range(n_rows):
        row = (index * row_stride) % rows_per_bank
        # A row always lives in the same bank (page placement).
        bank = (row // row_stride) % bank_stride
        steps.append(TraceStep(bank=bank, row=row, column=0, gap_ns=gap_ns))
    return tuple(steps)


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
    _cycle: Tuple[TraceStep, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._position = self.start_offset
        self._cycle = _hydra_cycle(
            self.n_rows, self.row_stride, self.bank_stride,
            self.rows_per_bank, self.gap_ns,
        )

    def next_step(self, chain: int) -> TraceStep:
        index = self._position
        self._position = index + 1
        return self._cycle[index % self.n_rows]


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
    #: ``(scratch step, target step)``, indexed by the toggle.
    _steps: Tuple[TraceStep, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._steps = tuple(
            TraceStep(bank=self.bank, row=row, column=0, gap_ns=self.gap_ns)
            for row in (self.scratch_row, self.target_row)
        )

    def next_step(self, chain: int) -> TraceStep:
        toggle = self._toggle = not self._toggle
        return self._steps[toggle]


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
    _steps: Tuple[TraceStep, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_sides < 2:
            raise ValueError("many-sided hammering needs at least 2 sides")
        self._position = self.start_offset
        self._steps = tuple(
            TraceStep(
                bank=self.bank,
                row=(self.base_row + side * self.row_stride) % self.rows_per_bank,
                column=0,
                gap_ns=self.gap_ns,
            )
            for side in range(self.n_sides)
        )

    def next_step(self, chain: int) -> TraceStep:
        index = self._position
        self._position = index + 1
        return self._steps[index % self.n_sides]
