"""The assembled DRAM device model.

:class:`DramDevice` executes DDR4 command streams against per-bank
state machines and cell arrays, keeps a device clock, and forwards row
activation/closure events to an attached *disturbance observer* (the
read-disturbance fault model in :mod:`repro.faults`).  The observer
returns bit positions to corrupt, which the device applies to the cell
array -- bitflips therefore persist exactly like on a real chip: until
the row is rewritten.

The device also implements the two behaviours the paper's reverse
engineering relies on:

* rows only disturb physically adjacent rows *within their subarray*
  (sense-amplifier stripes isolate subarrays), and
* an ACT issued almost immediately after PRE performs an (unofficial)
  intra-subarray RowClone copy, as demonstrated by ComputeDRAM.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Protocol, Sequence

import numpy as np

from repro.dram.bank import Bank, BankState, TimingError
from repro.dram.cells import CellArray
from repro.dram.commands import Command, CommandKind
from repro.dram.geometry import DramGeometry
from repro.dram.mapping import RowScrambler, ScramblingScheme
from repro.dram.timing import TimingParameters, DDR4_3200


class TimingViolation(TimingError):
    """Raised when a strict-mode command violates JEDEC timing."""


class DisturbanceObserver(Protocol):
    """Interface the fault model implements to receive device events.

    All row indices passed through this interface are *physical*.
    """

    def on_activate(self, bank: int, physical_row: int) -> None:
        """A row was opened (this restores the row's own cells)."""

    def on_closure(
        self, bank: int, physical_row: int, on_time_ns: float
    ) -> Mapping[int, np.ndarray]:
        """A row was closed after ``on_time_ns``; returns new bitflips.

        The mapping is victim physical row -> bit indices to flip now.
        """

    def on_refresh(self, bank: int, first_row: int, n_rows: int) -> None:
        """``n_rows`` physical rows starting at ``first_row`` refreshed."""

    def on_write(self, bank: int, physical_row: int) -> None:
        """A row's content was rewritten (restores full charge)."""


class NullObserver:
    """Observer that ignores everything (a disturbance-free chip)."""

    def on_activate(self, bank: int, physical_row: int) -> None:
        pass

    def on_closure(
        self, bank: int, physical_row: int, on_time_ns: float
    ) -> Mapping[int, np.ndarray]:
        return {}

    def on_refresh(self, bank: int, first_row: int, n_rows: int) -> None:
        pass

    def on_write(self, bank: int, physical_row: int) -> None:
        pass


#: DDR4 refreshes all rows with 8192 REF commands per refresh window.
REFS_PER_WINDOW = 8192

#: An ACT this soon after PRE (ns) attempts a RowClone copy.
ROWCLONE_MAX_GAP_NS = 3.0


@dataclass
class DramDevice:
    """Behavioural model of one rank of a DDR4 device.

    All public row parameters are *logical* (interface) addresses; the
    device translates through its :class:`RowScrambler` exactly like a
    real chip, so callers that ignore scrambling will hammer the wrong
    physical neighbours -- the effect the paper's methodology section
    warns about.
    """

    geometry: DramGeometry = field(default_factory=DramGeometry)
    timing: TimingParameters = field(default_factory=lambda: DDR4_3200)
    scrambler: Optional[RowScrambler] = None
    observer: DisturbanceObserver = field(default_factory=NullObserver)
    refresh_enabled: bool = True
    rowclone_success_rate: float = 0.9
    seed: int = 0

    clock_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.scrambler is None:
            self.scrambler = RowScrambler(
                rows_per_bank=self.geometry.rows_per_bank,
                scheme=ScramblingScheme.IDENTITY,
            )
        self._banks: Dict[int, Bank] = {
            b: Bank(timing=self.timing) for b in range(self.geometry.banks_per_rank)
        }
        self._cells: Dict[int, CellArray] = {}
        self._refresh_pointer = 0
        self._last_closed: Dict[int, Optional[int]] = {}
        self._last_pre_ns: Dict[int, float] = {}
        self._rng = random.Random(self.seed)
        self._rows_per_ref = max(1, self.geometry.rows_per_bank // REFS_PER_WINDOW)

    # ------------------------------------------------------------------
    # Command execution
    # ------------------------------------------------------------------

    def execute(self, commands: Sequence[Command], *, strict: bool = True) -> None:
        """Run a command stream at the maximum legal rate."""
        for command in commands:
            self.execute_one(command, strict=strict)

    def execute_one(self, command: Command, *, strict: bool = True) -> None:
        """Run one command, advancing the device clock."""
        kind = command.kind
        if kind is CommandKind.WAIT:
            self.clock_ns += command.wait_ns
            return
        if kind is CommandKind.ACT:
            self._do_act(command.bank, command.row, strict=strict)
            return
        if kind is CommandKind.PRE:
            self._do_pre(command.bank, strict=strict)
            return
        if kind is CommandKind.REF:
            self._do_ref()
            return
        if kind in (CommandKind.RD, CommandKind.WR):
            bank = self._banks[command.bank]
            issue = max(self.clock_ns, bank.last_act_ns + self.timing.tRCD)
            if strict:
                bank.check_column_access(issue)
            self.clock_ns = issue + self.timing.tCCD_L
            return
        raise AssertionError(f"unhandled command kind {kind}")

    def _do_act(self, bank_id: int, logical_row: int, *, strict: bool) -> None:
        bank = self._banks[bank_id]
        physical = self.scrambler.to_physical(logical_row)
        issue = bank.ready_for_act(self.clock_ns) if strict else self.clock_ns
        gap = issue - self._last_pre_ns.get(bank_id, -1e18)
        attempted_clone = (not strict) and gap <= ROWCLONE_MAX_GAP_NS
        bank.activate(issue, physical, strict=strict)
        self.clock_ns = issue
        if attempted_clone:
            self._try_rowclone(bank_id, physical)
        self.observer.on_activate(bank_id, physical)

    def _do_pre(self, bank_id: int, *, strict: bool) -> None:
        bank = self._banks[bank_id]
        issue = bank.ready_for_pre(self.clock_ns) if strict else self.clock_ns
        closure = bank.precharge(issue, strict=strict)
        self.clock_ns = issue
        self._last_pre_ns[bank_id] = issue
        if closure is not None:
            self._last_closed[bank_id] = closure.row
            flips = self.observer.on_closure(bank_id, closure.row, closure.on_time_ns)
            self._apply_flips(bank_id, flips)

    def _do_ref(self) -> None:
        """Rank-level refresh: the next chunk of rows in every bank."""
        if not self.refresh_enabled:
            return
        for bank_id, bank in self._banks.items():
            if bank.state is BankState.ACTIVE:
                raise TimingViolation("REF issued with an open row")
        first = self._refresh_pointer
        n = min(self._rows_per_ref, self.geometry.rows_per_bank - first)
        for bank_id in self._banks:
            self.observer.on_refresh(bank_id, first, n)
        self._refresh_pointer = (first + n) % self.geometry.rows_per_bank
        self.clock_ns += self.timing.tRFC

    def _try_rowclone(self, bank_id: int, dst_physical: int) -> None:
        src_physical = self._last_closed.get(bank_id)
        if src_physical is None or src_physical == dst_physical:
            return
        if not self.geometry.same_subarray(src_physical, dst_physical):
            return
        if self._rng.random() < self.rowclone_success_rate:
            self.cells(bank_id).copy_row(src_physical, dst_physical)
            self.observer.on_write(bank_id, dst_physical)

    # ------------------------------------------------------------------
    # Bulk helpers (semantically equal to command streams, but fast)
    # ------------------------------------------------------------------

    def hammer(
        self,
        bank_id: int,
        aggressor_rows: Sequence[int],
        count: int,
        t_agg_on_ns: Optional[float] = None,
    ) -> None:
        """Interleave ``count`` ACT/PRE pairs to each aggressor row.

        Equivalent to ``count`` iterations of
        ``[ACT(a), WAIT(tAggOn), PRE, WAIT(tRP)]`` per aggressor (the
        paper's ``hammer_doublesided`` when two aggressors are given),
        but executed in one call so full-bank sweeps stay tractable.
        """
        if count < 0:
            raise ValueError("hammer count must be non-negative")
        if count == 0 or not aggressor_rows:
            return
        t_on = self.timing.tRAS if t_agg_on_ns is None else max(
            t_agg_on_ns, self.timing.tRAS
        )
        bank = self._banks[bank_id]
        if bank.state is BankState.ACTIVE:
            raise TimingViolation("hammer on a bank with an open row")
        physical = [self.scrambler.to_physical(r) for r in aggressor_rows]
        # Interleaved hammering restores every aggressor each iteration,
        # so aggressors never accumulate exposure from each other; the
        # bulk closure hook needs to know which rows those are.
        restored = frozenset(physical)
        all_flips: Dict[int, List[np.ndarray]] = {}
        for phys in physical:
            self.observer.on_activate(bank_id, phys)
            flips = self._observer_bulk_closure(
                bank_id, phys, t_on, count, restored
            )
            for victim, bits in flips.items():
                all_flips.setdefault(victim, []).append(bits)
        merged = {
            victim: np.unique(np.concatenate(parts))
            for victim, parts in all_flips.items()
        }
        self._apply_flips(bank_id, merged)
        # Interleaved hammering re-activates (and thus restores) every
        # aggressor on each iteration; reflect the final restoration.
        for phys in physical:
            self.observer.on_activate(bank_id, phys)
        per_pair = t_on + self.timing.tRP
        self.clock_ns += count * len(physical) * per_pair
        bank.activation_count += count * len(physical)
        bank.last_pre_ns = self.clock_ns
        self._last_pre_ns[bank_id] = self.clock_ns
        self._last_closed[bank_id] = physical[-1]

    def _observer_bulk_closure(
        self,
        bank_id: int,
        physical_row: int,
        t_on: float,
        count: int,
        restored: frozenset,
    ) -> Mapping[int, np.ndarray]:
        bulk = getattr(self.observer, "on_bulk_closures", None)
        if bulk is not None:
            return bulk(bank_id, physical_row, t_on, count, restored=restored)
        merged: Dict[int, List[np.ndarray]] = {}
        for _ in range(count):
            self.observer.on_activate(bank_id, physical_row)
            for victim, bits in self.observer.on_closure(
                bank_id, physical_row, t_on
            ).items():
                merged.setdefault(victim, []).append(bits)
        return {
            victim: np.unique(np.concatenate(parts))
            for victim, parts in merged.items()
        }

    def write_row(self, bank_id: int, logical_row: int, fill: int | bytes | np.ndarray) -> None:
        """Initialize a full row (ACT + column writes + PRE, bulk)."""
        physical = self.scrambler.to_physical(logical_row)
        self.cells(bank_id).write_row(physical, fill)
        self.observer.on_write(bank_id, physical)
        per_write = self.timing.tCCD_L
        self.clock_ns += (
            self.timing.tRCD
            + self.geometry.columns_per_row * per_write
            + self.timing.tRP
        )

    def read_row(self, bank_id: int, logical_row: int) -> np.ndarray:
        """Read a full row back (ACT + column reads + PRE, bulk)."""
        physical = self.scrambler.to_physical(logical_row)
        data = self.cells(bank_id).read_row(physical)
        self.clock_ns += (
            self.timing.tRCD
            + self.geometry.columns_per_row * self.timing.tCCD_L
            + self.timing.tRP
        )
        return data

    def refresh_all_rows(self) -> None:
        """Issue a full refresh window's worth of REF commands."""
        for _ in range(-(-self.geometry.rows_per_bank // self._rows_per_ref)):
            self._do_ref()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def cells(self, bank_id: int) -> CellArray:
        """The (lazily created) cell array of one bank."""
        if bank_id not in self._banks:
            raise ValueError(f"bank {bank_id} out of range")
        if bank_id not in self._cells:
            self._cells[bank_id] = CellArray(
                rows_per_bank=self.geometry.rows_per_bank,
                row_bytes=self.geometry.row_bytes,
            )
        return self._cells[bank_id]

    def bank(self, bank_id: int) -> Bank:
        return self._banks[bank_id]

    def activation_count(self, bank_id: int) -> int:
        return self._banks[bank_id].activation_count

    def _apply_flips(self, bank_id: int, flips: Mapping[int, np.ndarray]) -> None:
        if not flips:
            return
        cells = self.cells(bank_id)
        for victim, bits in flips.items():
            cells.flip_bits(victim, np.asarray(bits))
