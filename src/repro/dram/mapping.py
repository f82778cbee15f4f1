"""Address mapping: in-DRAM row scrambling and controller-side mapping.

Two unrelated mappings live here because both translate addresses:

* :class:`RowScrambler` -- DRAM-internal logical-to-physical row
  remapping.  Manufacturers scramble row addresses (and remap faulty
  rows to spares), so the rows adjacent in the physical array are not
  the rows adjacent in the interface address space.  The paper reverse
  engineers this mapping before hammering (Section 4.2); our device
  model implements the common schemes so that the reverse-engineering
  code has something real to recover.
* :class:`MopAddressMapper` -- the memory controller's physical-address
  to (rank, bank group, bank, row, column) mapping, using the
  Minimalist Open Page (MOP) scheme from the paper's Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Tuple

import numpy as np


class ScramblingScheme(Enum):
    """Row-address scrambling schemes seen in commodity DDR4 chips."""

    #: Physical row == logical row.
    IDENTITY = auto()
    #: Bits [2:0] are remapped 011->100 style (Samsung-like "mirror").
    MIRROR = auto()
    #: Bit 3 XORed into bits [2:0] within each 16-row group (Hynix-like).
    XOR_FOLD = auto()


@dataclass(frozen=True)
class RowScrambler:
    """Bijective logical-to-physical row mapping for one bank.

    The mapping is a pure function of the row address; spare-row repair
    entries (``repairs``) override individual logical rows, modelling
    post-manufacturing remapping to spare rows at the top of the bank.
    """

    rows_per_bank: int
    scheme: ScramblingScheme = ScramblingScheme.IDENTITY
    repairs: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        seen_logical = set()
        seen_physical = set()
        for logical, physical in self.repairs:
            if not 0 <= logical < self.rows_per_bank:
                raise ValueError(f"repair source {logical} out of range")
            if not 0 <= physical < self.rows_per_bank:
                raise ValueError(f"repair target {physical} out of range")
            if logical in seen_logical or physical in seen_physical:
                raise ValueError("duplicate repair entry")
            seen_logical.add(logical)
            seen_physical.add(physical)

    def to_physical(self, logical: int) -> int:
        """Physical row index the chip actually drives for ``logical``."""
        self._check(logical)
        for src, dst in self.repairs:
            if logical == src:
                return dst
        return self._scramble(logical)

    def to_physical_array(self, logical: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`to_physical` for whole row ranges.

        Used by the batched characterization kernels; elementwise equal
        to the scalar method for every scheme and repair table.
        """
        rows = np.asarray(logical, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.rows_per_bank):
            raise ValueError(
                f"row out of range [0, {self.rows_per_bank}) in batch"
            )
        if self.scheme is ScramblingScheme.IDENTITY:
            physical = rows.copy()
        elif self.scheme is ScramblingScheme.MIRROR:
            lut = np.array([0, 1, 2, 4, 3, 6, 5, 7], dtype=np.int64)
            physical = (rows & ~0b111) | lut[rows & 0b111]
        else:  # XOR_FOLD
            bit3 = (rows >> 3) & 1
            physical = rows ^ (0b101 * bit3)
        for src, dst in self.repairs:
            physical[rows == src] = dst
        return physical

    def to_logical(self, physical: int) -> int:
        """Inverse mapping (the schemes below are involutions)."""
        self._check(physical)
        for src, dst in self.repairs:
            if physical == dst:
                return src
        # MIRROR and XOR_FOLD are self-inverse; IDENTITY trivially so.
        return self._scramble(physical)

    def physical_neighbors(self, logical: int) -> Tuple[int, int]:
        """Logical addresses of the physically adjacent rows.

        This is what a double-sided hammer needs: given the victim's
        logical address, return the logical addresses the memory
        controller must activate to hammer the two physical neighbours.
        Edge rows return the neighbour reflected in-range (the caller
        should check :meth:`repro.dram.geometry.Subarray.is_edge_row`).
        """
        physical = self.to_physical(logical)
        below = max(physical - 1, 0)
        above = min(physical + 1, self.rows_per_bank - 1)
        return self.to_logical(below), self.to_logical(above)

    def _scramble(self, row: int) -> int:
        if self.scheme is ScramblingScheme.IDENTITY:
            return row
        if self.scheme is ScramblingScheme.MIRROR:
            low = row & 0b111
            mirrored = {0: 0, 1: 1, 2: 2, 3: 4, 4: 3, 5: 6, 6: 5, 7: 7}[low]
            return (row & ~0b111) | mirrored
        if self.scheme is ScramblingScheme.XOR_FOLD:
            bit3 = (row >> 3) & 1
            return row ^ (0b111 * bit3 & 0b101)
        raise AssertionError(f"unhandled scheme {self.scheme}")

    def _check(self, row: int) -> None:
        if not 0 <= row < self.rows_per_bank:
            raise ValueError(f"row {row} out of range [0, {self.rows_per_bank})")


@dataclass(frozen=True)
class PhysicalAddress:
    """Decoded controller-side address."""

    channel: int
    rank: int
    bank_group: int
    bank: int
    row: int
    column: int

    @property
    def flat_bank(self) -> int:
        """Flat bank id within the rank (bank group major)."""
        return self.bank_group * 4 + self.bank


@dataclass(frozen=True)
class MopAddressMapper:
    """Minimalist Open Page physical-address mapping (Table 4).

    MOP interleaves a small number of consecutive cache blocks in a row
    before switching banks, balancing row-buffer locality against bank
    parallelism.  Bit layout, from least significant:

    ``[block offset][mop columns][channel][bank group][bank][rank]``
    ``[remaining columns][row]``
    """

    channels: int = 1
    ranks: int = 2
    bank_groups: int = 4
    banks_per_group: int = 4
    rows_per_bank: int = 128 * 1024
    columns_per_row: int = 128
    cacheline_bytes: int = 64
    mop_width: int = 4

    def __post_init__(self) -> None:
        for name in ("channels", "ranks", "bank_groups", "banks_per_group",
                     "rows_per_bank", "columns_per_row", "mop_width"):
            value = getattr(self, name)
            if value < 1 or value & (value - 1):
                raise ValueError(f"{name} must be a positive power of two, got {value}")

    def decode(self, byte_address: int) -> PhysicalAddress:
        """Map a physical byte address to DRAM coordinates."""
        if byte_address < 0:
            raise ValueError("negative address")
        block = byte_address // self.cacheline_bytes
        block, mop_col = divmod(block, self.mop_width)
        block, channel = divmod(block, self.channels)
        block, bank_group = divmod(block, self.bank_groups)
        block, bank = divmod(block, self.banks_per_group)
        block, rank = divmod(block, self.ranks)
        high_cols = self.columns_per_row // self.mop_width
        block, col_high = divmod(block, high_cols)
        row = block % self.rows_per_bank
        column = col_high * self.mop_width + mop_col
        return PhysicalAddress(
            channel=channel,
            rank=rank,
            bank_group=bank_group,
            bank=bank,
            row=row,
            column=column,
        )

    def capacity_bytes(self) -> int:
        """Total bytes addressable by this mapping."""
        return (
            self.cacheline_bytes
            * self.columns_per_row
            * self.channels
            * self.ranks
            * self.bank_groups
            * self.banks_per_group
            * self.rows_per_bank
        )
