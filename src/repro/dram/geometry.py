"""DRAM topology: channels, ranks, bank groups, banks, subarrays, rows.

The paper's characterization operates on one bank at a time (banks 1, 4,
10, and 15, one per bank group), while the performance evaluation uses a
full dual-rank, 4-bank-group x 4-bank DDR4 channel.  This module owns
the address arithmetic shared by both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True, order=True)
class RowAddress:
    """A fully qualified row address within a channel."""

    rank: int
    bank: int
    row: int

    def neighbors(self, distance: int = 1) -> tuple["RowAddress", "RowAddress"]:
        """The two row addresses at +/- ``distance`` in the same bank."""
        below = RowAddress(self.rank, self.bank, self.row - distance)
        above = RowAddress(self.rank, self.bank, self.row + distance)
        return below, above


@dataclass(frozen=True)
class Subarray:
    """A contiguous range of physical rows sharing local sense amplifiers.

    ``start`` is inclusive and ``end`` is exclusive, matching Python
    range conventions.  Rows at the edges of a subarray have only one
    in-subarray neighbour, which is the property the paper's reverse
    engineering exploits (Key Insight 1).
    """

    index: int
    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start

    def __contains__(self, row: int) -> bool:
        return self.start <= row < self.end

    def distance_to_sense_amps(self, row: int) -> int:
        """Distance from ``row`` to the nearest subarray edge.

        Sense amplifier stripes sit at both subarray boundaries in an
        open-bitline design, so the relevant spatial feature is the
        distance to the *closest* edge.
        """
        if row not in self:
            raise ValueError(f"row {row} is not in subarray [{self.start}, {self.end})")
        return min(row - self.start, self.end - 1 - row)

    def is_edge_row(self, row: int) -> bool:
        """True for the first and last row of the subarray."""
        return row == self.start or row == self.end - 1


@dataclass(frozen=True)
class DramGeometry:
    """Static organization of one DRAM channel.

    Defaults follow the paper's Table 4 simulated configuration: one
    channel, 2 ranks, 4 bank groups of 4 banks, 128K rows per bank, and
    an 8 KiB row (1024 columns of 8 bytes).
    """

    ranks: int = 2
    bank_groups: int = 4
    banks_per_group: int = 4
    rows_per_bank: int = 128 * 1024
    columns_per_row: int = 1024
    column_bytes: int = 8
    subarray_rows: int = 512

    def __post_init__(self) -> None:
        if self.ranks < 1 or self.bank_groups < 1 or self.banks_per_group < 1:
            raise ValueError("geometry dimensions must be positive")
        if self.rows_per_bank < 1 or self.columns_per_row < 1:
            raise ValueError("geometry dimensions must be positive")
        if self.subarray_rows < 2:
            raise ValueError("subarrays must hold at least two rows")

    @property
    def banks_per_rank(self) -> int:
        return self.bank_groups * self.banks_per_group

    @property
    def total_banks(self) -> int:
        return self.ranks * self.banks_per_rank

    @property
    def row_bytes(self) -> int:
        return self.columns_per_row * self.column_bytes

    @property
    def subarrays_per_bank(self) -> int:
        """Number of subarrays, counting a final partial subarray."""
        return -(-self.rows_per_bank // self.subarray_rows)

    def bank_group_of(self, bank: int) -> int:
        """Bank group index for a flat bank id within a rank."""
        self._check_bank(bank)
        return bank // self.banks_per_group

    def bank_id(self, bank_group: int, bank_in_group: int) -> int:
        """Flat bank id from (bank group, bank-in-group) coordinates."""
        if not 0 <= bank_group < self.bank_groups:
            raise ValueError(f"bank group {bank_group} out of range")
        if not 0 <= bank_in_group < self.banks_per_group:
            raise ValueError(f"bank {bank_in_group} out of range in group")
        return bank_group * self.banks_per_group + bank_in_group

    def subarrays(self) -> List[Subarray]:
        """The regular subarray partition of one bank."""
        result = []
        index = 0
        start = 0
        while start < self.rows_per_bank:
            end = min(start + self.subarray_rows, self.rows_per_bank)
            result.append(Subarray(index=index, start=start, end=end))
            index += 1
            start = end
        return result

    def subarray_of(self, row: int) -> Subarray:
        """The subarray containing physical row ``row``."""
        self._check_row(row)
        index = row // self.subarray_rows
        start = index * self.subarray_rows
        end = min(start + self.subarray_rows, self.rows_per_bank)
        return Subarray(index=index, start=start, end=end)

    def same_subarray(self, row_a: int, row_b: int) -> bool:
        """Whether two physical rows share a subarray (and local bitlines)."""
        return self.subarray_of(row_a).index == self.subarray_of(row_b).index

    def relative_location(self, row: int) -> float:
        """Row position normalized to [0, 1] across the bank (Figs 4, 6)."""
        self._check_row(row)
        if self.rows_per_bank == 1:
            return 0.0
        return row / (self.rows_per_bank - 1)

    def valid_row(self, row: int) -> bool:
        return 0 <= row < self.rows_per_bank

    def _check_bank(self, bank: int) -> None:
        if not 0 <= bank < self.banks_per_rank:
            raise ValueError(f"bank {bank} out of range [0, {self.banks_per_rank})")

    def _check_row(self, row: int) -> None:
        if not self.valid_row(row):
            raise ValueError(f"row {row} out of range [0, {self.rows_per_bank})")


#: Representative banks tested by the paper, one per DDR4 bank group.
REPRESENTATIVE_BANKS: Sequence[int] = (1, 4, 10, 15)
