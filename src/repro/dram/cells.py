"""Cell-array storage.

Rows are materialized lazily: the characterization tests only ever
touch a victim row and its two aggressors at a time, so storing every
row of a 128K-row bank would be pure waste.  A row that was never
written reads back as the bank's background fill byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np


@dataclass
class CellArray:
    """Lazily materialized storage for one bank's rows."""

    rows_per_bank: int
    row_bytes: int
    background: int = 0x00
    _rows: Dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def write_row(self, row: int, data: np.ndarray | bytes | int) -> None:
        """Store a full row.

        ``data`` may be a byte value (uniform fill, the common case for
        the paper's data patterns), a ``bytes`` object, or a uint8
        array of exactly ``row_bytes`` entries.
        """
        self._check(row)
        if isinstance(data, int):
            if not 0 <= data <= 0xFF:
                raise ValueError(f"fill byte {data:#x} out of range")
            arr = np.full(self.row_bytes, data, dtype=np.uint8)
        elif isinstance(data, bytes):
            if len(data) != self.row_bytes:
                raise ValueError(
                    f"row data is {len(data)} bytes, expected {self.row_bytes}"
                )
            arr = np.frombuffer(data, dtype=np.uint8).copy()
        else:
            arr = np.asarray(data, dtype=np.uint8)
            if arr.shape != (self.row_bytes,):
                raise ValueError(
                    f"row data shape {arr.shape}, expected ({self.row_bytes},)"
                )
            arr = arr.copy()
        self._rows[row] = arr

    def read_row(self, row: int) -> np.ndarray:
        """Read a full row (a copy; mutations do not write back)."""
        self._check(row)
        stored = self._rows.get(row)
        if stored is None:
            return np.full(self.row_bytes, self.background, dtype=np.uint8)
        return stored.copy()

    def write_column(self, row: int, column: int, value: np.ndarray) -> None:
        """Write one column (a ``len(value)``-byte slice) of a row."""
        self._check(row)
        if row not in self._rows:
            self._rows[row] = np.full(self.row_bytes, self.background, dtype=np.uint8)
        start = column * len(value)
        if start + len(value) > self.row_bytes:
            raise ValueError(f"column {column} out of range")
        self._rows[row][start : start + len(value)] = value

    def flip_bits(self, row: int, bit_indices: np.ndarray) -> None:
        """Flip the given bit positions of a row in place.

        This is the entry point the read-disturbance fault model uses to
        corrupt a victim row.
        """
        self._check(row)
        if len(bit_indices) == 0:
            return
        if row not in self._rows:
            self._rows[row] = np.full(self.row_bytes, self.background, dtype=np.uint8)
        data = self._rows[row]
        byte_idx = np.asarray(bit_indices) // 8
        bit_in_byte = np.asarray(bit_indices) % 8
        # A bit may legitimately be listed once only; group by byte.
        np.bitwise_xor.at(data, byte_idx, (1 << bit_in_byte).astype(np.uint8))

    def row_is_materialized(self, row: int) -> bool:
        return row in self._rows

    @property
    def materialized_rows(self) -> int:
        return len(self._rows)

    def copy_row(self, src: int, dst: int) -> None:
        """Copy ``src`` into ``dst`` (RowClone / migration primitive)."""
        self._check(src)
        self._check(dst)
        self._rows[dst] = self.read_row(src)

    def _check(self, row: int) -> None:
        if not 0 <= row < self.rows_per_bank:
            raise ValueError(f"row {row} out of range [0, {self.rows_per_bank})")


def count_mismatched_bits(observed: np.ndarray, expected: np.ndarray) -> int:
    """Number of bit positions where two rows differ (BER numerator)."""
    if observed.shape != expected.shape:
        raise ValueError("row shapes differ")
    diff = np.bitwise_xor(observed, expected)
    return int(np.unpackbits(diff).sum())
