"""Data patterns used in the paper's tests (Table 2).

Each pattern is a pair of fill bytes: one written to the aggressor
rows and one to the victim row.  The paper tests six patterns and
defines the worst-case data pattern (WCDP) of a row as the one that
yields the largest BER at a hammer count of 128K.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple


def bitwise_inverse(fill: int) -> int:
    """Invert a fill byte (the paper's ``bitwise_inverse``)."""
    if not 0 <= fill <= 0xFF:
        raise ValueError(f"fill byte {fill:#x} out of range")
    return fill ^ 0xFF


class DataPattern(Enum):
    """Table 2: (aggressor fill byte, victim fill byte)."""

    ROW_STRIPE = ("RS", 0xFF, 0x00)
    ROW_STRIPE_INV = ("RSI", 0x00, 0xFF)
    COLUMN_STRIPE = ("CS", 0xAA, 0xAA)
    COLUMN_STRIPE_INV = ("CSI", 0x55, 0x55)
    CHECKERBOARD = ("CB", 0xAA, 0x55)
    CHECKERBOARD_INV = ("CBI", 0x55, 0xAA)

    def __init__(self, short_name: str, aggressor_fill: int, victim_fill: int):
        self.short_name = short_name
        self.aggressor_fill = aggressor_fill
        self.victim_fill = victim_fill

    @property
    def bit_difference_fraction(self) -> float:
        """Fraction of bit positions where victim and aggressor differ."""
        diff = self.aggressor_fill ^ self.victim_fill
        return bin(diff).count("1") / 8.0

    @classmethod
    def from_fills(
        cls, aggressor_fill: int, victim_fill: int
    ) -> Optional["DataPattern"]:
        """The Table 2 pattern matching two fill bytes, if any."""
        for pattern in cls:
            if (
                pattern.aggressor_fill == aggressor_fill
                and pattern.victim_fill == victim_fill
            ):
                return pattern
        return None

    @property
    def inverse(self) -> "DataPattern":
        """The pattern with both fills inverted."""
        return {
            DataPattern.ROW_STRIPE: DataPattern.ROW_STRIPE_INV,
            DataPattern.ROW_STRIPE_INV: DataPattern.ROW_STRIPE,
            DataPattern.COLUMN_STRIPE: DataPattern.COLUMN_STRIPE_INV,
            DataPattern.COLUMN_STRIPE_INV: DataPattern.COLUMN_STRIPE,
            DataPattern.CHECKERBOARD: DataPattern.CHECKERBOARD_INV,
            DataPattern.CHECKERBOARD_INV: DataPattern.CHECKERBOARD,
        }[self]


#: Test order used by Algorithm 1.
DATA_PATTERNS: Tuple[DataPattern, ...] = (
    DataPattern.ROW_STRIPE,
    DataPattern.ROW_STRIPE_INV,
    DataPattern.COLUMN_STRIPE,
    DataPattern.COLUMN_STRIPE_INV,
    DataPattern.CHECKERBOARD,
    DataPattern.CHECKERBOARD_INV,
)

#: Patterns that can plausibly be a row's WCDP.  Column stripes charge
#: victim and aggressor cells identically, so they are never the most
#: effective pattern in the model (and rarely are on real chips).
WCDP_CANDIDATES: Tuple[DataPattern, ...] = (
    DataPattern.ROW_STRIPE,
    DataPattern.ROW_STRIPE_INV,
    DataPattern.CHECKERBOARD,
    DataPattern.CHECKERBOARD_INV,
)
