"""Spatial feature extraction (Section 5.4.2).

For every DRAM row, the paper takes each bit of four properties --
bank address, row address, subarray address, and the row's distance to
its local sense amplifiers -- as a binary spatial feature, and asks
how well each feature alone predicts the row's HC_first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np


@dataclass(frozen=True, order=True)
class SpatialFeature:
    """One binary feature: a bit of one of the four row properties."""

    kind: str  # "bank" | "row" | "subarray" | "distance"
    bit: int

    _KINDS = ("bank", "row", "subarray", "distance")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.bit < 0:
            raise ValueError("bit index must be non-negative")

    @property
    def short_name(self) -> str:
        prefix = {"bank": "Ba", "row": "Ro", "subarray": "Sa", "distance": "Dist"}
        return f"{prefix[self.kind]}[{self.bit}]"


def _bits_needed(max_value: int) -> int:
    return max(1, int(max_value).bit_length())


#: Per-process memo of :func:`extract_features`, keyed by its three
#: arguments, which alone fix the matrix.  Its arrays are read-only, and
#: each call gets its own copy of the feature list.
_FEATURE_MEMO: Dict[
    tuple, Tuple[Tuple[SpatialFeature, ...], np.ndarray, np.ndarray]
] = {}


def extract_features(
    rows_per_bank: int,
    subarray_rows: int,
    banks: Tuple[int, ...],
) -> Tuple[List[SpatialFeature], np.ndarray, np.ndarray]:
    """Build the full feature matrix for the given banks.

    Returns ``(features, matrix, bank_of_sample)`` where ``matrix`` has
    one sample per (bank, row) and one binary column per feature, in
    the order of ``features``.  Samples are ordered bank-major, row
    within bank, matching how per-bank measured arrays concatenate.
    Repeated calls with the same arguments share the (read-only)
    arrays.
    """
    key = (rows_per_bank, subarray_rows, tuple(banks))
    if key not in _FEATURE_MEMO:
        features, matrix, bank_of_sample = _build_features(*key)
        matrix.flags.writeable = False
        bank_of_sample.flags.writeable = False
        _FEATURE_MEMO[key] = (tuple(features), matrix, bank_of_sample)
    features, matrix, bank_of_sample = _FEATURE_MEMO[key]
    return list(features), matrix, bank_of_sample


def _build_features(
    rows_per_bank: int, subarray_rows: int, banks: Tuple[int, ...]
) -> Tuple[List[SpatialFeature], np.ndarray, np.ndarray]:
    if rows_per_bank < 1 or subarray_rows < 1 or not banks:
        raise ValueError("invalid geometry for feature extraction")
    rows = np.arange(rows_per_bank)
    subarray = rows // subarray_rows
    within = rows % subarray_rows
    distance = np.minimum(within, np.minimum(subarray_rows - 1 - within,
                                             rows_per_bank - 1 - rows))

    n_bank_bits = _bits_needed(max(banks))
    n_row_bits = _bits_needed(rows_per_bank - 1)
    n_subarray_bits = _bits_needed(int(subarray.max()))
    n_distance_bits = _bits_needed(int(distance.max()))

    features: List[SpatialFeature] = []
    features += [SpatialFeature("bank", b) for b in range(n_bank_bits)]
    features += [SpatialFeature("row", b) for b in range(n_row_bits)]
    features += [SpatialFeature("subarray", b) for b in range(n_subarray_bits)]
    features += [SpatialFeature("distance", b) for b in range(n_distance_bits)]

    per_bank_columns: Dict[str, np.ndarray] = {
        "row": rows,
        "subarray": subarray,
        "distance": distance,
    }

    blocks = []
    bank_of_sample = []
    for bank in banks:
        columns = []
        for feature in features:
            if feature.kind == "bank":
                values = np.full(rows_per_bank, (bank >> feature.bit) & 1)
            else:
                values = (per_bank_columns[feature.kind] >> feature.bit) & 1
            columns.append(values.astype(np.int8))
        blocks.append(np.stack(columns, axis=1))
        bank_of_sample.append(np.full(rows_per_bank, bank))
    matrix = np.concatenate(blocks, axis=0)
    return features, matrix, np.concatenate(bank_of_sample)
