"""Vulnerability binning (Section 6.4).

Svärd stores a small bin id per row instead of the full ``HC_first``
value.  Bins partition the observed HC_first range; each bin's
effective threshold is its *lower* edge, so a row is never treated as
stronger than it is -- the property Svärd's security argument rests on
(Section 6.3).

The paper notes "the number of bins in each distribution is smaller
than 16", hence 4-bit identifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Section 6.4: 4 bits identify a bin.
BITS_PER_ROW = 4
MAX_BINS = 1 << BITS_PER_ROW


@dataclass(frozen=True)
class VulnerabilityBins:
    """A partition of HC_first values into at most 16 bins.

    ``edges`` are the ascending lower edges of each bin; bin ``i``
    covers ``[edges[i], edges[i+1])`` (the last bin is unbounded
    above).  ``threshold_of(i) == edges[i]`` -- the conservative
    threshold Svärd reports for rows in that bin.
    """

    edges: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=np.float64)
        if edges.ndim != 1 or len(edges) == 0:
            raise ValueError("need at least one bin edge")
        if len(edges) > MAX_BINS:
            raise ValueError(f"at most {MAX_BINS} bins (4-bit ids)")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must be strictly increasing")
        if edges[0] <= 0:
            raise ValueError("bin edges must be positive")
        object.__setattr__(self, "edges", edges)

    # ------------------------------------------------------------------

    @classmethod
    def geometric(
        cls, worst_case: float, best_case: float, n_bins: int = MAX_BINS
    ) -> "VulnerabilityBins":
        """Geometrically spaced bins between worst and best HC_first.

        Geometric spacing matches how defense overheads scale (they are
        roughly inversely proportional to the threshold), so every bin
        buys a similar relative overhead reduction.
        """
        if not 1 <= n_bins <= MAX_BINS:
            raise ValueError(f"n_bins must be in [1, {MAX_BINS}]")
        if worst_case <= 0 or best_case < worst_case:
            raise ValueError("require 0 < worst_case <= best_case")
        if n_bins == 1 or best_case == worst_case:
            return cls(edges=np.array([worst_case]))
        ratio = (best_case / worst_case) ** (1.0 / n_bins)
        edges = worst_case * ratio ** np.arange(n_bins)
        # A value range too narrow for the requested bin count would
        # produce duplicate edges; keep the distinct ones.
        edges = np.unique(edges)
        return cls(edges=edges)

    @classmethod
    def from_values(
        cls, values: np.ndarray, n_bins: int = MAX_BINS
    ) -> "VulnerabilityBins":
        """Bins spanning an observed profile's value range."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.size == 0:
            raise ValueError("no values")
        return cls.geometric(float(arr.min()), float(arr.max()), n_bins)

    # ------------------------------------------------------------------

    @property
    def n_bins(self) -> int:
        return len(self.edges)

    @property
    def bits_per_row(self) -> int:
        return BITS_PER_ROW

    def bin_of(self, hc_first: float) -> int:
        """Bin id for one HC_first value.

        Values below the first edge (possible after aging) clamp to
        bin 0, keeping the conservative floor.
        """
        index = int(np.searchsorted(self.edges, hc_first, side="right")) - 1
        return max(0, index)

    def bin_ids(self, values: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`bin_of`."""
        idx = np.searchsorted(self.edges, np.asarray(values), side="right") - 1
        return np.maximum(idx, 0).astype(np.int8)

    def threshold_of(self, bin_id: int) -> float:
        """The conservative (lower-edge) threshold of a bin."""
        if not 0 <= bin_id < self.n_bins:
            raise ValueError(f"bin id {bin_id} out of range")
        return float(self.edges[bin_id])

    def thresholds(self, values: np.ndarray) -> np.ndarray:
        """Per-value conservative thresholds (never above the value)."""
        return self.edges[self.bin_ids(values)]
