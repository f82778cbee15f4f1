"""Subarray reverse engineering (Section 5.4.1, Fig 8).

Two key insights from the paper:

1. A row at a subarray boundary is disturbed from one side only, so a
   single-sided hammer probe reveals boundary rows.  Rows are then
   clustered into subarrays with k-means, sweeping k and maximizing
   the silhouette score -- the global maximum is the inferred subarray
   count.
2. Intra-subarray RowClone succeeds only within a subarray, so a
   successful clone across a candidate boundary *invalidates* it
   (while a failed clone proves nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.clustering import best_k, kmeans_1d, sweep_k
from repro.bender.infrastructure import TestPlatform


@dataclass
class SubarrayInference:
    """Result of the subarray reverse-engineering pipeline."""

    boundary_rows: List[int]
    silhouette_by_k: Dict[int, float]
    inferred_k: int
    labels: np.ndarray

    def subarray_sizes(self) -> List[int]:
        """Row count of each inferred subarray."""
        _, counts = np.unique(self.labels, return_counts=True)
        return sorted(int(c) for c in counts)

    def subarray_of(self, row: int) -> int:
        return int(self.labels[row])


class SubarrayReverseEngineer:
    """Runs the two-step boundary detection on a test platform."""

    def __init__(
        self,
        platform: TestPlatform,
        *,
        probe_hammer_count: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        self.platform = platform
        hc_max = platform.model.true_hc_first(0).max()
        # Single-sided exposure accumulates at half the double-sided
        # rate, so 4x the worst HC_first guarantees neighbour bitflips.
        self.probe_hammer_count = probe_hammer_count or int(hc_max * 4) + 1
        self.seed = seed

    # -- Key Insight 1 --------------------------------------------------

    def find_boundary_candidates(
        self, bank: int, rows: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Physical rows whose hammering disturbs only their upper side.

        Subarrays are a property of the *physical* row space; the probe
        therefore translates through the (already reverse-engineered)
        row mapping before hammering -- Section 4.2's prerequisite.
        ``rows`` and the returned boundary list are physical indices,
        in probe order.  The probes run as two batched
        :meth:`TestPlatform.single_sided_disturbs_bank` calls; the
        per-row loop they replace is the oracle
        :func:`repro.characterization.reference.find_boundary_candidates_loop`.
        """
        platform = self.platform
        n_rows = platform.geometry.rows_per_bank
        to_logical = platform.device.scrambler.to_logical
        count = self.probe_hammer_count
        probe = np.asarray(
            list(rows) if rows is not None else range(n_rows), dtype=np.int64
        )
        # Row 0 has no lower side and is always a boundary.  Every other
        # row probes its lower neighbour first; only the rows that left
        # it undisturbed go on to probe their upper one.
        interior = probe != 0
        probed = probe[interior]
        aggressors = np.asarray(
            [to_logical(row) for row in probed.tolist()], dtype=np.int64
        )
        below_disturbed = platform.single_sided_disturbs_bank(
            bank, aggressors, [to_logical(row - 1) for row in probed.tolist()],
            count,
        )
        ask_above = ~below_disturbed & (probed + 1 < n_rows)
        above_disturbed = platform.single_sided_disturbs_bank(
            bank,
            aggressors[ask_above],
            [to_logical(row + 1) for row in probed[ask_above].tolist()],
            count,
        )
        # A row that disturbs neither side is not a row at all.
        is_boundary = ~below_disturbed
        is_boundary[ask_above] = above_disturbed
        keep = ~interior
        keep[interior] = is_boundary
        return probe[keep].tolist()

    # -- Clustering (Fig 8) ---------------------------------------------

    def cluster_feature(self, bank: int, boundary_rows: Sequence[int]) -> np.ndarray:
        """Per-row clustering feature: the ordinal of the row's segment.

        Counting detected boundaries at or below each row turns the
        boundary list into a step function whose plateaus are the
        subarrays; clustering this 1-D feature makes the silhouette
        score peak at the true subarray count.
        """
        n = self.platform.geometry.rows_per_bank
        boundary_arr = np.asarray(sorted(boundary_rows))
        return np.searchsorted(boundary_arr, np.arange(n), side="right").astype(
            np.float64
        )

    def infer(
        self,
        bank: int,
        *,
        k_values: Optional[Sequence[int]] = None,
        probe_rows: Optional[Sequence[int]] = None,
        validate_with_rowclone: bool = True,
    ) -> SubarrayInference:
        """The full pipeline: probe, (optionally) validate, cluster."""
        boundaries = self.find_boundary_candidates(bank, probe_rows)
        if validate_with_rowclone:
            boundaries = self.validate_boundaries(bank, boundaries)
        feature = self.cluster_feature(bank, boundaries)
        n_candidates = max(2, len(boundaries))
        if k_values is None:
            k_values = sorted(
                {
                    k
                    for k in range(
                        max(2, n_candidates // 2), n_candidates * 2 + 1
                    )
                }
            )
        scores = sweep_k(feature, k_values, seed=self.seed)
        k = best_k(scores)
        labels, _ = kmeans_1d(feature, k)
        return SubarrayInference(
            boundary_rows=list(boundaries),
            silhouette_by_k=scores,
            inferred_k=k,
            labels=labels,
        )

    # -- Key Insight 2 --------------------------------------------------

    def validate_boundaries(
        self, bank: int, candidates: Sequence[int]
    ) -> List[int]:
        """Drop candidates that a successful RowClone disproves.

        A clone from ``candidate - 1`` to ``candidate`` succeeding
        means both rows share a subarray, so no boundary lies between
        them.  Failed clones keep the candidate (RowClone is not
        guaranteed to work even within a subarray).
        """
        scrambler = self.platform.device.scrambler
        validated = []
        for candidate in candidates:
            if candidate == 0:
                validated.append(candidate)
                continue
            src = scrambler.to_logical(candidate - 1)
            dst = scrambler.to_logical(candidate)
            if self.platform.try_rowclone(bank, src, dst):
                continue
            validated.append(candidate)
        return validated
