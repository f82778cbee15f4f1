"""One-dimensional k-means and silhouette scoring.

The paper clusters DRAM rows into subarrays with k-means (Hartigan &
Wong) and picks k by sweeping it and maximizing the silhouette score
(Rousseeuw).  The clustered feature is one-dimensional, so we provide
a deterministic 1-D Lloyd's-algorithm k-means and an exact silhouette
implementation with optional subsampling for large inputs.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np


def kmeans_1d(
    values: np.ndarray, k: int, *, max_iterations: int = 100
) -> Tuple[np.ndarray, np.ndarray]:
    """Cluster 1-D data into ``k`` clusters.

    Returns ``(labels, centroids)``.  Initialization uses evenly spaced
    quantiles, which makes the procedure deterministic; for sorted 1-D
    data Lloyd's algorithm then converges to contiguous clusters.
    """
    data = np.asarray(values, dtype=np.float64)
    if data.ndim != 1:
        raise ValueError("kmeans_1d expects 1-D data")
    if not 1 <= k <= len(data):
        raise ValueError(f"k={k} out of range for {len(data)} points")

    quantiles = (np.arange(k) + 0.5) / k
    unique = np.unique(data)
    if len(unique) >= k:
        # Spreading the initial centroids over distinct values keeps
        # small clusters (e.g. a short trailing subarray) from being
        # swallowed by quantile mass.
        centroids = np.quantile(unique, quantiles)
    else:
        centroids = np.quantile(data, quantiles)
    labels = np.zeros(len(data), dtype=np.int64)
    for _ in range(max_iterations):
        distances = np.abs(data[:, None] - centroids[None, :])
        new_labels = np.argmin(distances, axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for cluster in range(k):
            members = data[labels == cluster]
            if len(members):
                centroids[cluster] = members.mean()
    return labels, centroids


def _distance_matrix(data: np.ndarray) -> np.ndarray:
    """The n x n matrix of ``|x_i - x_j|``."""
    # In place: a second n x n temporary costs more than the arithmetic.
    distance = data[:, None] - data[None, :]
    np.abs(distance, out=distance)
    return distance


def _silhouette(distance: np.ndarray, lab: np.ndarray) -> float:
    """Mean silhouette coefficient from the points' distance matrix.

    One pass per cluster, not per point; ``distance`` is only read.
    """
    n = len(lab)
    own_sum = np.zeros(n)
    n_own = np.zeros(n, dtype=np.int64)
    b = np.full(n, np.inf)
    for c in np.unique(lab):
        mask = lab == c
        # ``np.compress`` keeps the members C-contiguous, so each row's
        # sum is the same pairwise sum as over that row's 1-D slice.
        sums = np.compress(mask, distance, axis=1).sum(axis=1)
        count = mask.sum()
        own_sum[mask] = sums[mask]
        n_own[mask] = count
        b[~mask] = np.minimum(b[~mask], sums[~mask] / count)
    scores = np.zeros(n)
    scored = n_own > 1
    a = own_sum[scored] / (n_own[scored] - 1)
    b = b[scored]
    denominator = np.maximum(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores[scored] = np.where(denominator == 0, 0.0, (b - a) / denominator)
    return float(scores.mean())


def silhouette_score_1d(
    values: np.ndarray,
    labels: np.ndarray,
    *,
    max_points: int = 2000,
    seed: int = 0,
) -> float:
    """Mean silhouette coefficient of a 1-D clustering.

    ``s(i) = (b(i) - a(i)) / max(a(i), b(i))`` with ``a`` the mean
    intra-cluster distance and ``b`` the smallest mean distance to
    another cluster.  Inputs larger than ``max_points`` are subsampled
    (deterministically) to bound the quadratic cost.
    """
    data = np.asarray(values, dtype=np.float64)
    lab = np.asarray(labels)
    if data.shape != lab.shape:
        raise ValueError("values and labels must align")
    unique = np.unique(lab)
    if len(unique) < 2:
        raise ValueError("silhouette needs at least two clusters")
    if len(data) > max_points:
        rng = np.random.default_rng(seed)
        index = rng.choice(len(data), size=max_points, replace=False)
        # Subsampling must keep at least one point per cluster.
        missing = np.setdiff1d(unique, np.unique(lab[index]))
        if len(missing):
            extras = [np.where(lab == c)[0][0] for c in missing]
            index = np.concatenate([index, extras])
        data, lab = data[index], lab[index]
    return _silhouette(_distance_matrix(data), lab)


def sweep_k(
    values: np.ndarray,
    k_values: Sequence[int],
    *,
    max_points: int = 2000,
    seed: int = 0,
) -> Dict[int, float]:
    """Silhouette score per candidate k (the Fig 8 sweep).

    Each k scores :func:`silhouette_score_1d` of its k-means labels.
    Up to ``max_points`` points, only the labels change between k, so
    the distance matrix is built once for the whole sweep; a larger
    input is subsampled per k, since the subsample depends on the
    labels.
    """
    data = np.asarray(values, dtype=np.float64)
    distance = None
    results: Dict[int, float] = {}
    for k in k_values:
        labels, _ = kmeans_1d(data, k)
        populated = len(np.unique(labels))
        if populated < 2:
            results[k] = float("-inf")
            continue
        if len(data) > max_points:
            score = silhouette_score_1d(
                data, labels, max_points=max_points, seed=seed
            )
        else:
            if distance is None:
                distance = _distance_matrix(data)
            score = _silhouette(distance, labels)
        # Asking for more clusters than the data supports leaves some
        # empty; penalize so the sweep decreases past the true count
        # (the Fig 8 shape).
        results[k] = score * (populated / k)
    return results


def best_k(scores: Dict[int, float]) -> int:
    """The k with the global maximum silhouette score."""
    if not scores:
        raise ValueError("no scores given")
    return max(scores, key=lambda k: (scores[k], -k))
