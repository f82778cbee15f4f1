"""Per-feature HC_first prediction and F1 scoring (Fig 9, Table 3).

Each binary spatial feature is used on its own to predict a row's
measured HC_first among the tested hammer counts: the predictor maps
each feature value (0 or 1) to the majority HC_first class among rows
with that value.  Predictions are compared against the measurements to
build a confusion matrix and an F1 score (macro for the weak/strong
split Fig 9 and Table 3 score, support-weighted for 14 classes).  A
feature is considered strongly correlated when its F1 exceeds the
paper's empirically chosen 0.7 threshold.

Fig 9 and Table 3 score every feature at once with
:func:`feature_macro_f1`, a kernel over four counts per feature.  The
per-feature loop it replaced (:func:`predict_from_feature` +
:func:`f1_macro`) stays as its oracle: the tests and ``make
kernels-smoke`` require the two to agree with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.features import SpatialFeature

#: Table 3's threshold for a "strong" correlation.
STRONG_F1_THRESHOLD = 0.7


def confusion_matrix(
    actual: np.ndarray, predicted: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Confusion matrix over the union of observed classes.

    Returns ``(classes, matrix)`` with ``matrix[i, j]`` counting
    samples of actual class ``classes[i]`` predicted as ``classes[j]``.
    """
    actual = np.asarray(actual)
    predicted = np.asarray(predicted)
    if actual.shape != predicted.shape:
        raise ValueError("actual/predicted shapes differ")
    classes, inverse = np.unique(
        np.concatenate([actual, predicted]), return_inverse=True
    )
    k, n = len(classes), len(actual)
    counts = np.bincount(inverse[:n] * k + inverse[n:], minlength=k * k)
    return classes, counts.reshape(k, k).astype(np.int64, copy=False)


def f1_score_weighted(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Support-weighted mean of per-class F1 scores."""
    classes, matrix = confusion_matrix(actual, predicted)
    total = matrix.sum()
    if total == 0:
        raise ValueError("no samples")
    score = 0.0
    for i, _ in enumerate(classes):
        tp = matrix[i, i]
        fp = matrix[:, i].sum() - tp
        fn = matrix[i, :].sum() - tp
        support = matrix[i, :].sum()
        if tp == 0:
            f1 = 0.0
        else:
            precision = tp / (tp + fp)
            recall = tp / (tp + fn)
            f1 = 2 * precision * recall / (precision + recall)
        score += f1 * (support / total)
    return float(score)


@dataclass(frozen=True)
class FeatureCorrelation:
    """One feature's predictive power for HC_first."""

    feature: SpatialFeature
    f1: float


def predict_from_feature(
    feature_column: np.ndarray, measured: np.ndarray
) -> np.ndarray:
    """Majority-class prediction from a single binary feature.

    Ties go to the smallest class (``np.argmax`` over ``np.unique``'s
    sorted classes).
    """
    feature_column = np.asarray(feature_column)
    measured = np.asarray(measured)
    predictions = np.empty_like(measured)
    for value in (0, 1):
        mask = feature_column == value
        if not mask.any():
            continue
        values, counts = np.unique(measured[mask], return_counts=True)
        predictions[mask] = values[np.argmax(counts)]
    return predictions


def binarize_measured(measured: np.ndarray) -> np.ndarray:
    """Split rows into weak (1) / strong (0) halves at the median.

    The paper describes predicting HC_first "among 14 tested hammer
    counts" and reports F1 scores in the 0.5-0.8 range; a raw 14-class
    prediction from one binary feature cannot reach that range, so we
    interpret the scored quantity as the binarized weak/strong
    classification (below/above the module median), which reproduces
    the published score range.  The 14-class machinery remains
    available via :func:`predict_from_feature` + :func:`f1_score_weighted`.

    The threshold is the distinct value whose at-or-below fraction is
    nearest one half, the first (smallest) one on a tie.
    """
    measured = np.asarray(measured)
    values, counts = np.unique(measured, return_counts=True)
    if len(values) < 2:
        # Degenerate: every row measured identical; no weak half exists.
        return np.zeros(len(measured), dtype=np.int8)
    # count / n is the float ``np.mean(measured <= threshold)`` gives.
    at_or_below = np.cumsum(counts[:-1]) / len(measured)
    threshold = values[np.argmin(np.abs(at_or_below - 0.5))]
    return (measured <= threshold).astype(np.int8)


def f1_micro(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Micro-averaged F1, which for single-label data equals accuracy."""
    actual = np.asarray(actual)
    predicted = np.asarray(predicted)
    if actual.shape != predicted.shape:
        raise ValueError("actual/predicted shapes differ")
    if actual.size == 0:
        raise ValueError("no samples")
    return float(np.mean(actual == predicted))


def f1_macro(actual: np.ndarray, predicted: np.ndarray) -> float:
    """Unweighted mean of per-class F1 scores.

    This is the Fig 9 scorer: unlike accuracy it is not inflated by an
    imbalanced class split (a trivial majority-class predictor scores
    at most ~0.46), so a feature only crosses the paper's 0.7
    threshold with genuine predictive skill on *both* classes.
    """
    classes, matrix = confusion_matrix(actual, predicted)
    total = matrix.sum()
    if total == 0:
        raise ValueError("no samples")
    scores = []
    for i, _ in enumerate(classes):
        tp = matrix[i, i]
        fp = matrix[:, i].sum() - tp
        fn = matrix[i, :].sum() - tp
        if tp == 0:
            scores.append(0.0)
        else:
            precision = tp / (tp + fp)
            recall = tp / (tp + fn)
            scores.append(2 * precision * recall / (precision + recall))
    return float(np.mean(scores))


def _class_f1(tp: np.ndarray, fp: np.ndarray, fn: np.ndarray) -> np.ndarray:
    """One class's F1 per feature: :func:`f1_macro`'s float64 expression."""
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        f1 = 2 * precision * recall / (precision + recall)
    return np.where(tp == 0, 0.0, f1)


def feature_macro_f1(matrix: np.ndarray, weak: np.ndarray) -> np.ndarray:
    """Macro-F1 of every 0/1 feature column predicting a 0/1 target.

    The array-at-once form of ``f1_macro(weak, predict_from_feature(
    column, weak))`` per column, equal to it with ``==``.  The majority
    predictor and its 2x2 confusion matrix depend only on four counts
    per feature: weak and strong rows with the feature at 1 (``n11``,
    ``n10``) and at 0 (``n01``, ``n00``).  A feature value predicts weak
    only when its weak rows outnumber its strong ones; a tie goes to
    class 0, as :func:`predict_from_feature` sends it.  ``weak`` must
    hold both classes, as :func:`correlate_features` ensures.

    The counts come from ``np.count_nonzero`` over the (int8) matrix
    and its weak rows, so no wider copy of the matrix is made.
    """
    weak = np.asarray(weak, dtype=bool)
    n = len(weak)
    n_weak = np.count_nonzero(weak)
    ones = np.count_nonzero(matrix, axis=0)
    n11 = np.count_nonzero(matrix[weak], axis=0)
    n10 = ones - n11
    n01 = n_weak - n11
    n00 = (n - ones) - n01
    weak_if_1 = n11 > n10
    weak_if_0 = n01 > n00
    # Rows predicted weak, split by their actual class.
    weak_as_weak = np.where(weak_if_1, n11, 0) + np.where(weak_if_0, n01, 0)
    strong_as_weak = np.where(weak_if_1, n10, 0) + np.where(weak_if_0, n00, 0)
    weak_as_strong = n_weak - weak_as_weak
    strong_as_strong = (n - n_weak) - strong_as_weak
    f1_strong = _class_f1(strong_as_strong, weak_as_strong, strong_as_weak)
    f1_weak = _class_f1(weak_as_weak, strong_as_weak, weak_as_strong)
    return (f1_strong + f1_weak) / 2


def correlate_features(
    features: Sequence[SpatialFeature],
    matrix: np.ndarray,
    measured: np.ndarray,
) -> List[FeatureCorrelation]:
    """F1 score of every feature against measured HC_first.

    The Fig 9 / Table 3 configuration: the target is the weak/strong
    median split (:func:`binarize_measured`) and the score is macro-F1
    (:func:`feature_macro_f1`, the kernel form of :func:`f1_macro`).
    """
    matrix = np.asarray(matrix)
    measured = np.asarray(measured)
    if matrix.shape[0] != len(measured):
        raise ValueError("feature matrix and measurements must align")
    if matrix.shape[1] != len(features):
        raise ValueError("feature matrix and feature list must align")
    weak = binarize_measured(measured).astype(bool)
    if np.count_nonzero(weak) in (0, len(weak)):
        # No variation to predict: no feature can demonstrate skill.
        return [FeatureCorrelation(feature=f, f1=0.5) for f in features]
    return [
        FeatureCorrelation(feature=feature, f1=float(f1))
        for feature, f1 in zip(features, feature_macro_f1(matrix, weak))
    ]


def fraction_above_threshold(
    correlations: Sequence[FeatureCorrelation], thresholds: Sequence[float]
) -> Dict[float, float]:
    """Fig 9's curve: fraction of features with F1 above each threshold."""
    if not correlations:
        raise ValueError("no correlations given")
    f1s = np.array([c.f1 for c in correlations])
    return {
        float(t): float(np.mean(f1s > t)) for t in thresholds
    }


def strong_features(
    correlations: Sequence[FeatureCorrelation],
    threshold: float = STRONG_F1_THRESHOLD,
) -> List[FeatureCorrelation]:
    """Table 3's rows: features whose F1 exceeds the threshold."""
    return sorted(
        (c for c in correlations if c.f1 > threshold),
        key=lambda c: (-c.f1, c.feature),
    )
