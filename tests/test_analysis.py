"""Tests for clustering, feature extraction, and F1 correlation."""

import numpy as np
import pytest

from repro.analysis.clustering import best_k, kmeans_1d, silhouette_score_1d, sweep_k
from repro.analysis.correlation import (
    FeatureCorrelation,
    binarize_measured,
    confusion_matrix,
    correlate_features,
    f1_macro,
    f1_micro,
    f1_score_weighted,
    feature_macro_f1,
    fraction_above_threshold,
    predict_from_feature,
    strong_features,
)
from repro.analysis.features import SpatialFeature, extract_features
from repro.experiments import fig9_spatial_features, table3_features
from repro.experiments.common import ExperimentScale
from repro.faults.modules import FEATURE_CORRELATED_MODULES, MODULES, module_by_label
from repro.faults.variation import HC_GRID


class TestKMeans1d:
    def test_recovers_separated_clusters(self):
        data = np.concatenate([np.zeros(50), np.full(50, 10.0), np.full(50, 20.0)])
        labels, centroids = kmeans_1d(data, 3)
        assert len(np.unique(labels)) == 3
        assert sorted(np.round(centroids)) == [0, 10, 20]

    def test_single_cluster(self):
        labels, centroids = kmeans_1d(np.array([1.0, 2.0, 3.0]), 1)
        assert np.all(labels == 0)
        assert centroids[0] == pytest.approx(2.0)

    def test_deterministic(self):
        data = np.random.default_rng(0).normal(size=200)
        a, _ = kmeans_1d(data, 4)
        b, _ = kmeans_1d(data, 4)
        assert np.array_equal(a, b)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kmeans_1d(np.array([1.0]), 2)
        with pytest.raises(ValueError):
            kmeans_1d(np.array([1.0, 2.0]), 0)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            kmeans_1d(np.zeros((3, 3)), 2)


def loop_silhouette_score_1d(values, labels, *, max_points=2000, seed=0):
    """Reference silhouette: one point at a time, one cluster at a time."""
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
        missing = np.setdiff1d(unique, np.unique(lab[index]))
        if len(missing):
            extras = [np.where(lab == c)[0][0] for c in missing]
            index = np.concatenate([index, extras])
        data, lab = data[index], lab[index]

    distance = np.abs(data[:, None] - data[None, :])
    scores = np.zeros(len(data))
    cluster_masks = {c: lab == c for c in np.unique(lab)}
    for i in range(len(data)):
        own = cluster_masks[lab[i]]
        n_own = own.sum()
        if n_own <= 1:
            scores[i] = 0.0
            continue
        a = distance[i][own].sum() / (n_own - 1)
        b = np.inf
        for c, mask in cluster_masks.items():
            if c == lab[i]:
                continue
            b = min(b, distance[i][mask].mean())
        denominator = max(a, b)
        scores[i] = 0.0 if denominator == 0 else (b - a) / denominator
    return float(scores.mean())


def _random_silhouette_cases(scale, count=20):
    rng = np.random.default_rng(int(np.log10(scale)) + 100)
    cases = []
    for _ in range(count):
        n = int(rng.integers(2, 400))
        labels = rng.integers(0, int(rng.integers(2, 8)), n)
        labels[:2] = (0, 1)  # at least two clusters
        cases.append((rng.normal(size=n) * scale, labels, {}))
    return cases


_STEP_FEATURE = np.searchsorted(
    np.asarray([0, 64, 128, 200, 320, 450]), np.arange(512), side="right"
).astype(np.float64)
SILHOUETTE_CASES = {
    **{
        f"normal-x{scale:g}": _random_silhouette_cases(scale)
        for scale in (1e-3, 1.0, 1e3, 1e6)
    },
    # Fig 8's feature: an integer-valued step function, k-means labels.
    "integer-feature": [
        (_STEP_FEATURE, kmeans_1d(_STEP_FEATURE, k)[0], {}) for k in range(2, 10)
    ],
    "singleton-clusters": [
        (np.array([0.0, 5.0, 5.5, 6.0, 20.0]), np.array([0, 1, 1, 1, 2]), {}),
        (np.array([1.0, 2.0]), np.array([0, 1]), {}),
    ],
    # a == b == 0: the zero-denominator branch.
    "all-equal": [(np.full(40, 2.5), np.arange(40) % 2, {})],
    "subsampled": [
        (np.random.default_rng(5).normal(size=700),
         np.random.default_rng(6).integers(0, 4, 700), {"max_points": 300}),
        (np.concatenate([np.zeros(3000), np.full(5, 100.0)]),
         np.concatenate([np.zeros(3000), np.ones(5)]).astype(int),
         {"max_points": 100, "seed": 3}),
    ],
}


class TestSilhouette:
    def test_perfect_separation_scores_high(self):
        data = np.concatenate([np.zeros(40), np.full(40, 100.0)])
        labels = (data > 50).astype(int)
        assert silhouette_score_1d(data, labels) > 0.95

    def test_bad_clustering_scores_low(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=100)
        labels = rng.integers(0, 2, size=100)
        assert silhouette_score_1d(data, labels) < 0.3

    def test_requires_two_clusters(self):
        with pytest.raises(ValueError):
            silhouette_score_1d(np.arange(10.0), np.zeros(10, dtype=int))

    @pytest.mark.parametrize("case", sorted(SILHOUETTE_CASES))
    def test_matches_per_point_loop(self, case):
        """The per-cluster kernel equals the per-point loop exactly."""
        for values, labels, options in SILHOUETTE_CASES[case]:
            assert silhouette_score_1d(
                values, labels, **options
            ) == loop_silhouette_score_1d(values, labels, **options)

    def test_rejects_misaligned_labels(self):
        with pytest.raises(ValueError):
            silhouette_score_1d(np.arange(10.0), np.zeros(9, dtype=int))

    def test_subsampling_keeps_all_clusters(self):
        data = np.concatenate([np.zeros(3000), np.full(5, 100.0)])
        labels = (data > 50).astype(int)
        score = silhouette_score_1d(data, labels, max_points=100)
        assert score > 0.9

    def test_sweep_peaks_at_true_k(self):
        """The Fig 8 property: silhouette maximal at the true count."""
        data = np.concatenate([np.full(100, v * 10.0) for v in range(6)])
        scores = sweep_k(data, range(2, 12))
        assert best_k(scores) == 6

    @pytest.mark.parametrize("max_points", [5000, 300])
    def test_sweep_equals_per_k_silhouette(self, max_points):
        """One distance matrix per sweep (600 points <= 5000) and per-k
        subsamples (600 > 300) both equal scoring each k on its own."""
        data = np.concatenate([
            np.full(150, 0.0), np.full(250, 7.0), np.full(200, 20.0)
        ]) + np.random.default_rng(8).normal(size=600)
        k_values = range(1, 9)
        scores = sweep_k(data, k_values, max_points=max_points, seed=4)
        for k in k_values:
            labels, _ = kmeans_1d(data, k)
            populated = len(np.unique(labels))
            expected = (
                float("-inf") if populated < 2
                else silhouette_score_1d(
                    data, labels, max_points=max_points, seed=4
                ) * (populated / k)
            )
            assert scores[k] == expected, k

    def test_best_k_empty_rejected(self):
        with pytest.raises(ValueError):
            best_k({})


class TestFeatureExtraction:
    def test_feature_count_and_shape(self):
        features, matrix, banks = extract_features(256, 64, (1, 4))
        assert matrix.shape == (512, len(features))
        assert set(banks) == {1, 4}

    def test_kinds_present(self):
        features, _, _ = extract_features(256, 64, (1,))
        kinds = {f.kind for f in features}
        assert kinds == {"bank", "row", "subarray", "distance"}

    def test_row_bits_correct(self):
        features, matrix, _ = extract_features(256, 64, (1,))
        row_bit_0 = [i for i, f in enumerate(features)
                     if f.kind == "row" and f.bit == 0][0]
        assert list(matrix[:4, row_bit_0]) == [0, 1, 0, 1]

    def test_subarray_bit(self):
        features, matrix, _ = extract_features(256, 64, (1,))
        sa_bit_0 = [i for i, f in enumerate(features)
                    if f.kind == "subarray" and f.bit == 0][0]
        assert matrix[0, sa_bit_0] == 0
        assert matrix[64, sa_bit_0] == 1
        assert matrix[128, sa_bit_0] == 0

    def test_distance_is_min_to_edge(self):
        features, matrix, _ = extract_features(256, 64, (1,))
        dist_bit_0 = [i for i, f in enumerate(features)
                      if f.kind == "distance" and f.bit == 0][0]
        # Row 0 has distance 0; row 1 distance 1; row 63 distance 0.
        assert matrix[0, dist_bit_0] == 0
        assert matrix[1, dist_bit_0] == 1
        assert matrix[63, dist_bit_0] == 0

    def test_feature_short_name(self):
        assert SpatialFeature("row", 7).short_name == "Ro[7]"
        assert SpatialFeature("distance", 7).short_name == "Dist[7]"

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            SpatialFeature("column", 0)
        with pytest.raises(ValueError):
            extract_features(0, 64, (1,))

    def test_memoized_matrix_is_read_only_and_list_unshared(self):
        features, matrix, banks = extract_features(256, 64, (1, 4))
        with pytest.raises(ValueError):
            matrix[0, 0] = 1
        with pytest.raises(ValueError):
            banks[0] = 0
        features.clear()
        again, matrix_again, _ = extract_features(256, 64, (1, 4))
        assert matrix_again is matrix
        assert len(again) == matrix.shape[1]


def loop_confusion_matrix(actual, predicted):
    """Reference confusion matrix: count one sample at a time."""
    classes = np.unique(np.concatenate([actual, predicted]))
    index = {c: i for i, c in enumerate(classes)}
    matrix = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for a, p in zip(actual, predicted):
        matrix[index[a], index[p]] += 1
    return classes, matrix


_RNG = np.random.default_rng(16)
CONFUSION_CASES = {
    "random-ints": (_RNG.integers(0, 6, 500), _RNG.integers(2, 9, 500)),
    "hc-grid-floats": (
        _RNG.choice(np.asarray(HC_GRID, dtype=np.float64), 700),
        _RNG.choice(np.asarray(HC_GRID, dtype=np.float64), 700),
    ),
    "single-class": (np.full(9, 7, dtype=np.int8), np.full(9, 7, dtype=np.int8)),
    "empty": (np.array([]), np.array([])),
}


class TestF1Machinery:
    def test_confusion_matrix(self):
        actual = np.array([0, 0, 1, 1])
        predicted = np.array([0, 1, 1, 1])
        classes, matrix = confusion_matrix(actual, predicted)
        assert list(classes) == [0, 1]
        assert matrix[0, 0] == 1 and matrix[0, 1] == 1 and matrix[1, 1] == 2

    @pytest.mark.parametrize("case", sorted(CONFUSION_CASES))
    def test_confusion_matrix_matches_per_sample_count(self, case):
        actual, predicted = CONFUSION_CASES[case]
        classes, matrix = confusion_matrix(actual, predicted)
        want_classes, want_matrix = loop_confusion_matrix(actual, predicted)
        assert classes.dtype == want_classes.dtype
        assert np.array_equal(classes, want_classes)
        assert matrix.dtype == np.int64
        assert matrix.shape == want_matrix.shape
        assert np.array_equal(matrix, want_matrix)

    def test_confusion_matrix_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0, 1, 1]), np.array([0, 1]))

    def test_f1_perfect(self):
        y = np.array([0, 1, 2, 0, 1, 2])
        assert f1_score_weighted(y, y) == pytest.approx(1.0)
        assert f1_micro(y, y) == pytest.approx(1.0)

    def test_f1_micro_is_accuracy(self):
        actual = np.array([0, 0, 1, 1])
        predicted = np.array([0, 1, 1, 1])
        assert f1_micro(actual, predicted) == pytest.approx(0.75)

    def test_predict_from_feature_majority(self):
        feature = np.array([0, 0, 0, 1, 1, 1])
        target = np.array([5, 5, 7, 9, 9, 9])
        predicted = predict_from_feature(feature, target)
        assert list(predicted) == [5, 5, 5, 9, 9, 9]

    def test_binarize_balanced(self):
        measured = np.array([1, 1, 2, 2, 3, 3, 4, 4])
        target = binarize_measured(measured)
        assert target.sum() == 4

    def test_binarize_degenerate(self):
        measured = np.full(10, 42)
        target = binarize_measured(measured)
        assert len(np.unique(target)) == 1

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 511, 512])
    def test_binarize_matches_threshold_loop(self, n):
        """The one-pass split equals the per-threshold loop on grid and
        continuous values, all-equal and two-valued inputs, odd and
        even lengths; ties between thresholds go to the first."""
        rng = np.random.default_rng(n)
        grid = np.asarray(HC_GRID)
        cases = [
            grid[rng.integers(0, len(grid), n)],
            grid[rng.integers(3, 6, n)],
            rng.random(n) * 1e-2,
            np.full(n, 7.5),
            np.where(rng.random(n) < 0.5, 3, 9),
            np.arange(n)[::-1],
        ]
        for measured in cases:
            got = binarize_measured(measured)
            want = loop_binarize_measured(measured)
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist(), measured

    def test_binarize_tie_goes_to_first_threshold(self):
        # Thresholds 1 and 2 leave a quarter and three quarters of the
        # rows at or below them, equally far from half: 1, the first, wins.
        measured = np.array([1, 2, 2, 3])
        assert binarize_measured(measured).tolist() == [1, 0, 0, 0]
        assert loop_binarize_measured(measured).tolist() == [1, 0, 0, 0]

    def test_fraction_above_threshold(self):
        correlations = [
            FeatureCorrelation(SpatialFeature("row", b), f1)
            for b, f1 in enumerate((0.3, 0.6, 0.9))
        ]
        fractions = fraction_above_threshold(correlations, [0.0, 0.5, 0.8, 1.0])
        assert fractions[0.0] == pytest.approx(1.0)
        assert fractions[0.5] == pytest.approx(2 / 3)
        assert fractions[0.8] == pytest.approx(1 / 3)
        assert fractions[1.0] == 0.0


def measured_for(label, rows=2048, banks=(1, 4)):
    spec = module_by_label(label)
    measured = np.concatenate(
        [
            spec.generate_field(bank=b, rows_per_bank=rows, seed=0).measured_hc_first()
            for b in banks
        ]
    )
    params = spec.variation_params(rows)
    features, matrix, _ = extract_features(rows, params.subarray_rows, banks)
    return features, matrix, measured


def loop_binarize_measured(measured):
    """The per-threshold scan ``binarize_measured`` replaced."""
    measured = np.asarray(measured)
    values = np.unique(measured)
    best_threshold = None
    best_imbalance = 1.0
    for threshold in values[:-1]:
        p = float(np.mean(measured <= threshold))
        if abs(p - 0.5) < best_imbalance:
            best_threshold, best_imbalance = threshold, abs(p - 0.5)
    if best_threshold is None:
        return np.zeros(len(measured), dtype=np.int8)
    return (measured <= best_threshold).astype(np.int8)


def loop_feature_macro_f1(matrix, target):
    """The per-feature loop ``feature_macro_f1`` replaced."""
    return [
        f1_macro(target, predict_from_feature(matrix[:, column], target))
        for column in range(matrix.shape[1])
    ]


def _hand_case(columns, target):
    return (
        np.asarray(columns, dtype=np.int8).T.copy(),
        np.asarray(target, dtype=np.int8),
    )


#: name -> (matrix, 0/1 target), one feature column per case.
F1_HAND_CASES = {
    # Feature 1 ties (one weak, one strong), feature 0 has a weak
    # majority: the tie must go to class 0 (strong).
    "tie-at-1": _hand_case([[1, 1, 0, 0, 0]], [1, 0, 1, 1, 0]),
    # Both values tie (n11 == n10 and n01 == n00).
    "both-tie": _hand_case([[1, 1, 0, 0, 0, 0]], [1, 0, 1, 0, 1, 0]),
    "all-0": _hand_case([[0, 0, 0, 0, 0]], [1, 0, 0, 1, 0]),
    "all-1": _hand_case([[1, 1, 1, 1, 1]], [1, 1, 0, 1, 0]),
    "equals-target": _hand_case([[1, 0, 0, 1, 1]], [1, 0, 0, 1, 1]),
    "complement": _hand_case([[0, 1, 1, 0, 0]], [1, 0, 0, 1, 1]),
    # Strong everywhere predicted: the weak class has tp = 0.
    "weak-tp-0": _hand_case([[1, 0, 1, 0, 1, 0]], [1, 0, 0, 0, 0, 0]),
}


class TestFeatureMacroF1:
    """The count kernel against the per-feature loop, with ``==``."""

    @pytest.mark.parametrize("case", sorted(F1_HAND_CASES))
    def test_hand_cases_match_loop(self, case):
        matrix, target = F1_HAND_CASES[case]
        got = feature_macro_f1(matrix, target)
        assert got.tolist() == loop_feature_macro_f1(matrix, target)

    def test_hand_case_values(self):
        score = {
            case: float(feature_macro_f1(*F1_HAND_CASES[case])[0])
            for case in F1_HAND_CASES
        }
        # Predictions [0, 0, 1, 1, 1]: F1 2/3 (weak) and 1/2 (strong).
        assert score["tie-at-1"] == pytest.approx(7 / 12)
        assert score["equals-target"] == score["complement"] == 1.0
        # One class predicted everywhere: its F1 alone, halved.
        assert score["weak-tp-0"] == pytest.approx((2 * (5 / 6) / (11 / 6)) / 2)
        assert score["all-0"] == pytest.approx((2 * 0.6 / 1.6) / 2)

    @pytest.mark.parametrize("label, rows, banks", [
        ("S0", 2048, (1, 4)),
        ("S3", 2048, (1, 4)),
        ("H1", 1024, (1, 4)),
        ("M1", 512, (0, 1, 2, 3)),
        ("S4", 512, (1,)),
    ])
    def test_extracted_features_match_loop(self, label, rows, banks):
        """Fig 9's matrices: bank, row, subarray and distance bits."""
        features, matrix, measured = measured_for(label, rows=rows, banks=banks)
        target = binarize_measured(measured)
        assert matrix.dtype == np.int8
        got = feature_macro_f1(matrix, target)
        assert got.tolist() == loop_feature_macro_f1(matrix, target)
        assert [c.f1 for c in correlate_features(features, matrix, measured)] == (
            loop_feature_macro_f1(matrix, target)
        )

    def test_random_columns_match_loop(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(2, 200))
            matrix = (
                rng.random((n, 8)) < rng.random(8)
            ).astype(np.int8)
            target = (rng.random(n) < rng.random()).astype(np.int8)
            target[:2] = (0, 1)
            got = feature_macro_f1(matrix, target)
            assert got.tolist() == loop_feature_macro_f1(matrix, target)

    def test_constant_measurement_scores_half(self):
        features, matrix, _ = extract_features(256, 64, (1,))
        correlations = correlate_features(features, matrix, np.full(256, 42))
        assert [c.f1 for c in correlations] == [0.5] * len(features)


class TestCorrelationMemo:
    def test_table3_reuses_fig9_scoring(self, monkeypatch):
        """Fig 9 then Table 3 in one process score each module once."""
        calls = []

        def counting(*args):
            calls.append(args)
            return correlate_features(*args)

        monkeypatch.setattr(fig9_spatial_features, "_CORRELATIONS", {})
        monkeypatch.setattr(fig9_spatial_features, "correlate_features", counting)
        scale = ExperimentScale(rows_per_bank=512, banks=(1, 4), seed=26)
        fig9 = fig9_spatial_features.run(scale)
        table3 = table3_features.run(scale)
        assert len(calls) == len(scale.modules) == 15
        assert table3.strong == {
            label: strong_features(correlations)
            for label, correlations in fig9.correlations.items()
        }


class TestTakeaway6:
    """Only S0/S1/S3/S4 have strongly correlated spatial features."""

    @pytest.mark.parametrize("label", FEATURE_CORRELATED_MODULES)
    def test_correlated_modules_have_strong_features(self, label):
        features, matrix, measured = measured_for(label)
        correlations = correlate_features(features, matrix, measured)
        strong = strong_features(correlations)
        assert strong, f"{label} should expose F1 > 0.7 features"
        assert all(c.f1 <= 0.80 for c in correlations), (
            "no feature should exceed 0.8 (paper observation)"
        )

    @pytest.mark.parametrize(
        "label", sorted(set(MODULES) - set(FEATURE_CORRELATED_MODULES))
    )
    def test_uncorrelated_modules_have_none(self, label):
        features, matrix, measured = measured_for(label, rows=1024)
        correlations = correlate_features(features, matrix, measured)
        assert not strong_features(correlations), (
            f"{label} should have no F1 > 0.7 feature"
        )

    def test_s0_strong_features_match_table3_drivers(self):
        features, matrix, measured = measured_for("S0")
        strong = strong_features(correlate_features(features, matrix, measured))
        names = {c.feature.short_name for c in strong}
        assert "Ro[7]" in names
        assert "Sa[0]" in names
