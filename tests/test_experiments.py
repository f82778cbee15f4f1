"""Integration tests: the per-figure experiment harnesses.

Each test runs an experiment at a reduced scale and asserts the
paper's corresponding observation/takeaway holds in the regenerated
data.  These are the repository's end-to-end checks.
"""

import numpy as np
import pytest

from repro.experiments import (
    fig3_ber_distribution,
    fig4_ber_location,
    fig5_hcfirst_distribution,
    fig6_hcfirst_location,
    fig7_rowpress,
    fig8_subarray_silhouette,
    fig9_spatial_features,
    fig10_aging,
    fig12_performance,
    sec64_hardware_cost,
    table3_features,
    table5_modules,
)
from repro.experiments.common import ExperimentScale
from repro.faults.modules import FEATURE_CORRELATED_MODULES

SMALL = ExperimentScale(rows_per_bank=1024, banks=(1, 4), seed=1)
# Feature analysis needs the default row count: address-bit semantics
# (and thus the calibrated F1 scores) depend on the bank size.
FEATURE_SCALE = ExperimentScale(rows_per_bank=2048, banks=(1, 4), seed=1)
ONE_MODULE = ExperimentScale(
    rows_per_bank=1024, banks=(1, 4), modules=("H1", "M1", "S0"), seed=1
)


class TestFig3:
    def test_observation_1_rows_vary(self):
        result = fig3_ber_distribution.run(ONE_MODULE)
        # M1 has the largest CV of the tested trio (8.08%).
        assert result.cv_pct["M1"] > result.cv_pct["H1"]
        assert result.cv_pct["M1"] == pytest.approx(8.08, rel=0.2)

    def test_observation_2_banks_agree(self):
        result = fig3_ber_distribution.run(ONE_MODULE)
        for label, ratio in result.bank_agreement.items():
            assert ratio < 1.05, f"{label} banks should agree"

    def test_observation_3_modules_differ(self):
        result = fig3_ber_distribution.run(ONE_MODULE)
        means = {
            label: result.boxes[(label, 1)].mean
            for label in ("H1", "M1", "S0")
        }
        assert means["H1"] > 10 * means["S0"] > 10 * means["M1"] / 10

    def test_render(self):
        result = fig3_ber_distribution.run(ONE_MODULE)
        text = result.render()
        assert "Fig 3" in text and "CV" in text


class TestFig4:
    def test_periodic_structure_visible(self):
        result = fig4_ber_location.run(ONE_MODULE)
        for label, curve in result.curves.items():
            assert curve.peak_to_trough() > 1.005
        # The high-CV module shows the strongest spatial structure.
        assert result.curves["M1"].peak_to_trough() > 1.2

    def test_m1_chunk_is_hotter(self):
        """Obsv 5: M1's rows at 3-12% relative location are weaker."""
        result = fig4_ber_location.run(ONE_MODULE, n_bins=50)
        curve = result.curves["M1"]
        chunk = curve.mean[(curve.centers >= 0.03) & (curve.centers < 0.12)]
        rest = curve.mean[curve.centers >= 0.2]
        assert chunk.mean() > rest.mean() * 1.1

    def test_render(self):
        assert "Fig 4" in fig4_ber_location.run(ONE_MODULE).render()


class TestFig5:
    def test_minima_match_table5(self):
        result = fig5_hcfirst_distribution.run(ONE_MODULE)
        for label in ONE_MODULE.modules:
            measured = result.minima[label]
            paper = result.paper_minima[label]
            # Small scaled banks may miss the rare weakest rows by one
            # grid step; they must never be weaker than the paper min.
            assert measured >= paper
            assert measured <= paper * 2.1

    def test_histogram_normalized(self):
        result = fig5_hcfirst_distribution.run(ONE_MODULE)
        for hist in result.histograms.values():
            assert sum(hist.values()) == pytest.approx(1.0)

    def test_render(self):
        assert "Fig 5" in fig5_hcfirst_distribution.run(ONE_MODULE).render()


class TestFig6:
    def test_uncorrelated_modules_irregular(self):
        result = fig6_hcfirst_location.run(ONE_MODULE)
        assert abs(result.autocorrelation["H1"]) < 0.15
        assert abs(result.autocorrelation["M1"]) < 0.15

    def test_observation_8_large_spread(self):
        result = fig6_hcfirst_location.run(ONE_MODULE)
        assert result.spread["H1"] > 4.0

    def test_render(self):
        assert "Fig 6" in fig6_hcfirst_location.run(ONE_MODULE).render()


class TestFig7:
    def test_observation_10_hcfirst_drops(self):
        result = fig7_rowpress.run(ONE_MODULE)
        for mfr in ("H", "M", "S"):
            means = [result.boxes[(mfr, t)].mean for t in (36.0, 500.0, 2000.0)]
            assert means[0] > means[1] > means[2]

    def test_order_of_magnitude_reduction(self):
        result = fig7_rowpress.run(ONE_MODULE)
        for mfr in ("H", "M", "S"):
            assert 4.0 < result.reduction_factor(mfr) < 20.0

    def test_observation_11_variation_remains(self):
        result = fig7_rowpress.run(ONE_MODULE)
        assert result.cv_pct[("H1", 2000.0)] > 10.0


class TestFig8:
    def test_inferred_counts_match_geometry(self):
        scale = ExperimentScale(rows_per_bank=512, banks=(0,), seed=2)
        result = fig8_subarray_silhouette.run(scale, modules=("S0", "S3"))
        for label, inference in result.inferences.items():
            assert inference.inferred_k == result.true_subarrays[label]

    def test_silhouette_decreases_past_peak(self):
        scale = ExperimentScale(rows_per_bank=512, banks=(0,), seed=2)
        result = fig8_subarray_silhouette.run(scale, modules=("S0",))
        scores = result.inferences["S0"].silhouette_by_k
        peak = result.inferences["S0"].inferred_k
        tail = [scores[k] for k in sorted(scores) if k >= peak]
        assert all(a >= b - 1e-9 for a, b in zip(tail, tail[1:]))


class TestFig9:
    def test_takeaway_6(self):
        result = fig9_spatial_features.run(FEATURE_SCALE)
        strong = result.modules_with_strong_features()
        assert set(strong) == set(FEATURE_CORRELATED_MODULES)

    def test_no_feature_above_08(self):
        result = fig9_spatial_features.run(FEATURE_SCALE)
        assert result.max_f1() <= 0.80

    def test_render(self):
        assert "Fig 9" in fig9_spatial_features.run(FEATURE_SCALE).render()


class TestFig10:
    def test_observations_12_13(self):
        scale = ExperimentScale(rows_per_bank=8192, banks=(1,), seed=0)
        result = fig10_aging.run(scale)
        assert result.study.weakened_fraction() > 0
        transitions = result.study.transitions()
        for (before, after), _ in transitions.items():
            assert after <= before
        strongest = 128 * 1024
        if (strongest, strongest) in transitions:
            assert transitions[(strongest, strongest)] == pytest.approx(1.0)

    def test_render(self):
        scale = ExperimentScale(rows_per_bank=2048, banks=(1,), seed=0)
        assert "Fig 10" in fig10_aging.run(scale).render()


TINY_PERF = ExperimentScale(
    rows_per_bank=1024,
    banks=(1, 4),
    n_mixes=1,
    requests_per_core=1200,
    hc_first_values=(1024, 64),
    svard_profiles=("S0",),
    seed=3,
)


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12_performance.run(TINY_PERF, defenses=("PARA", "RRS"))

    def test_overhead_grows_at_low_thresholds(self, result):
        for defense in ("PARA", "RRS"):
            high = result.weighted_speedup(defense, "No Svärd", 1024)
            low = result.weighted_speedup(defense, "No Svärd", 64)
            assert low < high

    def test_takeaway_8_svard_improves(self, result):
        for defense in ("PARA", "RRS"):
            assert result.improvement(defense, "Svärd-S0", 64) > 1.1

    def test_metrics_consistent(self, result):
        for key, metrics in result.metrics.items():
            assert metrics.weighted_speedup > 0
            assert metrics.harmonic_speedup > 0
            assert metrics.max_slowdown > 0

    def test_render(self, result):
        text = result.render()
        assert "weighted_speedup" in text and "max_slowdown" in text


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self, fig13_parity_result):
        return fig13_parity_result

    def test_adversaries_cause_slowdown(self, result):
        assert result.raw_slowdown[("Hydra", "No Svärd")] > 1.2
        assert result.raw_slowdown[("RRS", "No Svärd")] > 2.0

    def test_takeaway_9_svard_mitigates(self, result):
        assert result.normalized_slowdown[("Hydra", "Svärd-S0")] < 1.0
        assert result.normalized_slowdown[("RRS", "Svärd-S0")] < 1.0

    def test_render(self, result):
        assert "Fig 13" in result.render()


class TestTables:
    def test_table3_matches_paper_modules(self):
        result = table3_features.run(FEATURE_SCALE)
        with_strong = {label for label, f in result.strong.items() if f}
        assert with_strong == set(FEATURE_CORRELATED_MODULES)
        for label in with_strong:
            assert 0.65 < result.average_f1(label) < 0.80

    def test_table5_registry(self):
        result = table5_modules.run(ONE_MODULE)
        row = result.rows["S0"]
        assert row.vendor == "Samsung"
        assert row.paper_min == 32 * 1024
        assert row.measured_min >= row.paper_min
        assert row.measured_avg == pytest.approx(row.paper_avg, rel=0.12)

    def test_sec64(self):
        result = sec64_hardware_cost.run()
        assert "0.86%" in result.render()
        assert result.model.cpu_area_overhead_fraction() == pytest.approx(
            0.0086, rel=0.02
        )
