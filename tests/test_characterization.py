"""Tests for the characterization pipeline (Algorithm 1)."""

import numpy as np
import pytest

from repro.characterization.aging_study import AgingStudy
from repro.characterization.metrics import (
    bank_agreement_ratio,
    box_stats,
    coefficient_of_variation_pct,
    hc_first_histogram,
    normalize_to_minimum,
)
from repro.characterization.rowpress import T_AGG_ON_SWEEP_NS, RowPressStudy
from repro.characterization.runner import (
    CharacterizationConfig,
    CharacterizationRunner,
)
from repro.faults.modules import module_by_label
from repro.faults.variation import HC_GRID

from tests.conftest import make_tiny_spec


class TestMetrics:
    def test_box_stats_of_known_distribution(self):
        values = np.arange(1, 101, dtype=float)
        stats = box_stats(values)
        assert stats.median == pytest.approx(50.5)
        assert stats.mean == pytest.approx(50.5)
        assert stats.q1 < stats.median < stats.q3
        assert stats.minimum == 1 and stats.maximum == 100
        assert stats.count == 100

    def test_box_whiskers_within_range(self):
        rng = np.random.default_rng(0)
        values = rng.normal(10, 2, size=1000)
        stats = box_stats(values)
        assert stats.whisker_low >= stats.q1 - 1.5 * stats.iqr
        assert stats.whisker_high <= stats.q3 + 1.5 * stats.iqr

    def test_cv(self):
        values = np.array([9.0, 10.0, 11.0])
        expected = 100.0 * values.std() / values.mean()
        assert coefficient_of_variation_pct(values) == pytest.approx(expected)

    def test_cv_rejects_zero_mean(self):
        with pytest.raises(ValueError):
            coefficient_of_variation_pct(np.array([-1.0, 1.0]))

    def test_histogram_sums_to_one(self):
        measured = np.array([1024, 1024, 2048, 4096])
        hist = hc_first_histogram(measured, [1024, 2048, 4096])
        assert sum(hist.values()) == pytest.approx(1.0)
        assert hist[1024] == pytest.approx(0.5)

    def test_normalize_to_minimum(self):
        out = normalize_to_minimum(np.array([2.0, 4.0, 8.0]))
        assert list(out) == [1.0, 2.0, 4.0]
        with pytest.raises(ValueError):
            normalize_to_minimum(np.array([0.0, 1.0]))

    def test_bank_agreement(self):
        assert bank_agreement_ratio({1: 1.0, 4: 1.02}) == pytest.approx(1.02)
        with pytest.raises(ValueError):
            bank_agreement_ratio({})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            box_stats(np.array([]))
        with pytest.raises(ValueError):
            hc_first_histogram(np.array([]), [1024])


def small_config(**overrides):
    defaults = dict(rows_per_bank=512, banks=(1, 4), iterations=1, seed=2)
    defaults.update(overrides)
    return CharacterizationConfig(**defaults)


class TestAnalyticRunner:
    def test_full_run_structure(self):
        spec = module_by_label("S0")
        runner = CharacterizationRunner(spec, small_config())
        result = runner.run()
        assert set(result.banks) == {1, 4}
        profile = result.banks[1]
        assert profile.rows == 512
        assert set(np.unique(profile.measured_hc_first)).issubset(set(HC_GRID))

    def test_measured_matches_ground_truth_snapping(self):
        spec = module_by_label("S0")
        runner = CharacterizationRunner(spec, small_config(banks=(1,)))
        profile = runner.characterize_bank(1)
        truth = runner.model.field(1).measured_hc_first()
        assert np.array_equal(profile.measured_hc_first, truth)

    def test_wcdp_matches_model(self):
        spec = module_by_label("S0")
        runner = CharacterizationRunner(spec, small_config(banks=(1,)))
        profile = runner.characterize_bank(1)
        truth = runner.model.field(1).wcdp_index
        assert np.array_equal(profile.wcdp_index, truth)

    def test_ber_at_128k_positive(self):
        spec = module_by_label("M0")
        runner = CharacterizationRunner(spec, small_config(banks=(1,)))
        profile = runner.characterize_bank(1)
        # Every M0 row flips by 128K (hc_max = 40K << 128K).
        assert np.all(profile.ber_at_128k > 0)

    def test_iteration_worst_case_grows_ber(self):
        spec = module_by_label("M0")
        one = CharacterizationRunner(
            spec, small_config(banks=(1,), iterations=1)
        ).characterize_bank(1)
        ten = CharacterizationRunner(
            spec, small_config(banks=(1,), iterations=10)
        ).characterize_bank(1)
        assert ten.ber_at_128k.mean() >= one.ber_at_128k.mean()
        # ... but only by the small iteration-variation factor.
        assert ten.ber_at_128k.mean() <= one.ber_at_128k.mean() * 1.15

    def test_banks_similar_rows_vary(self):
        """Takeaways 1/3: variation across rows >> across banks."""
        spec = module_by_label("S1")
        result = CharacterizationRunner(
            spec, small_config(rows_per_bank=1024, banks=(1, 4, 10, 15))
        ).run()
        ratio = bank_agreement_ratio(result.per_bank_mean_ber())
        assert ratio < 1.05
        within = coefficient_of_variation_pct(result.banks[1].ber_at_128k)
        assert within > 1.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CharacterizationConfig(mode="magic")
        with pytest.raises(ValueError):
            CharacterizationConfig(iterations=0)
        with pytest.raises(ValueError):
            CharacterizationConfig(banks=())


class TestPlatformRunnerEquivalence:
    def test_platform_and_analytic_agree(self):
        """The command-faithful path and the closed form must agree on
        measured HC_first and on BER@max for a sample of rows."""
        spec = make_tiny_spec()
        grid = (16, 24, 32, 48, 64, 96, 160)
        rows = [10, 33, 40]
        analytic = CharacterizationRunner(
            spec,
            CharacterizationConfig(
                rows_per_bank=128, banks=(0,), hc_grid=grid, seed=5,
                mode="analytic",
            ),
        ).characterize_bank(0)
        platform = CharacterizationRunner(
            spec,
            CharacterizationConfig(
                rows_per_bank=128, banks=(0,), hc_grid=grid, seed=5,
                mode="platform",
            ),
        ).characterize_bank(0, rows=rows)
        # Subset runs size their arrays to the measured rows and carry
        # the bank row index of each slot.
        assert platform.rows == len(rows)
        assert list(platform.row_indices) == rows
        assert platform.bank_rows == 128
        hc_max = max(grid)
        for slot, row in enumerate(rows):
            assert (
                platform.measured_hc_first[slot]
                == analytic.measured_hc_first[row]
            )
            assert platform.ber_by_hc[hc_max][slot] == pytest.approx(
                analytic.ber_by_hc[hc_max][row], abs=2e-5
            )


class TestRowPressStudy:
    def test_hc_first_decreases_with_t_agg_on(self):
        """Obsv 10: longer tAggOn means earlier bitflips."""
        spec = module_by_label("H2")
        study = RowPressStudy(spec, small_config(banks=(1,)))
        results = study.run()
        boxes = RowPressStudy.hc_first_boxes(results)
        means = [boxes[t].mean for t in T_AGG_ON_SWEEP_NS]
        assert means[0] > means[1] > means[2]

    def test_variation_remains_at_long_t_agg_on(self):
        """Obsv 11: large CV even at tAggOn = 2 us."""
        spec = module_by_label("H2")
        study = RowPressStudy(spec, small_config(banks=(1,)))
        results = study.run()
        cvs = RowPressStudy.hc_first_cv_pct(results)
        assert cvs[2000.0] > 10.0


class TestAgingStudy:
    def test_aging_only_weakens(self):
        spec = module_by_label("H3")
        study = AgingStudy(spec, small_config(rows_per_bank=4096, banks=(1,)))
        result = study.run(bank=1)
        assert np.all(result.after <= result.before)

    def test_some_rows_weaken(self):
        spec = module_by_label("H3")
        study = AgingStudy(spec, small_config(rows_per_bank=8192, banks=(1,)))
        result = study.run(bank=1)
        assert result.weakened_fraction() > 0

    def test_transitions_normalized(self):
        spec = module_by_label("H3")
        study = AgingStudy(spec, small_config(rows_per_bank=4096, banks=(1,)))
        result = study.run(bank=1)
        transitions = result.transitions()
        from collections import defaultdict

        per_before = defaultdict(float)
        for (b, _), fraction in transitions.items():
            per_before[b] += fraction
        for total in per_before.values():
            assert total == pytest.approx(1.0)

    def test_strongest_rows_stable(self):
        spec = module_by_label("H3")
        study = AgingStudy(spec, small_config(rows_per_bank=8192, banks=(1,)))
        result = study.run(bank=1)
        strongest = result.before == result.before.max()
        if result.before.max() == 128 * 1024:
            assert np.all(result.after[strongest] == result.before[strongest])
