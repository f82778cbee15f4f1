"""Tests for the Svärd mechanism: profiles, binning, metadata, area."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.characterization.runner import (
    CharacterizationConfig,
    CharacterizationRunner,
)
from repro.core.area_model import (
    SvardAreaModel,
    in_dram_overhead_fraction,
    mc_table_access_latency_ns,
    mc_table_area_mm2,
)
from repro.core.binning import MAX_BINS, VulnerabilityBins
from repro.core.profile import VulnerabilityProfile
from repro.core.svard import InDramStore, Svard
from repro.faults.modules import module_by_label


@pytest.fixture
def profile():
    return VulnerabilityProfile.from_ground_truth(
        module_by_label("S0"), banks=(1, 4), rows_per_bank=1024, seed=0
    )


class TestVulnerabilityProfile:
    def test_worst_case(self, profile):
        expected = min(profile.values(b).min() for b in profile.banks)
        assert profile.worst_case == expected

    def test_from_characterization(self):
        spec = module_by_label("M0")
        runner = CharacterizationRunner(
            spec,
            CharacterizationConfig(rows_per_bank=512, banks=(1,), seed=0),
        )
        profile = VulnerabilityProfile.from_characterization(runner.run())
        assert profile.module_label == "M0"
        assert profile.rows_per_bank == 512

    def test_scaling_preserves_shape(self, profile):
        scaled = profile.scaled_to_worst_case(64.0)
        assert scaled.worst_case == pytest.approx(64.0)
        original = profile.values(1)
        new = scaled.values(1)
        ratio = new / original
        assert np.allclose(ratio, ratio[0])

    def test_scaling_rejects_nonpositive(self, profile):
        with pytest.raises(ValueError):
            profile.scaled_to_worst_case(0.0)

    def test_row_lookup_wraps(self, profile):
        n = profile.rows_per_bank
        assert profile.hc_first(1, 5) == profile.hc_first(1, n + 5)

    def test_tiling(self, profile):
        tiled = profile.tiled_to(4096, banks=range(16))
        assert len(tiled.banks) == 16
        assert tiled.rows_per_bank == 4096
        assert tiled.worst_case == profile.worst_case

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VulnerabilityProfile(module_label="X", per_bank={})
        with pytest.raises(ValueError):
            VulnerabilityProfile(
                module_label="X", per_bank={0: np.array([0.0, 1.0])}
            )


class TestVulnerabilityBins:
    def test_geometric_construction(self):
        bins = VulnerabilityBins.geometric(64.0, 4096.0, 8)
        assert bins.n_bins == 8
        assert bins.edges[0] == pytest.approx(64.0)
        assert bins.edges[-1] < 4096.0

    def test_max_16_bins(self):
        with pytest.raises(ValueError):
            VulnerabilityBins.geometric(1.0, 100.0, 17)

    def test_threshold_is_lower_edge(self):
        bins = VulnerabilityBins.geometric(100.0, 1600.0, 4)
        value = bins.edges[2] * 1.01
        assert bins.threshold_of(bins.bin_of(value)) <= value

    def test_weak_values_clamp_to_bin_zero(self):
        bins = VulnerabilityBins.geometric(100.0, 1600.0, 4)
        assert bins.bin_of(50.0) == 0

    def test_bin_ids_vectorized_matches_scalar(self):
        bins = VulnerabilityBins.geometric(64.0, 2048.0, 16)
        values = np.geomspace(50, 3000, 40)
        vector = bins.bin_ids(values)
        scalar = [bins.bin_of(v) for v in values]
        assert list(vector) == scalar

    def test_four_bits(self):
        bins = VulnerabilityBins.geometric(64.0, 2048.0, 16)
        assert bins.bits_per_row == 4
        assert bins.n_bins <= MAX_BINS

    def test_invalid_edges(self):
        with pytest.raises(ValueError):
            VulnerabilityBins(edges=np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            VulnerabilityBins(edges=np.array([]))
        with pytest.raises(ValueError):
            VulnerabilityBins(edges=np.array([-1.0, 1.0]))


class TestSvard:
    def test_build_and_lookup(self, profile):
        svard = Svard.build(profile)
        threshold = svard.threshold_for(1, 10)
        assert threshold >= profile.worst_case
        assert threshold <= profile.hc_first(1, 10)

    def test_security_invariant(self, profile):
        """Section 6.3: thresholds never exceed a row's own HC_first."""
        svard = Svard.build(profile)
        assert svard.verify_security_invariant()

    def test_security_invariant_property_all_modules(self):
        for label in ("H1", "M0", "S0"):
            profile = VulnerabilityProfile.from_ground_truth(
                module_by_label(label), banks=(1,), rows_per_bank=512
            )
            for n_bins in (2, 4, 16):
                svard = Svard.build(profile, n_bins=n_bins)
                assert svard.verify_security_invariant()

    def test_aggressiveness_scale_at_least_one(self, profile):
        svard = Svard.build(profile)
        scales = [
            svard.aggressiveness_scale(1, row)
            for row in range(0, 512, 37)
        ]
        assert all(s >= 1.0 for s in scales)
        assert max(s for s in scales) > 1.2  # some rows relaxed

    def test_worst_bin_matches_worst_case(self, profile):
        svard = Svard.build(profile)
        assert svard.worst_case_threshold() == pytest.approx(profile.worst_case)

    def test_overprotection_factor(self, profile):
        svard = Svard.build(profile)
        factor = svard.overprotection_factor()
        expected = np.mean(
            np.concatenate([profile.values(b) for b in profile.banks])
            / profile.worst_case
        )
        assert factor == pytest.approx(expected)

    def test_in_dram_storage(self, profile):
        svard = Svard.build(profile, storage="in-dram")
        assert isinstance(svard.store, InDramStore)
        assert svard.store.co_refreshed
        assert svard.verify_security_invariant()

    def test_storage_bits(self, profile):
        svard = Svard.build(profile)
        assert svard.store.storage_bits() == 4 * 2 * 1024

    def test_unknown_storage_rejected(self, profile):
        with pytest.raises(ValueError):
            Svard.build(profile, storage="cloud")

    def test_scaled_profile_keeps_invariant(self, profile):
        for target in (4096, 1024, 256, 64):
            svard = Svard.build(profile.scaled_to_worst_case(target))
            assert svard.verify_security_invariant()


@given(
    n_bins=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=30, deadline=None)
def test_property_binning_is_always_conservative(n_bins, seed):
    """For any bin count and any field, thresholds never exceed truth."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(64, 131072, size=300)
    bins = VulnerabilityBins.from_values(values, n_bins)
    thresholds = bins.thresholds(values)
    assert np.all(thresholds <= values + 1e-9)


class TestAreaModel:
    def test_anchor_area(self):
        assert mc_table_area_mm2(64 * 1024) == pytest.approx(0.056)

    def test_anchor_latency(self):
        assert mc_table_access_latency_ns(64 * 1024) == pytest.approx(0.47)

    def test_paper_system_overhead(self):
        model = SvardAreaModel()
        assert model.cpu_area_overhead_fraction() == pytest.approx(0.0086, rel=0.01)

    def test_lookup_hidden(self):
        assert SvardAreaModel().lookup_hidden_under_activation()
        # Even a 128K-row bank stays far below tRCD.
        assert SvardAreaModel(rows_per_bank=128 * 1024).lookup_hidden_under_activation()

    def test_in_dram_overhead(self):
        assert in_dram_overhead_fraction() == pytest.approx(0.00006, abs=2e-5)

    def test_area_scales_linearly(self):
        assert mc_table_area_mm2(128 * 1024) == pytest.approx(0.112)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            mc_table_area_mm2(0)
        with pytest.raises(ValueError):
            SvardAreaModel().cpu_area_overhead_fraction(cpu_area_mm2=0)
