"""Unit tests for the timing presets across device generations."""

import dataclasses

import pytest

from repro.dram.timing import (
    DDR4_2400,
    DDR4_2666,
    DDR4_2933,
    DDR4_3200,
    DDR5_4800,
    GENERATIONS,
    LPDDR4_3200,
    REFRESH_ALL_BANK,
    REFRESH_PER_BANK,
    REFRESH_SAME_BANK,
    all_device_names,
    device_for,
)

#: Every preset of every generation, keyed by device name.
ALL_PRESETS = {name: device_for(name) for name in all_device_names()}

#: Fields derate_for_temperature is allowed to touch: the refresh
#: window and the refresh cadence scale with retention, nothing else.
REFRESH_WINDOW_FIELDS = {"tREFI", "tREFW"}


class TestPresets:
    def test_all_speed_grades_available(self):
        for speed in (2400, 2666, 2933, 3200):
            assert device_for(speed).data_rate_mts == speed

    def test_unknown_speed_raises(self):
        with pytest.raises(ValueError) as excinfo:
            device_for(1600)
        message = str(excinfo.value)
        assert "1600" in message
        for grade in ("2400", "2666", "2933", "3200"):
            assert grade in message

    def test_trc_is_tras_plus_trp(self):
        for preset in (DDR4_2400, DDR4_2666, DDR4_2933, DDR4_3200):
            assert preset.tRC == pytest.approx(preset.tRAS + preset.tRP)

    def test_faster_grade_has_shorter_clock(self):
        assert DDR4_3200.tCK < DDR4_2933.tCK < DDR4_2666.tCK < DDR4_2400.tCK

    def test_refresh_window_default_64ms(self):
        assert DDR4_3200.tREFW == pytest.approx(64_000_000.0)

    def test_refresh_interval_default(self):
        assert DDR4_3200.tREFI == pytest.approx(7800.0)


class TestGenerationConsistency:
    """Every preset of every generation honours the data-sheet algebra."""

    @pytest.mark.parametrize("name", sorted(ALL_PRESETS))
    def test_trc_is_tras_plus_trp(self, name):
        preset = ALL_PRESETS[name]
        assert preset.tRC == pytest.approx(preset.tRAS + preset.tRP)

    @pytest.mark.parametrize("name", sorted(ALL_PRESETS))
    def test_tck_matches_data_rate(self, name):
        # DDR transfers twice per clock: tCK [ns] = 2000 / MT/s.
        preset = ALL_PRESETS[name]
        assert preset.tCK == pytest.approx(
            2000.0 / preset.data_rate_mts, rel=1e-3
        )

    @pytest.mark.parametrize("name", sorted(ALL_PRESETS))
    def test_all_parameters_positive(self, name):
        preset = ALL_PRESETS[name]
        for field in dataclasses.fields(preset):
            value = getattr(preset, field.name)
            assert value > 0, f"{name}.{field.name} = {value!r}"

    @pytest.mark.parametrize("name", sorted(ALL_PRESETS))
    def test_derating_halves_only_refresh_window_fields(self, name):
        preset = ALL_PRESETS[name]
        hot = preset.derate_for_temperature(90.0)
        assert type(hot) is type(preset)
        for field in dataclasses.fields(preset):
            cold_value = getattr(preset, field.name)
            hot_value = getattr(hot, field.name)
            if field.name in REFRESH_WINDOW_FIELDS:
                assert hot_value == pytest.approx(cold_value / 2)
            else:
                assert hot_value == cold_value, field.name

    def test_device_names_cover_every_generation_preset(self):
        expected = {
            f"{generation.name}-{rate}"
            for generation in GENERATIONS.values()
            for rate in generation.rates
        }
        assert set(all_device_names()) == expected

    def test_generation_structure(self):
        assert DDR4_3200.has_bank_groups
        assert DDR4_3200.refresh_granularity == REFRESH_ALL_BANK
        assert not LPDDR4_3200.has_bank_groups
        assert LPDDR4_3200.refresh_granularity == REFRESH_PER_BANK
        assert DDR5_4800.has_bank_groups
        assert DDR5_4800.refresh_granularity == REFRESH_SAME_BANK

    def test_refresh_slices_per_granularity(self):
        kwargs = dict(banks_per_rank=16, banks_per_group=4)
        assert DDR4_3200.refresh_slices(**kwargs) == 1
        assert LPDDR4_3200.refresh_slices(**kwargs) == 16
        assert DDR5_4800.refresh_slices(**kwargs) == 4

    def test_lpddr4_refresh_latency_is_per_bank(self):
        assert LPDDR4_3200.refresh_latency_ns == LPDDR4_3200.tRFCpb
        assert LPDDR4_3200.tRFCpb < LPDDR4_3200.tRFCab
        assert LPDDR4_3200.tRFC == LPDDR4_3200.tRFCab

    def test_ddr5_refresh_latency_is_same_bank(self):
        assert DDR5_4800.refresh_latency_ns == DDR5_4800.tRFCsb
        assert DDR5_4800.tRFCsb < DDR5_4800.tRFC


class TestDeviceFor:
    def test_name_lookup_is_case_insensitive(self):
        assert device_for("lpddr4-3200") is LPDDR4_3200
        assert device_for("DDR5-4800") is DDR5_4800

    def test_bare_generation_uses_default_rate(self):
        assert device_for("DDR4") is DDR4_3200
        assert device_for("DDR5") is DDR5_4800

    def test_integer_and_digit_string_mean_ddr4(self):
        assert device_for(2666) is DDR4_2666
        assert device_for("2933") is DDR4_2933

    def test_unknown_device_lists_alternatives(self):
        with pytest.raises(ValueError) as excinfo:
            device_for("DDR3-1600")
        message = str(excinfo.value)
        for name in all_device_names():
            assert name in message


class TestTemperatureDerating:
    def test_normal_range_unchanged(self):
        assert DDR4_3200.derate_for_temperature(80.0) is DDR4_3200
        assert DDR4_3200.derate_for_temperature(85.0) is DDR4_3200

    def test_extended_range_halves_refresh(self):
        hot = DDR4_3200.derate_for_temperature(90.0)
        assert hot.tREFI == pytest.approx(DDR4_3200.tREFI / 2)
        assert hot.tREFW == pytest.approx(DDR4_3200.tREFW / 2)

    def test_extended_range_keeps_core_timings(self):
        hot = DDR4_3200.derate_for_temperature(95.0)
        assert hot.tRCD == DDR4_3200.tRCD
        assert hot.tRAS == DDR4_3200.tRAS


class TestActivationBudget:
    def test_activations_per_window_order_of_magnitude(self):
        # 64 ms / ~45.75 ns per row cycle is roughly 1.4M activations:
        # the reason RowHammer at HC_first <= 128K is practical at all.
        n = DDR4_3200.activations_per_refresh_window()
        assert 1_000_000 < n < 2_000_000

    def test_budget_shrinks_when_hot(self):
        hot = DDR4_3200.derate_for_temperature(90.0)
        assert (
            hot.activations_per_refresh_window()
            < DDR4_3200.activations_per_refresh_window()
        )

    @pytest.mark.parametrize("name", sorted(ALL_PRESETS))
    def test_floor_truncation_contract(self, name):
        # The budget is a whole number of row cycles that *fit* in the
        # window: floor division, never rounding up a partial cycle.
        preset = ALL_PRESETS[name]
        assert preset.activations_per_refresh_window() == int(
            preset.tREFW // preset.tRC
        )

    def test_ddr5_budget_uses_32ms_window(self):
        # DDR5 halves tREFW to 32 ms, so at a comparable row-cycle time
        # the activation budget is roughly half the DDR4 figure.
        assert DDR5_4800.tREFW == pytest.approx(32_000_000.0)
        assert DDR5_4800.activations_per_refresh_window() == int(
            32_000_000.0 // DDR5_4800.tRC
        )
        assert (
            DDR5_4800.activations_per_refresh_window()
            < DDR4_3200.activations_per_refresh_window()
        )
