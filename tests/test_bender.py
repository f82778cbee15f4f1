"""Tests for the testing-platform simulator (DRAM Bender analogue)."""

import pytest

from repro.bender.infrastructure import RefreshWindowExceeded, TestPlatform
from repro.bender.programs import (
    hammer_doublesided_program,
    rowclone_program,
)
from repro.bender.temperature import TemperatureController, ThermalPlant
from repro.dram.commands import CommandKind
from repro.dram.timing import DDR4_3200
from repro.faults.datapatterns import DATA_PATTERNS, DataPattern

from tests.conftest import make_tiny_spec


@pytest.fixture
def platform():
    return TestPlatform(make_tiny_spec(), seed=3)


class TestTemperatureController:
    def test_settles_within_half_degree(self):
        controller = TemperatureController(setpoint_c=80.0, seed=0)
        controller.settle(tolerance_c=0.5)
        controller.run(300)
        assert controller.stability_band_c(300) <= 0.5

    def test_three_setpoints_from_paper(self):
        # The paper validates stability at 35, 50, and 80 C.
        for setpoint in (35.0, 50.0, 80.0):
            controller = TemperatureController(setpoint_c=setpoint, seed=1)
            controller.settle(tolerance_c=0.5)
            controller.run(120)
            assert controller.stability_band_c(120) <= 0.5

    def test_plant_steady_state_power(self):
        plant = ThermalPlant()
        power = plant.steady_state_power(80.0)
        plant.temperature_c = 80.0
        plant.step(power, 10.0)
        assert plant.temperature_c == pytest.approx(80.0)

    def test_plant_rejects_bad_inputs(self):
        plant = ThermalPlant()
        with pytest.raises(ValueError):
            plant.step(-1.0, 1.0)
        with pytest.raises(ValueError):
            plant.step(1.0, 0.0)

    def test_unheated_plant_cools_to_ambient(self):
        plant = ThermalPlant(temperature_c=80.0)
        for _ in range(2000):
            plant.step(0.0, 1.0)
        assert plant.temperature_c == pytest.approx(plant.ambient_c, abs=0.1)


class TestPrograms:
    def test_hammer_program_structure(self):
        program = hammer_doublesided_program(
            bank=1, aggressor_rows=[10, 12], hammer_count=3,
            t_agg_on_ns=36.0, timing=DDR4_3200,
        )
        acts = [c for c in program if c.kind is CommandKind.ACT]
        pres = [c for c in program if c.kind is CommandKind.PRE]
        assert len(acts) == 6
        assert len(pres) == 6
        assert [c.row for c in acts] == [10, 12, 10, 12, 10, 12]

    def test_hammer_program_inserts_hold_for_rowpress(self):
        program = hammer_doublesided_program(
            bank=1, aggressor_rows=[10], hammer_count=1,
            t_agg_on_ns=2000.0, timing=DDR4_3200,
        )
        waits = [c for c in program if c.kind is CommandKind.WAIT]
        assert len(waits) == 1
        assert waits[0].wait_ns == pytest.approx(2000.0 - DDR4_3200.tRAS)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            hammer_doublesided_program(0, [1], -1, 36.0, DDR4_3200)

    def test_rowclone_program(self):
        program = rowclone_program(0, 5, 6)
        kinds = [c.kind for c in program]
        assert kinds == [
            CommandKind.ACT, CommandKind.PRE, CommandKind.ACT, CommandKind.PRE,
        ]


class TestMeasureBer:
    def test_zero_ber_below_threshold(self, platform):
        hc_first = platform.model.true_hc_first(0)
        victim = 33
        result = platform.measure_ber(
            0, victim, DataPattern.ROW_STRIPE, int(hc_first[victim] * 0.4)
        )
        assert result.ber == 0.0

    def test_positive_ber_above_threshold(self, platform):
        victim = 33
        hc_first = platform.model.true_hc_first(0)[victim]
        result = platform.measure_ber(
            0, victim, platform.model.wcdp(0, victim), int(hc_first * 4)
        )
        assert result.ber > 0.0
        assert result.bitflips >= 1

    def test_wcdp_yields_max_ber(self, platform):
        victim = 40
        hc = int(platform.model.true_hc_first(0)[victim] * 6)
        results = {
            pattern: platform.measure_ber(0, victim, pattern, hc).ber
            for pattern in DATA_PATTERNS
        }
        wcdp = platform.model.wcdp(0, victim)
        assert results[wcdp] == max(results.values())

    def test_column_stripe_weakest(self, platform):
        victim = 40
        hc = int(platform.model.true_hc_first(0)[victim] * 6)
        results = {
            pattern: platform.measure_ber(0, victim, pattern, hc).ber
            for pattern in DATA_PATTERNS
        }
        cs = results[DataPattern.COLUMN_STRIPE]
        assert cs <= min(
            results[DataPattern.ROW_STRIPE], results[DataPattern.CHECKERBOARD]
        )

    def test_measurement_repeatable_after_reinit(self, platform):
        victim = 50
        hc = int(platform.model.true_hc_first(0)[victim] * 3)
        first = platform.measure_ber(0, victim, DataPattern.ROW_STRIPE, hc)
        second = platform.measure_ber(0, victim, DataPattern.ROW_STRIPE, hc)
        assert first.bitflips == second.bitflips

    def test_ber_monotone_in_hammer_count(self, platform):
        victim = 60
        hc_first = platform.model.true_hc_first(0)[victim]
        bers = [
            platform.measure_ber(
                0, victim, platform.model.wcdp(0, victim), int(hc_first * mult)
            ).ber
            for mult in (1.5, 3.0, 6.0)
        ]
        assert bers == sorted(bers)

    def test_rowpress_increases_ber(self, platform):
        victim = 70
        hc = int(platform.model.true_hc_first(0)[victim] * 1.5)
        wcdp = platform.model.wcdp(0, victim)
        short = platform.measure_ber(0, victim, wcdp, hc, t_agg_on_ns=36.0)
        long = platform.measure_ber(0, victim, wcdp, hc, t_agg_on_ns=2000.0)
        assert long.ber >= short.ber
        assert long.ber > 0


class TestReverseEngineeringProbes:
    def test_interior_row_disturbs_both_sides(self, platform):
        hc = int(platform.model.true_hc_first(0).max() * 4)
        assert platform.single_sided_disturbs(0, 33, 32, hc)
        assert platform.single_sided_disturbs(0, 33, 34, hc)

    def test_boundary_row_disturbs_one_side(self, platform):
        boundary = platform.geometry.subarray_rows  # first row of SA 1
        hc = int(platform.model.true_hc_first(0).max() * 4)
        assert platform.single_sided_disturbs(0, boundary, boundary + 1, hc)
        assert not platform.single_sided_disturbs(0, boundary, boundary - 1, hc)

    def test_rowclone_within_subarray(self, platform):
        platform.device.rowclone_success_rate = 1.0
        assert platform.try_rowclone(0, 5, 9)

    def test_rowclone_across_subarray_fails(self, platform):
        platform.device.rowclone_success_rate = 1.0
        sa = platform.geometry.subarray_rows
        assert not platform.try_rowclone(0, sa - 1, sa)


class TestRefreshWindowGuard:
    def test_long_program_rejected_when_enforced(self):
        platform = TestPlatform(make_tiny_spec(), enforce_refresh_window=True)
        with pytest.raises(RefreshWindowExceeded):
            platform.hammer_doublesided(0, 33, hammer_count=500_000,
                                        t_agg_on_ns=100_000.0)

    def test_normal_program_accepted_when_enforced(self):
        platform = TestPlatform(make_tiny_spec(), enforce_refresh_window=True)
        platform.hammer_doublesided(0, 33, hammer_count=1000)


class TestPlatformConstruction:
    def test_scaled_geometry(self):
        platform = TestPlatform(make_tiny_spec(), rows_per_bank=128)
        assert platform.geometry.rows_per_bank == 128

    def test_aggressors_account_for_scrambling(self):
        from repro.dram.mapping import ScramblingScheme

        spec = make_tiny_spec(scrambling=ScramblingScheme.MIRROR)
        platform = TestPlatform(spec)
        below, above = platform.aggressor_rows_for(4)
        # logical 4 -> physical 3; neighbours physical 2, 4 -> logical 2, 3
        assert (below, above) == (2, 3)
