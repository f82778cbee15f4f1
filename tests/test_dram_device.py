"""Integration tests: device model + read-disturbance fault model."""

import numpy as np
import pytest

from repro.dram.cells import count_mismatched_bits
from repro.dram.commands import act, pre, rd, ref, wait
from repro.dram.device import DramDevice, TimingViolation
from repro.dram.geometry import DramGeometry
from repro.dram.mapping import RowScrambler, ScramblingScheme
from repro.faults.disturbance import DisturbanceModel

from tests.conftest import make_tiny_spec


def make_device(spec, geometry, *, seed=0, scramble=ScramblingScheme.IDENTITY):
    model = DisturbanceModel(
        spec,
        rows_per_bank=geometry.rows_per_bank,
        row_bits=geometry.row_bytes * 8,
        seed=seed,
    )
    device = DramDevice(
        geometry=geometry,
        scrambler=RowScrambler(rows_per_bank=geometry.rows_per_bank, scheme=scramble),
        observer=model,
        seed=seed,
    )
    return device, model


class TestCommandExecution:
    def test_clock_advances_monotonically(self, tiny_spec, tiny_geometry):
        device, _ = make_device(tiny_spec, tiny_geometry)
        times = [device.clock_ns]
        for command in (act(0, 10), wait(100.0), pre(0), act(0, 12), pre(0)):
            device.execute_one(command)
            times.append(device.clock_ns)
        assert times == sorted(times)

    def test_act_pre_respects_tras(self, tiny_spec, tiny_geometry):
        device, _ = make_device(tiny_spec, tiny_geometry)
        device.execute([act(0, 10), pre(0)])
        assert device.clock_ns >= device.timing.tRAS

    def test_rd_wr_require_open_row(self, tiny_spec, tiny_geometry):
        device, _ = make_device(tiny_spec, tiny_geometry)
        with pytest.raises(Exception):
            device.execute_one(rd(0, 0))

    def test_ref_with_open_row_rejected(self, tiny_spec, tiny_geometry):
        device, _ = make_device(tiny_spec, tiny_geometry)
        device.execute_one(act(0, 10))
        with pytest.raises(TimingViolation):
            device.execute_one(ref())

    def test_wait_advances_exactly(self, tiny_spec, tiny_geometry):
        device, _ = make_device(tiny_spec, tiny_geometry)
        start = device.clock_ns
        device.execute_one(wait(123.0))
        assert device.clock_ns == pytest.approx(start + 123.0)


class TestReadDisturbance:
    def test_no_flips_below_threshold(self, tiny_spec, tiny_geometry):
        device, model = make_device(tiny_spec, tiny_geometry)
        victim = 33
        device.write_row(0, victim, 0x00)
        expected = device.read_row(0, victim)
        hc_first = model.true_hc_first(0)[victim]
        device.hammer(0, [victim - 1, victim + 1], count=int(hc_first * 0.5))
        observed = device.read_row(0, victim)
        assert count_mismatched_bits(observed, expected) == 0

    def test_flips_above_threshold(self, tiny_spec, tiny_geometry):
        device, model = make_device(tiny_spec, tiny_geometry)
        victim = 33
        device.write_row(0, victim, 0x00)
        expected = device.read_row(0, victim)
        hc_first = model.true_hc_first(0)[victim]
        device.hammer(0, [victim - 1, victim + 1], count=int(hc_first * 4) + 1)
        observed = device.read_row(0, victim)
        assert count_mismatched_bits(observed, expected) >= 1

    def test_first_flip_at_hc_first(self, tiny_spec, tiny_geometry):
        device, model = make_device(tiny_spec, tiny_geometry)
        victim = 40
        hc_first = model.true_hc_first(0)[victim]
        device.write_row(0, victim, 0x00)
        expected = device.read_row(0, victim)
        device.hammer(0, [victim - 1, victim + 1], count=int(np.ceil(hc_first)))
        observed = device.read_row(0, victim)
        assert count_mismatched_bits(observed, expected) >= 1

    def test_victim_rewrite_restores(self, tiny_spec, tiny_geometry):
        device, model = make_device(tiny_spec, tiny_geometry)
        victim = 33
        device.write_row(0, victim, 0x00)
        hc_first = model.true_hc_first(0)[victim]
        device.hammer(0, [victim - 1, victim + 1], count=int(hc_first * 4))
        device.write_row(0, victim, 0x00)
        observed = device.read_row(0, victim)
        assert np.all(observed == 0x00)

    def test_flips_persist_across_reads(self, tiny_spec, tiny_geometry):
        device, model = make_device(tiny_spec, tiny_geometry)
        victim = 33
        device.write_row(0, victim, 0x00)
        hc_first = model.true_hc_first(0)[victim]
        device.hammer(0, [victim - 1, victim + 1], count=int(hc_first * 4))
        first = device.read_row(0, victim)
        second = device.read_row(0, victim)
        assert np.array_equal(first, second)

    def test_subarray_isolation(self, tiny_spec, tiny_geometry):
        """Rows across a subarray boundary are never disturbed."""
        device, model = make_device(tiny_spec, tiny_geometry)
        boundary = tiny_geometry.subarray_rows  # row 64 starts subarray 1
        outside_victim = boundary - 1  # last row of subarray 0
        aggressor = boundary  # first row of subarray 1
        device.write_row(0, outside_victim, 0x00)
        expected = device.read_row(0, outside_victim)
        device.hammer(0, [aggressor], count=100_000)
        observed = device.read_row(0, outside_victim)
        assert count_mismatched_bits(observed, expected) == 0

    def test_single_sided_weaker_than_double(self, tiny_spec, tiny_geometry):
        device, model = make_device(tiny_spec, tiny_geometry)
        victim = 33
        hc_first = model.true_hc_first(0)[victim]
        device.write_row(0, victim, 0x00)
        expected = device.read_row(0, victim)
        # Single-sided with HC just above threshold: 0.5 exposure per
        # activation means it needs ~2x the count; at 1.2x it stays clean.
        device.hammer(0, [victim - 1], count=int(hc_first * 1.2))
        observed = device.read_row(0, victim)
        assert count_mismatched_bits(observed, expected) == 0

    def test_bulk_matches_command_by_command(self, tiny_spec, tiny_geometry):
        victim = 35
        results = []
        for mode in ("bulk", "commands"):
            device, model = make_device(tiny_spec, tiny_geometry, seed=7)
            device.write_row(0, victim, 0x00)
            hc_first = model.true_hc_first(0)[victim]
            count = int(hc_first * 3)
            if mode == "bulk":
                device.hammer(0, [victim - 1, victim + 1], count=count)
            else:
                commands = []
                for _ in range(count):
                    commands += [act(0, victim + 1), pre(0)]
                    commands += [act(0, victim - 1), pre(0)]
                device.execute(commands)
            results.append(device.read_row(0, victim))
        assert np.array_equal(results[0], results[1])

    def test_refresh_resets_exposure(self, tiny_spec, tiny_geometry):
        device, model = make_device(tiny_spec, tiny_geometry)
        victim = 33
        device.write_row(0, victim, 0x00)
        expected = device.read_row(0, victim)
        hc_first = model.true_hc_first(0)[victim]
        half = int(hc_first * 0.7)
        device.hammer(0, [victim - 1, victim + 1], count=half)
        device.refresh_all_rows()
        device.hammer(0, [victim - 1, victim + 1], count=half)
        observed = device.read_row(0, victim)
        assert count_mismatched_bits(observed, expected) == 0

    def test_rowpress_reduces_required_count(self, tiny_spec, tiny_geometry):
        device, model = make_device(tiny_spec, tiny_geometry)
        victim = 33
        device.write_row(0, victim, 0x00)
        expected = device.read_row(0, victim)
        hc_first = model.true_hc_first(0)[victim]
        # 0.6x HC_first does not flip at 36 ns but does at 2 us.
        device.hammer(0, [victim - 1, victim + 1], count=int(hc_first * 0.6),
                      t_agg_on_ns=2000.0)
        observed = device.read_row(0, victim)
        assert count_mismatched_bits(observed, expected) >= 1


class TestScramblingInteraction:
    def test_hammering_logical_neighbors_misses_physical_victims(self):
        """With scrambling, naive logical +/-1 hammering is ineffective
        for rows whose physical neighbours differ."""
        spec = make_tiny_spec(scrambling=ScramblingScheme.MIRROR)
        geometry = DramGeometry(rows_per_bank=256, subarray_rows=64,
                                columns_per_row=16)
        device, model = make_device(spec, geometry,
                                    scramble=ScramblingScheme.MIRROR)
        victim = 35  # logical 35 -> physical 36 under MIRROR
        device.write_row(0, victim, 0x00)
        expected = device.read_row(0, victim)
        hc = int(model.true_hc_first(0).max() * 3)
        # Correct aggressors come from the scrambler.
        below, above = device.scrambler.physical_neighbors(victim)
        device.hammer(0, [below, above], count=hc)
        observed = device.read_row(0, victim)
        assert count_mismatched_bits(observed, expected) >= 1


class TestRowClone:
    def test_intra_subarray_clone_copies_data(self, tiny_spec, tiny_geometry):
        device, _ = make_device(tiny_spec, tiny_geometry)
        device.rowclone_success_rate = 1.0
        device.write_row(0, 10, 0xAB)
        device.write_row(0, 20, 0x00)
        device.execute([act(0, 10)])
        device.execute_one(pre(0), strict=False)
        device.execute_one(act(0, 20), strict=False)
        device.execute_one(pre(0), strict=False)
        assert np.all(device.read_row(0, 20) == 0xAB)

    def test_cross_subarray_clone_fails(self, tiny_spec, tiny_geometry):
        device, _ = make_device(tiny_spec, tiny_geometry)
        device.rowclone_success_rate = 1.0
        device.write_row(0, 10, 0xAB)
        device.write_row(0, 100, 0x00)  # subarray 1
        device.execute([act(0, 10)])
        device.execute_one(pre(0), strict=False)
        device.execute_one(act(0, 100), strict=False)
        device.execute_one(pre(0), strict=False)
        assert np.all(device.read_row(0, 100) == 0x00)

    def test_slow_act_does_not_clone(self, tiny_spec, tiny_geometry):
        device, _ = make_device(tiny_spec, tiny_geometry)
        device.rowclone_success_rate = 1.0
        device.write_row(0, 10, 0xAB)
        device.write_row(0, 20, 0x00)
        device.execute([act(0, 10), pre(0), act(0, 20), pre(0)])
        assert np.all(device.read_row(0, 20) == 0x00)
