"""Tests for workload generation (suites, mixes, adversarial)."""

import numpy as np
import pytest

from repro.sim.config import SystemConfig
from repro.sim.engine import TraceStep
from repro.workloads.adversarial import HydraAdversarialTrace, RrsAdversarialTrace
from repro.workloads.mixes import (
    WorkloadMix,
    build_alone_trace,
    build_traces,
    generate_mixes,
    single_core_config,
)
from repro.workloads.suites import SUITE_NAMES, SUITE_PROFILES, profile_by_name
from repro.workloads.synthetic import SuiteProfile, SyntheticTrace


class TestSuiteProfiles:
    def test_five_suites(self):
        assert len(SUITE_PROFILES) == 5
        assert set(SUITE_NAMES) == {
            "spec06", "spec17", "tpc", "mediabench", "ycsb",
        }

    def test_lookup(self):
        assert profile_by_name("ycsb").name == "ycsb"
        with pytest.raises(KeyError):
            profile_by_name("linpack")

    def test_ycsb_most_skewed(self):
        zipfs = {name: p.zipf_exponent for name, p in SUITE_PROFILES.items()}
        assert zipfs["ycsb"] == max(zipfs.values())

    def test_mediabench_most_local(self):
        locs = {name: p.row_locality for name, p in SUITE_PROFILES.items()}
        assert locs["mediabench"] == max(locs.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            SuiteProfile("x", row_locality=1.0, zipf_exponent=1, working_set_rows=1,
                         banks_used=1, write_ratio=0, gap_mean_ns=1)
        with pytest.raises(ValueError):
            SuiteProfile("x", row_locality=0.5, zipf_exponent=1, working_set_rows=0,
                         banks_used=1, write_ratio=0, gap_mean_ns=1)


class TestSyntheticTrace:
    def make(self, name="ycsb", seed=0):
        return SyntheticTrace(
            profile_by_name(name), total_banks=32, rows_per_bank=4096, seed=seed
        )

    def test_steps_within_bounds(self):
        trace = self.make()
        for _ in range(500):
            step = trace.next_step(0)
            assert 0 <= step.bank < 32
            assert 0 <= step.row < 4096
            assert step.gap_ns >= 0

    def test_steps_are_trace_steps(self):
        """Steps built with ``tuple.__new__`` are real ``TraceStep``s."""
        trace = self.make()
        for _ in range(300):
            step = trace.next_step(1)
            assert type(step) is TraceStep
            assert step == TraceStep(
                step.bank, step.row, step.column, step.is_write, step.gap_ns
            )
            assert (step.bank, step.row, step.column, step.is_write,
                    step.gap_ns) == tuple(step)
            assert type(step.is_write) is bool

    def test_deterministic(self):
        a = [self.make(seed=5).next_step(0) for _ in range(1)]
        t1, t2 = self.make(seed=5), self.make(seed=5)
        steps1 = [t1.next_step(0) for _ in range(100)]
        steps2 = [t2.next_step(0) for _ in range(100)]
        assert steps1 == steps2

    def test_row_bound_to_bank(self):
        """A row always appears in the same bank (page placement)."""
        trace = self.make()
        seen = {}
        for _ in range(3000):
            step = trace.next_step(0)
            if step.row in seen:
                assert seen[step.row] == step.bank
            seen[step.row] = step.bank

    def test_locality_produces_column_streaks(self):
        trace = self.make("mediabench")
        same_row = 0
        previous = trace.next_step(0)
        for _ in range(1000):
            step = trace.next_step(0)
            if step.row == previous.row and step.bank == previous.bank:
                same_row += 1
            previous = step
        assert same_row > 600  # locality 0.85

    def test_zipf_concentrates_rows(self):
        trace = self.make("ycsb")
        rows = [trace.next_step(0).row for _ in range(5000)]
        values, counts = np.unique(rows, return_counts=True)
        top_share = np.sort(counts)[::-1][:5].sum() / len(rows)
        assert top_share > 0.2

    def test_write_ratio_approximate(self):
        trace = self.make("tpc")
        writes = sum(trace.next_step(0).is_write for _ in range(4000))
        assert writes / 4000 == pytest.approx(0.35, abs=0.05)

    def test_chains_independent_state(self):
        trace = self.make()
        a = trace.next_step(0)
        b = trace.next_step(1)
        # Different chains can sit in different rows simultaneously.
        assert isinstance(a.row, int) and isinstance(b.row, int)


class TestMixes:
    def test_generate_120(self):
        mixes = generate_mixes()
        assert len(mixes) == 120
        assert all(len(m.suites) == 8 for m in mixes)

    def test_deterministic(self):
        a = generate_mixes(10, seed=3)
        b = generate_mixes(10, seed=3)
        assert [m.suites for m in a] == [m.suites for m in b]

    def test_all_suites_appear(self):
        mixes = generate_mixes(30, seed=0)
        used = {s for m in mixes for s in m.suites}
        assert used == set(SUITE_NAMES)

    def test_build_traces(self):
        config = SystemConfig()
        mix = generate_mixes(1, seed=0)[0]
        traces = build_traces(mix, config)
        assert len(traces) == config.cores

    def test_alone_trace_matches_mix_seed(self):
        config = SystemConfig()
        mix = generate_mixes(1, seed=0)[0]
        shared = build_traces(mix, config)[2]
        alone = build_alone_trace(mix, 2, single_core_config(config))[0]
        a = [shared.next_step(0) for _ in range(50)]
        b = [alone.next_step(0) for _ in range(50)]
        assert a == b

    def test_invalid_mix(self):
        with pytest.raises(ValueError):
            WorkloadMix(name="bad", suites=(), seed=0)
        with pytest.raises(KeyError):
            WorkloadMix(name="bad", suites=("nope",), seed=0)
        with pytest.raises(ValueError):
            generate_mixes(0)


class TestAdversarial:
    def test_hydra_pattern_cycles_distinct_groups(self):
        trace = HydraAdversarialTrace(n_rows=16, row_stride=128)
        rows = {trace.next_step(0).row for _ in range(16)}
        assert len(rows) == 16
        groups = {r // 128 for r in rows}
        assert len(groups) == 16

    def test_hydra_pattern_phase_offset(self):
        a = HydraAdversarialTrace(n_rows=16, row_stride=128, start_offset=0)
        b = HydraAdversarialTrace(n_rows=16, row_stride=128, start_offset=4)
        assert a.next_step(0).row != b.next_step(0).row

    def test_rrs_pattern_hammers_target(self):
        trace = RrsAdversarialTrace(target_row=7, scratch_row=9)
        rows = [trace.next_step(0).row for _ in range(10)]
        assert rows.count(7) == 5
        assert rows.count(9) == 5
        # Alternation means every access is a row miss.
        assert all(a != b for a, b in zip(rows, rows[1:]))
