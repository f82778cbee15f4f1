"""Tests for the JEDEC conformance checker and the engine command log.

Three layers:

* rulebook/checker unit tests with hand-crafted command logs, including
  one mutation test per rule proving the rule *individually* detects an
  injected violation;
* engine-conformance property tests: real simulations (synthetic
  suites, adversarial traces, every defense, a fig12-scale cell) whose
  logged command streams must replay with zero violations, plus the
  inverse mutation (an inflated rulebook must flag a legal stream);
* instrumentation-safety tests: turning the log on must not change a
  single result bit, and edge-case configs stay conformant with pinned
  counters.
"""

import dataclasses

import pytest

from repro.defenses import DEFENSE_CLASSES
from repro.dram.commands import CommandKind, TimedCommand, act, pre, rd, ref, wr
from repro.dram.timing import (
    DDR4_3200,
    DDR5_4800,
    LPDDR4_3200,
    device_for,
)
from repro.experiments.common import DEFENSE_EPOCH_NS
from repro.sim.config import SystemConfig
from repro.sim.conformance import (
    REFRESH_POSTPONE_LIMIT,
    ConformanceReport,
    TimingChecker,
    TimingRule,
    check_run,
    timing_rules,
)
from repro.sim.engine import MemorySystem, TraceStep
from repro.workloads.adversarial import HydraAdversarialTrace, RrsAdversarialTrace
from repro.workloads.mixes import synthetic_traces

T = DDR4_3200


def timed(time_ns, command):
    return TimedCommand(time_ns, command)


def small_config(**overrides):
    defaults = dict(
        cores=1, ranks=1, bank_groups=2, banks_per_group=2,
        rows_per_bank=4096, requests_per_core=200, mlp_per_core=2,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


def suite_traces(config, suite="ycsb"):
    """One ``suite`` trace per core, core ``i`` seeded ``i``."""
    return synthetic_traces([suite] * config.cores, config, 0)


class TestTimingRules:
    def test_rulebook_derived_from_preset(self):
        rules = {(r.name, r.prev, r.curr): r for r in timing_rules(T)}
        assert rules[("tRCD", CommandKind.ACT, CommandKind.RD)].delay_ns == T.tRCD
        assert rules[("tRAS", CommandKind.ACT, CommandKind.PRE)].delay_ns == T.tRAS
        assert rules[("tRP", CommandKind.PRE, CommandKind.ACT)].delay_ns == T.tRP
        assert rules[("tRC", CommandKind.ACT, CommandKind.ACT)].delay_ns == T.tRC
        assert rules[("tRFC", CommandKind.REF, CommandKind.ACT)].delay_ns == T.tRFC

    def test_rank_scope_for_act_pacing(self):
        by_name = {}
        for rule in timing_rules(T):
            by_name.setdefault(rule.name, rule)
        assert by_name["tRRD_S"].scope == "rank"
        assert by_name["tRCD"].scope == "bank"

    def test_invalid_rules_rejected(self):
        with pytest.raises(ValueError):
            TimingRule("x", CommandKind.ACT, CommandKind.RD, "channel", 1.0)
        with pytest.raises(ValueError):
            TimingRule("x", CommandKind.ACT, CommandKind.RD, "bank", -1.0)

    def test_checker_validation(self):
        with pytest.raises(ValueError):
            TimingChecker(T, tolerance_ns=-1.0)
        with pytest.raises(ValueError):
            TimingChecker(T, refresh_postpone_limit=0)

    def test_rulebook_follows_generation_rule_table(self):
        # The checker derives its rulebook from the preset's declarative
        # rule table, so each generation gets its own JEDEC vocabulary.
        for preset in (T, LPDDR4_3200, DDR5_4800):
            rules = timing_rules(preset)
            assert len(rules) == len(preset.rule_table)
            for rule, spec in zip(rules, preset.rule_table):
                assert rule.name == spec.name
                assert rule.prev is CommandKind[spec.prev]
                assert rule.curr is CommandKind[spec.curr]
                assert rule.scope == spec.scope
                assert rule.delay_ns == getattr(preset, spec.parameter)

    def test_lpddr4_rulebook_uses_per_bank_refresh_and_flat_trrd(self):
        names = {rule.name for rule in timing_rules(LPDDR4_3200)}
        assert "tRFCpb" in names
        assert "tRRD" in names
        assert "tRRD_S" not in names
        assert "tRFC" not in names

    def test_ddr5_rulebook_uses_same_bank_refresh(self):
        names = {rule.name for rule in timing_rules(DDR5_4800)}
        assert "tRFCsb" in names
        assert "tRRD_S" in names
        assert "tRFC" not in names

    def test_rule_and_report_render(self):
        rule = timing_rules(T)[0]
        assert "tRCD" in str(rule)
        report = ConformanceReport(commands=0, checks={}, violations=[])
        assert report.ok
        assert "0 violation(s)" in report.render_text()


class TestRuleMutations:
    """Each JEDEC rule individually catches an injected violation."""

    def replay(self, commands):
        return TimingChecker(T).replay(commands)

    def assert_only(self, report, rule):
        assert not report.ok
        flagged = {violation.rule for violation in report.violations}
        assert flagged == {rule}
        violation = report.violations_for(rule)[0]
        assert violation.rule in str(violation)
        assert rule in report.to_json_dict()["violations"][0]["rule"]

    def test_trcd_read_too_early(self):
        report = self.replay([
            timed(0.0, act(0, 7)),
            timed(T.tRCD / 2, rd(0, 3)),
        ])
        self.assert_only(report, "tRCD")
        assert report.violations[0].slack_ns == pytest.approx(-T.tRCD / 2)

    def test_trcd_write_too_early(self):
        report = self.replay([
            timed(0.0, act(0, 7)),
            timed(T.tRCD - 1.0, wr(0, 3)),
        ])
        self.assert_only(report, "tRCD")

    def test_tras_precharge_too_early(self):
        report = self.replay([
            timed(0.0, act(0, 7)),
            timed(T.tRCD, rd(0, 0)),
            timed(T.tRAS / 2, pre(0)),
        ])
        self.assert_only(report, "tRAS")

    def test_trp_activate_too_early(self):
        report = self.replay([
            timed(0.0, pre(0)),
            timed(T.tRP / 2, act(0, 7)),
        ])
        self.assert_only(report, "tRP")

    def test_trrd_s_cross_bank_act_too_early(self):
        # Different banks, same rank: only the rank-level pacing rule
        # applies (per-bank rules see each bank's first command).
        report = self.replay([
            timed(0.0, act(0, 7)),
            timed(T.tRRD_S / 2, act(1, 9)),
        ])
        self.assert_only(report, "tRRD_S")

    def test_tfaw_fifth_act_inside_window(self):
        spacing = T.tRRD_S + 0.5
        commands = [
            timed(index * spacing, act(index, 7))
            for index in range(4)
        ]
        fifth_time = T.tFAW - 1.0
        assert fifth_time > 3 * spacing + T.tRRD_S  # legal w.r.t. tRRD_S
        commands.append(timed(fifth_time, act(4, 7)))
        report = self.replay(commands)
        self.assert_only(report, "tFAW")

    def test_trfc_act_during_refresh(self):
        report = self.replay([
            timed(0.0, dataclasses.replace(ref(0), bank=0)),
            timed(T.tRFC / 2, act(0, 7)),
        ])
        self.assert_only(report, "tRFC")

    def test_trc_back_to_back_act_same_bank(self):
        # No PRE between the two ACTs, so the structural rule fires
        # alongside tRC; the timing violation must still be attributed.
        report = self.replay([
            timed(0.0, act(0, 7)),
            timed(T.tRC - 1.0, act(0, 8)),
        ])
        assert {v.rule for v in report.violations} == {"tRC", "bank-state"}

    def test_dropped_pre_is_structural_violation(self):
        report = self.replay([
            timed(0.0, act(0, 7)),
            timed(10 * T.tRC, act(0, 8)),
        ])
        flagged = {violation.rule for violation in report.violations}
        assert flagged == {"bank-state"}
        assert "row 7 is open" in report.violations[0].message

    def test_column_command_on_precharged_bank(self):
        report = self.replay([timed(0.0, rd(0, 3))])
        assert {v.rule for v in report.violations} == {"bank-state"}

    def test_refresh_cadence_gap_too_large(self):
        limit = REFRESH_POSTPONE_LIMIT * T.tREFI
        report = self.replay([
            timed(0.0, dataclasses.replace(ref(0), bank=0)),
            timed(limit + 50.0, dataclasses.replace(ref(0), bank=0)),
        ])
        assert {v.rule for v in report.violations} == {"tREFI"}

    def test_first_refresh_too_late(self):
        limit = REFRESH_POSTPONE_LIMIT * T.tREFI
        report = self.replay([
            timed(limit + 50.0, dataclasses.replace(ref(0), bank=0)),
        ])
        assert {v.rule for v in report.violations} == {"tREFI"}

    def test_legal_sequence_is_clean(self):
        commands = [
            timed(0.0, act(0, 7)),
            timed(T.tRCD, rd(0, 0)),
            timed(T.tRAS, pre(0)),
            timed(T.tRAS + T.tRP, act(0, 8)),
            timed(T.tRAS + T.tRP + T.tRCD, wr(0, 1)),
        ]
        report = TimingChecker(T).replay(commands)
        assert report.ok
        assert report.checks["tRC"] == 2  # counted even when prev exists once

    def test_out_of_order_log_is_time_sorted(self):
        # The engine logs in per-bank service order; the checker must
        # sort by time before replaying or cross-bank rules misfire.
        commands = [
            timed(T.tRRD_S / 2, act(1, 9)),
            timed(0.0, act(0, 7)),
        ]
        report = TimingChecker(T).replay(commands)
        assert {v.rule for v in report.violations} == {"tRRD_S"}


class TestEngineConformance:
    @pytest.mark.parametrize("speed", [3200, 2666])
    @pytest.mark.parametrize("suite", ["ycsb", "spec17"])
    def test_synthetic_runs_are_conformant(self, speed, suite):
        config = small_config(
            cores=2, requests_per_core=400, timing=device_for(speed)
        )
        system = MemorySystem(config, suite_traces(config, suite))
        result, report = check_run(system)
        assert report.ok, report.render_text()
        assert result.activations > 0
        act_count = report.checks["tRC"]
        assert act_count == result.activations

    @pytest.mark.parametrize("name", sorted(DEFENSE_CLASSES))
    def test_defended_runs_are_conformant(self, name):
        config = small_config(
            cores=2, requests_per_core=300, defense_epoch_ns=100_000.0
        )
        defense = DEFENSE_CLASSES[name](
            512, rows_per_bank=config.rows_per_bank, seed=0
        )
        system = MemorySystem(
            config, suite_traces(config, "spec06"), defense=defense, seed=0
        )
        _, report = check_run(system)
        assert report.ok, report.render_text()

    @pytest.mark.parametrize("timing", [LPDDR4_3200, DDR5_4800],
                             ids=lambda t: t.generation)
    def test_other_generations_are_conformant(self, timing):
        # LPDDR4's per-bank and DDR5's same-bank refresh, replayed
        # against rulebooks derived from their own rule tables.
        config = small_config(
            cores=2, requests_per_core=400, timing=timing
        )
        system = MemorySystem(config, suite_traces(config))
        result, report = check_run(system)
        assert report.ok, report.render_text()
        assert result.refreshes_issued > 0
        refresh_rule = (
            "tRFCpb" if timing is LPDDR4_3200 else "tRFCsb"
        )
        assert report.checks[refresh_rule] > 0

    def test_adversarial_traces_are_conformant(self):
        config = small_config(cores=2, requests_per_core=300)
        traces = [
            HydraAdversarialTrace(rows_per_bank=config.rows_per_bank,
                                  bank_stride=config.total_banks),
            RrsAdversarialTrace(),
        ]
        _, report = check_run(MemorySystem(config, traces))
        assert report.ok, report.render_text()

    def test_fig12_default_scale_cell_is_conformant(self):
        # One cell of the fig12 grid at its default scale: the
        # Table 4 system, a seeded 8-core mix, PARA at HC_first=1024.
        from repro.workloads.mixes import build_traces, generate_mixes

        config = SystemConfig(
            requests_per_core=4000, defense_epoch_ns=DEFENSE_EPOCH_NS
        )
        mix = generate_mixes(1, cores=config.cores, seed=42)[0]
        traces = build_traces(mix, config)
        defense = DEFENSE_CLASSES["PARA"](
            1024, rows_per_bank=config.rows_per_bank, seed=0
        )
        system = MemorySystem(config, traces, defense=defense, seed=0)
        result, report = check_run(system)
        assert report.ok, report.render_text()
        # Every demand activation appears in the log exactly once.
        act_checks = report.checks["tRC"]
        assert act_checks == result.activations
        assert report.checks["tRCD"] == config.cores * config.requests_per_core
        assert result.refreshes_issued > 0
        assert report.checks["tRFC"] > 0

    def test_inflated_rulebook_flags_a_legal_stream(self):
        # The inverse mutation: the engine's stream is legal for its
        # own timing but must violate a rulebook with 4x tRCD.
        config = small_config(requests_per_core=300)
        log = []
        MemorySystem(config, suite_traces(config)).run(command_log=log)
        strict = dataclasses.replace(T, tRCD=4 * T.tRCD)
        report = TimingChecker(strict).replay(log)
        assert not report.ok
        assert report.violations_for("tRCD")

    def test_logging_does_not_change_results(self):
        def run(with_log):
            config = small_config(cores=2, requests_per_core=400)
            system = MemorySystem(config, suite_traces(config), seed=3)
            if with_log:
                return system.run(command_log=[]), None
            return system.run(), None

        plain, _ = run(False)
        logged, _ = run(True)
        assert plain.total_ns == logged.total_ns
        assert plain.finish_times() == logged.finish_times()
        assert plain.row_hits == logged.row_hits
        assert plain.row_misses == logged.row_misses
        assert plain.activations == logged.activations
        assert plain.refreshes_issued == logged.refreshes_issued
        assert (
            [core.total_latency_ns for core in plain.cores]
            == [core.total_latency_ns for core in logged.cores]
        )


class FixedTrace:
    def __init__(self, steps):
        self.steps = list(steps)
        self._i = 0

    def next_step(self, chain):
        step = self.steps[self._i % len(self.steps)]
        self._i += 1
        return step


class TestEngineEdgeCases:
    def test_single_bank_system_is_conformant(self):
        config = small_config(
            ranks=1, bank_groups=1, banks_per_group=1, requests_per_core=150
        )
        trace = FixedTrace([
            TraceStep(bank=0, row=r % 16, column=r % 4, gap_ns=8.0)
            for r in range(32)
        ])
        result, report = check_run(MemorySystem(config, [trace]))
        assert report.ok, report.render_text()
        assert config.total_banks == 1
        assert result.cores[0].completed_requests == 150
        # Pinned counters: logging must never perturb the schedule.
        assert (result.row_hits, result.row_misses) == (0, 150)
        assert result.activations == 150
        assert result.total_ns == pytest.approx(6795.25)

    def test_more_mlp_than_requests_is_conformant(self):
        config = small_config(mlp_per_core=8, requests_per_core=4)
        trace = FixedTrace([
            TraceStep(bank=b % 4, row=1, column=0, gap_ns=0.0)
            for b in range(8)
        ])
        result, report = check_run(MemorySystem(config, [trace]))
        assert report.ok, report.render_text()
        assert result.cores[0].completed_requests == 4
        assert result.activations == 4

    def test_refresh_mid_queue_is_conformant(self):
        # Slow arrivals keep requests queued across the first tREFI
        # boundary, so the refresh lands with work in flight.
        config = small_config(requests_per_core=250)
        trace = FixedTrace([
            TraceStep(bank=b % 4, row=(b * 7) % 64, column=0, gap_ns=40.0)
            for b in range(16)
        ])
        result, report = check_run(MemorySystem(config, [trace]))
        assert report.ok, report.render_text()
        assert result.refreshes_issued == 1
        assert result.activations == 250
        assert result.total_ns == pytest.approx(10721.25)
        assert report.checks["tRFC"] > 0
        assert report.checks["tREFI"] > 0
