"""Tests for the memory-system simulator and metrics."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.defenses import DEFENSE_CLASSES
from repro.defenses.base import MITIGATION_ACCOUNTING, RowMigration, RowSwap
from repro.defenses.blockhammer import BlockHammer
from repro.defenses.para import Para
from repro.defenses.rrs import RandomizedRowSwap
from repro.dram.timing import device_for
from repro.experiments import attack_manysided, fig13_adversarial
from repro.experiments.common import (
    DEFENSE_EPOCH_NS,
    ExperimentScale,
    svard_configurations,
)
from repro.sim.config import MitigationCosts, SystemConfig
from repro.sim.engine import MemorySystem, TraceStep
from repro.sim.metrics import (
    compute_metrics,
    harmonic_speedup,
    max_slowdown,
    weighted_speedup,
)
from repro.workloads.mixes import synthetic_traces
from repro.workloads.suites import profile_by_name
from repro.workloads.synthetic import SyntheticTrace


class FixedTrace:
    """Deterministic trace for unit tests."""

    def __init__(self, steps):
        self.steps = list(steps)
        self._i = 0

    def next_step(self, chain):
        step = self.steps[self._i % len(self.steps)]
        self._i += 1
        return step


def small_config(**overrides):
    defaults = dict(
        cores=1, ranks=1, bank_groups=2, banks_per_group=2,
        rows_per_bank=4096, requests_per_core=200, mlp_per_core=2,
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


class TestSystemConfig:
    def test_table4_defaults(self):
        config = SystemConfig()
        assert config.cores == 8
        assert config.ranks == 2
        assert config.total_banks == 32
        assert config.rows_per_bank == 128 * 1024
        assert config.column_cap == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(cores=0)
        with pytest.raises(ValueError):
            SystemConfig(column_cap=0)
        for geometry in (
            {"rows_per_bank": 0}, {"columns_per_row": 0}, {"bank_groups": 0},
        ):
            with pytest.raises(ValueError):
                SystemConfig(**geometry)
        # A negative epoch used to hang the run; 0 used to mean tREFW.
        for epoch_ns in (-1000.0, 0.0, float("nan")):
            with pytest.raises(ValueError):
                SystemConfig(defense_epoch_ns=epoch_ns)

    def test_mitigation_costs_ordering(self):
        costs = MitigationCosts()
        assert costs.victim_refresh_ns < costs.counter_access_ns
        assert costs.counter_access_ns < costs.row_copy_half_ns
        # The engine charges row copies in halves: a swap is two
        # migrations, each a row read out and written back.
        _, migration_halves, _ = MITIGATION_ACCOUNTING[RowMigration]
        _, swap_halves, _ = MITIGATION_ACCOUNTING[RowSwap]
        assert swap_halves(None) == 2 * migration_halves(None) == 4


class TestEngineBasics:
    def test_all_requests_complete(self):
        config = small_config()
        trace = FixedTrace([TraceStep(bank=0, row=5, column=c % 8, gap_ns=10.0)
                            for c in range(8)])
        result = MemorySystem(config, [trace]).run()
        assert result.cores[0].completed_requests == 200
        assert result.total_ns > 0

    def test_row_hits_cheaper_than_misses(self):
        config = small_config(requests_per_core=300)
        hit_trace = FixedTrace([TraceStep(bank=0, row=5, column=c % 64, gap_ns=5.0)
                                for c in range(64)])
        miss_trace = FixedTrace([TraceStep(bank=0, row=r, column=0, gap_ns=5.0)
                                 for r in range(64)])
        t_hits = MemorySystem(config, [hit_trace]).run().cores[0].finish_ns
        t_miss = MemorySystem(small_config(requests_per_core=300),
                              [miss_trace]).run().cores[0].finish_ns
        assert t_hits < t_miss * 0.6

    def test_row_hit_rate_reported(self):
        config = small_config()
        trace = FixedTrace([TraceStep(bank=0, row=5, column=c % 32, gap_ns=5.0)
                            for c in range(32)])
        result = MemorySystem(config, [trace]).run()
        assert result.row_hit_rate > 0.8

    def test_bank_parallelism_helps(self):
        serial = FixedTrace([TraceStep(bank=0, row=r % 64, column=0, gap_ns=2.0)
                             for r in range(64)])
        parallel = FixedTrace([TraceStep(bank=r % 4, row=r % 64, column=0, gap_ns=2.0)
                               for r in range(64)])
        t_serial = MemorySystem(small_config(mlp_per_core=4),
                                [serial]).run().cores[0].finish_ns
        t_parallel = MemorySystem(small_config(mlp_per_core=4),
                                  [parallel]).run().cores[0].finish_ns
        assert t_parallel < t_serial

    def test_refresh_issued(self):
        config = small_config(requests_per_core=2000)
        trace = FixedTrace([TraceStep(bank=0, row=r % 16, column=0, gap_ns=100.0)
                            for r in range(16)])
        result = MemorySystem(config, [trace]).run()
        assert result.refreshes_issued >= 1

    def test_trace_count_must_match_cores(self):
        config = small_config(cores=2)
        with pytest.raises(ValueError):
            MemorySystem(config, [FixedTrace([TraceStep(0, 0, 0)])])

    def test_multicore_contention_slows_cores(self):
        trace_factory = lambda: FixedTrace(
            [TraceStep(bank=0, row=r % 32, column=0, gap_ns=5.0) for r in range(32)]
        )
        alone = MemorySystem(small_config(), [trace_factory()]).run()
        shared = MemorySystem(
            small_config(cores=4), [trace_factory() for _ in range(4)]
        ).run()
        assert max(shared.finish_times()) > alone.cores[0].finish_ns

    def test_deterministic(self):
        config = small_config()
        make = lambda: SyntheticTrace(
            profile_by_name("ycsb"), total_banks=config.total_banks,
            rows_per_bank=config.rows_per_bank, seed=3,
        )
        a = MemorySystem(config, [make()]).run()
        b = MemorySystem(config, [make()]).run()
        assert a.finish_times() == b.finish_times()


class TestDefenseIntegration:
    def test_para_adds_overhead(self):
        config = small_config(requests_per_core=500)
        make = lambda: FixedTrace(
            [TraceStep(bank=0, row=r % 64, column=0, gap_ns=2.0) for r in range(64)]
        )
        base = MemorySystem(config, [make()]).run().cores[0].finish_ns
        defended = MemorySystem(
            config, [make()],
            defense=Para(64, rows_per_bank=config.rows_per_bank, seed=0),
        ).run().cores[0].finish_ns
        assert defended > base * 1.2

    def test_overhead_grows_as_threshold_shrinks(self):
        config = small_config(requests_per_core=500)
        make = lambda: FixedTrace(
            [TraceStep(bank=0, row=r % 64, column=0, gap_ns=2.0) for r in range(64)]
        )
        times = {}
        for hc in (4096, 256, 64):
            defense = Para(hc, rows_per_bank=config.rows_per_bank, seed=0)
            times[hc] = MemorySystem(config, [make()], defense=defense).run().cores[0].finish_ns
        assert times[64] > times[256] > times[4096]

    @pytest.mark.parametrize("device, defense_epoch_ns, engine_epoch_ns", [
        ("DDR4-3200", 100_000.0, 100_000.0),
        # Unset, the engine resets on DDR5's 32 ms refresh window.
        ("DDR5-4800", None, 32_000_000.0),
    ])
    def test_blockhammer_paces_on_the_engine_epoch(
        self, device, defense_epoch_ns, engine_epoch_ns
    ):
        """The engine owns the epoch: BlockHammer sizes its throttle
        gap from the window the engine resets it on."""
        config = small_config(
            timing=device_for(device), defense_epoch_ns=defense_epoch_ns
        )
        defense = BlockHammer(64, rows_per_bank=config.rows_per_bank, seed=0)
        trace = FixedTrace(
            [TraceStep(bank=0, row=r, column=0, gap_ns=2.0) for r in (7, 9)]
        )
        MemorySystem(config, [trace], defense=defense).run()
        assert defense.stats.throttle_events > 0
        assert defense.minimum_gap_ns(64) == engine_epoch_ns / (
            defense.quota_fraction * 64
        )

    def test_rrs_swaps_expensive(self):
        config = small_config(requests_per_core=400)
        make = lambda: FixedTrace(
            [TraceStep(bank=0, row=r, column=0, gap_ns=2.0) for r in (7, 9)]
        )
        base = MemorySystem(config, [make()]).run().cores[0].finish_ns
        defense = RandomizedRowSwap(64, rows_per_bank=config.rows_per_bank, seed=0)
        defended = MemorySystem(config, [make()], defense=defense).run()
        assert defended.cores[0].finish_ns > base * 1.5
        assert defense.stats.swaps > 0


ENGINE_CELLS_GOLDEN = Path(__file__).parent / "golden" / "engine_cells.json"
ENGINE_CELL_DEVICES = ("DDR4-3200", "LPDDR4-3200", "DDR5-4800")
ENGINE_CELL_DEFENSES = (None,) + tuple(sorted(DEFENSE_CLASSES))


def _engine_cell(device, defense_name):
    """A cell configured as ``scripts/conformance_smoke.py`` builds one.

    Every defense runs at HC_first 64, where each issues its own kind
    of mitigation in 400 requests per core; at 512, where the smoke
    also runs PARA, only PARA does.
    """
    config = SystemConfig(
        cores=2, ranks=1, bank_groups=2, banks_per_group=2,
        rows_per_bank=4096, requests_per_core=400, mlp_per_core=2,
        timing=device_for(device),
        defense_epoch_ns=100_000.0 if defense_name else None,
    )
    traces = synthetic_traces(["ycsb"] * config.cores, config, 17)
    defense = None
    if defense_name is not None:
        defense = DEFENSE_CLASSES[defense_name](
            64, rows_per_bank=config.rows_per_bank, seed=0
        )
    return MemorySystem(config, traces, defense=defense, seed=0)


def _exact(value):
    """Floats as ``float.hex()`` so the golden pins every bit."""
    return float(value).hex() if isinstance(value, float) else value


def _run_outcome(system, result):
    """Per-core times, controller counters and the defense's stats."""
    outcome = {
        "finish_ns": [_exact(core.finish_ns) for core in result.cores],
        "latency_sum_ns": [_exact(core.total_latency_ns) for core in result.cores],
        "completed": [core.completed_requests for core in result.cores],
        "total_ns": _exact(result.total_ns),
        "row_hits": result.row_hits,
        "row_misses": result.row_misses,
        "activations": result.activations,
        "refreshes_issued": result.refreshes_issued,
    }
    if system.defense is not None:
        outcome["defense_stats"] = {
            name: _exact(value)
            for name, value in dataclasses.asdict(system.defense.stats).items()
        }
    return outcome


def _engine_cell_outcome(device, defense_name, logged):
    system = _engine_cell(device, defense_name)
    log = [] if logged else None
    outcome = _run_outcome(system, system.run(command_log=log))
    if logged:
        digest = hashlib.sha256()
        for entry in log:
            command = entry.command
            digest.update(
                f"{_exact(float(entry.time_ns))} {command.kind.name} "
                f"{command.rank} {command.bank} {command.row} "
                f"{command.column}\n".encode()
            )
        outcome["command_log"] = {"length": len(log), "sha256": digest.hexdigest()}
    return outcome


def test_engine_cells_match_golden(request):
    """Every generation's exact schedule, undefended and per defense.

    Pins the LPDDR4 per-bank and DDR5 same-bank refresh paths and each
    mitigation kind's pacing bit for bit, with command logging off and
    on.  Regenerate with ``pytest tests/test_sim_engine.py
    --update-golden`` only after an intentional behavior change.
    """
    cells = {
        f"{device}|{defense_name or 'none'}|{'log' if logged else 'nolog'}":
            _engine_cell_outcome(device, defense_name, logged)
        for device in ENGINE_CELL_DEVICES
        for defense_name in ENGINE_CELL_DEFENSES
        for logged in (False, True)
    }
    if request.config.getoption("--update-golden"):
        ENGINE_CELLS_GOLDEN.write_text(json.dumps(cells, indent=1, sort_keys=True) + "\n")
        return
    golden = json.loads(ENGINE_CELLS_GOLDEN.read_text())
    assert sorted(cells) == sorted(golden)
    for key, outcome in cells.items():
        assert outcome == golden[key], f"{key} drifted from the golden"
    for key, outcome in cells.items():
        if key.endswith("|log"):
            logged = dict(outcome)
            del logged["command_log"]
            assert logged == cells[key[:-len("log")] + "nolog"], (
                f"{key}: command logging changed the schedule"
            )


ADVERSARIAL_CELLS_GOLDEN = Path(__file__).parent / "golden" / "adversarial_cells.json"
#: Fig 13's and attack-manysided's parity scale; every cell runs this
#: many requests per core, enough for Hydra's RCC write-backs under
#: both threshold providers and for RRS swaps in every cell.
ADVERSARIAL_SCALE = ExperimentScale(
    rows_per_bank=1024, banks=(1,), svard_profiles=("S0",), seed=3,
)
ADVERSARIAL_REQUESTS_PER_CORE = 2000


def _adversarial_cells():
    """``{name: MemorySystem}`` for every cell of Fig 13 and
    attack-manysided at a reduced request count, each defended cell
    built by the experiments' own :func:`fig13_adversarial.attack_cell`."""
    scale = ADVERSARIAL_SCALE
    config = scale.system_config(
        requests_per_core=ADVERSARIAL_REQUESTS_PER_CORE,
        defense_epoch_ns=DEFENSE_EPOCH_NS,
    )
    attack_cell = fig13_adversarial.attack_cell
    cells = {}
    for name in fig13_adversarial.Fig13Experiment.DEFENSE_NAMES:
        traces = fig13_adversarial._adversarial_traces
        cells[f"fig13|baseline|{name}"] = MemorySystem(config, traces(name, config))
        for configuration in svard_configurations(scale):
            cells[f"fig13|{name}|{configuration}"] = attack_cell(
                traces, name, name, configuration, scale, config
            )
    for n_sides in attack_manysided.N_SIDES_SWEEP:
        traces = attack_manysided._attack_traces
        cells[f"manysided|baseline|{n_sides}"] = MemorySystem(
            config, traces(n_sides, config)
        )
        for name in attack_manysided.ManySidedExperiment.DEFENSE_NAMES:
            for configuration in svard_configurations(scale):
                cells[f"manysided|{name}|{n_sides}|{configuration}"] = attack_cell(
                    traces, n_sides, name, configuration, scale, config
                )
    return cells


def test_adversarial_cells_match_golden(request):
    """Fig 13's and attack-manysided's cells, bit for bit.

    ``engine_cells.json`` runs ycsb traces under global thresholds and
    Hydra's default 4,096-entry RCC; these pin the adversarial traces,
    the RCC write-back path and Svärd thresholds under every defense
    the attack experiments run.  Regenerate with ``pytest
    tests/test_sim_engine.py --update-golden`` only after an
    intentional behavior change.
    """
    outcomes = {
        key: _run_outcome(system, system.run())
        for key, system in _adversarial_cells().items()
    }
    if request.config.getoption("--update-golden"):
        ADVERSARIAL_CELLS_GOLDEN.write_text(
            json.dumps(outcomes, indent=1, sort_keys=True) + "\n"
        )
        return
    for key, outcome in outcomes.items():
        stats = outcome.get("defense_stats", {})
        if key.startswith("fig13|Hydra"):
            assert stats["counter_writes"] > 0, key
        if key.startswith("fig13|RRS"):
            assert stats["swaps"] > 0, key
    golden = json.loads(ADVERSARIAL_CELLS_GOLDEN.read_text())
    assert sorted(outcomes) == sorted(golden)
    for key, outcome in outcomes.items():
        assert outcome == golden[key], f"{key} drifted from the golden"


class TestMetrics:
    def test_weighted_speedup_identity(self):
        assert weighted_speedup([1.0, 1.0], [1.0, 1.0]) == pytest.approx(2.0)

    def test_weighted_speedup_slowdown(self):
        assert weighted_speedup([1.0, 1.0], [2.0, 2.0]) == pytest.approx(1.0)

    def test_harmonic_speedup(self):
        assert harmonic_speedup([1.0, 1.0], [1.0, 1.0]) == pytest.approx(1.0)
        assert harmonic_speedup([1.0, 1.0], [2.0, 2.0]) == pytest.approx(0.5)

    def test_max_slowdown(self):
        assert max_slowdown([1.0, 1.0], [3.0, 1.5]) == pytest.approx(3.0)

    def test_normalization(self):
        a = compute_metrics([1.0] * 4, [2.0] * 4)
        b = compute_metrics([1.0] * 4, [4.0] * 4)
        normalized = b.normalized_to(a)
        assert normalized.weighted_speedup == pytest.approx(0.5)
        assert normalized.max_slowdown == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_speedup([0.0], [1.0])

