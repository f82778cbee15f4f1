"""Record-and-replay against the plain engine run, compared with ``==``.

A defended cell of Fig 12 or the bins ablation does not simulate from
scratch: it replays its mix's undefended :class:`Recording` into the
defense and simulates again only if the defense acts (see
:meth:`repro.sim.engine.Recording.run`).  The oracle is the plain run,
``MemorySystem(config, traces, defense=fresh).run()``: every
``SimulationResult`` field (floats by ``float.hex()``), every
``DefenseStats`` field and every hook call must match.
"""

from collections import OrderedDict
from dataclasses import asdict, replace

import pytest

from repro.defenses import DEFENSE_CLASSES
from repro.defenses.base import Defense, ThrottleDelay, VictimRefresh
from repro.dram.timing import device_for
from repro.experiments import common
from repro.experiments.common import (
    DEFENSE_EPOCH_NS,
    ExperimentScale,
    defended_run,
    mix_recording,
    svard_configurations,
    svard_thresholds,
)
from repro.experiments.fig12_performance import Fig12Experiment
from repro.orchestration import serial_context
from repro.sim.config import SystemConfig
from repro.sim.engine import MemorySystem, Recording
from repro.workloads.mixes import build_traces, generate_mixes, synthetic_traces

GENERATIONS = ("DDR4-3200", "DDR5-4800", "LPDDR4-3200")


def exact(result):
    """Every field of a SimulationResult, floats as ``float.hex()``."""
    return (
        [
            (core.core, core.completed_requests, core.finish_ns.hex(),
             core.total_latency_ns.hex())
            for core in result.cores
        ],
        result.total_ns.hex(),
        result.row_hits,
        result.row_misses,
        result.activations,
        result.refreshes_issued,
    )


def stats_of(defense):
    return {
        name: value.hex() if isinstance(value, float) else value
        for name, value in asdict(defense.stats).items()
    }


def logging_hooks(defense):
    """Log every hook call the defense receives, in order."""
    calls = []
    on_activation = defense.on_activation
    on_refresh_window = defense.on_refresh_window

    def activation(bank, row, now_ns):
        calls.append((bank, row, now_ns.hex()))
        return on_activation(bank, row, now_ns)

    def refresh_window(now_ns):
        calls.append(("epoch", now_ns.hex()))
        on_refresh_window(now_ns)

    defense.on_activation = activation
    defense.on_refresh_window = refresh_window
    return calls


def assert_replay_matches_plain(recording, make_traces, make_defense):
    """Returns whether the defense acted (so took the simulating path)."""
    plain_defense = make_defense()
    plain_calls = logging_hooks(plain_defense)
    plain = MemorySystem(
        recording.config, make_traces(), defense=plain_defense
    ).run()

    replayed_defense = make_defense()
    replayed_calls = logging_hooks(replayed_defense)
    simulations = []
    original_run = MemorySystem.run

    def counted_run(system, **kwargs):
        simulations.append(system)
        return original_run(system, **kwargs)

    MemorySystem.run = counted_run
    try:
        replayed = recording.run(replayed_defense)
    finally:
        MemorySystem.run = original_run

    assert exact(replayed) == exact(plain)
    assert stats_of(replayed_defense) == stats_of(plain_defense)
    # Each hook ran once per ACT and once per epoch, with the same
    # arguments in the same order.
    assert replayed_calls == plain_calls
    acts = sum(1 for call in plain_calls if call[0] != "epoch")
    assert acts == plain.activations == plain_defense.stats.activations_observed
    assert len(simulations) <= 1
    return bool(simulations)


# ----------------------------------------------------------------------
# Fig 12's quick grid: every defense x configuration x HC_first
# ----------------------------------------------------------------------


def quick_scale(seed, device=None):
    return replace(
        ExperimentScale(
            rows_per_bank=512, requests_per_core=400, seed=seed, device=device
        ),
        **Fig12Experiment.quick_overrides,
    )


@pytest.mark.parametrize(
    "seed, device, hc_values",
    [
        (0, None, None),
        (1, None, None),
        (0, "DDR5-4800", (256,)),
        (0, "LPDDR4-3200", (256,)),
    ],
)
def test_fig12_cells_replay_their_plain_run(seed, device, hc_values):
    scale = quick_scale(seed, device)
    config = Fig12Experiment()._config(scale)
    assert config.defense_epoch_ns == DEFENSE_EPOCH_NS
    mix = generate_mixes(1, cores=config.cores, seed=seed)[0]
    recording = mix_recording(mix, config)
    paths = {False: 0, True: 0}
    for configuration in svard_configurations(scale):
        for hc in hc_values or scale.hc_first_values:
            thresholds = svard_thresholds(configuration, hc, scale)
            for name in sorted(DEFENSE_CLASSES):
                acted = assert_replay_matches_plain(
                    recording,
                    lambda: build_traces(mix, config),
                    lambda: DEFENSE_CLASSES[name](
                        hc, thresholds=thresholds,
                        rows_per_bank=config.rows_per_bank, seed=seed,
                    ),
                )
                paths[acted] += 1
    # Both paths ran: replay alone, and replay plus a primed simulation.
    assert paths[False] and paths[True], paths


def test_defended_run_is_the_plain_run_and_never_aliases_the_memo():
    scale = quick_scale(0)
    config = Fig12Experiment()._config(scale)
    mix = generate_mixes(1, cores=config.cores, seed=0)[0]
    plain = MemorySystem(config, build_traces(mix, config)).run()
    first = defended_run(mix, config, DEFENSE_CLASSES["AQUA"](4096, seed=0))
    assert exact(first) == exact(plain)
    first.cores[0].finish_ns = -1.0
    first.cores.clear()
    second = defended_run(mix, config, DEFENSE_CLASSES["AQUA"](4096, seed=0))
    assert exact(second) == exact(plain)
    assert exact(mix_recording(mix, config).result()) == exact(plain)


# ----------------------------------------------------------------------
# The recorder: an undefended run that logs the hooks
# ----------------------------------------------------------------------


def small_config(device, epoch_ns, **overrides):
    fields = dict(
        cores=2, ranks=1, bank_groups=2, banks_per_group=2,
        rows_per_bank=4096, requests_per_core=600, mlp_per_core=2,
        timing=device_for(device), defense_epoch_ns=epoch_ns,
    )
    fields.update(overrides)
    return SystemConfig(**fields)


def small_traces(config):
    return synthetic_traces(["ycsb", "spec17"], config, 17)


@pytest.mark.parametrize("device", GENERATIONS)
@pytest.mark.parametrize("epoch_ns", [20_000.0, DEFENSE_EPOCH_NS, None])
def test_recorder_run_is_the_undefended_run(device, epoch_ns):
    config = small_config(device, epoch_ns)
    recording = Recording(config, lambda: small_traces(config))
    undefended = MemorySystem(config, small_traces(config)).run()
    assert exact(recording.result()) == exact(undefended)
    assert recording.epoch_ns == (epoch_ns or config.timing.tREFW)
    epochs = sum(1 for bank in recording._banks if bank < 0)
    assert len(recording._banks) - epochs == undefended.activations
    if epoch_ns == 20_000.0:
        assert epochs > 0


# ----------------------------------------------------------------------
# Stub defenses at the edges of the replay, and the real ones across
# epoch boundaries
# ----------------------------------------------------------------------


class StubDefense(Defense):
    """Acts (a victim refresh plus a throttle) on chosen ACTs only."""

    name = "stub"

    def __init__(self, acts_on, last):
        super().__init__(64, rows_per_bank=4096)
        self.acts_on = acts_on
        #: The recording's ACT count: the last ACT's call number.
        self.last = last
        self.calls = 0
        self.after_epoch = False

    def on_activation(self, bank, row, now_ns):
        self.stats.activations_observed += 1
        self.calls += 1
        act = self.acts_on(self)
        self.after_epoch = False
        if not act:
            return []
        mitigations = [
            VictimRefresh(bank=bank, rows=self.victim_rows(row)),
            ThrottleDelay(delay_ns=25.0),
        ]
        self.stats.record(mitigations)
        return mitigations

    def on_refresh_window(self, now_ns):
        self.after_epoch = True


STUBS = {
    "never": lambda stub: False,
    "first-act": lambda stub: stub.calls == 1,
    "last-act": lambda stub: stub.calls == stub.last,
    "after-epoch": lambda stub: stub.after_epoch,
    "every-97th": lambda stub: stub.calls % 97 == 0,
}


@pytest.mark.parametrize("device", GENERATIONS)
@pytest.mark.parametrize("stub", sorted(STUBS))
def test_stub_defenses_replay_their_plain_run(device, stub):
    config = small_config(device, 20_000.0)
    recording = Recording(config, lambda: small_traces(config))
    last = sum(1 for bank in recording._banks if bank >= 0)
    acted = assert_replay_matches_plain(
        recording,
        lambda: small_traces(config),
        lambda: StubDefense(STUBS[stub], last),
    )
    assert acted == (stub != "never")


@pytest.mark.parametrize("name", sorted(DEFENSE_CLASSES))
@pytest.mark.parametrize("hc_first", [64, 4096])
def test_defenses_replay_across_epochs(name, hc_first):
    config = small_config("DDR4-3200", 20_000.0, requests_per_core=800)
    recording = Recording(config, lambda: small_traces(config))
    assert any(bank < 0 for bank in recording._banks)
    assert_replay_matches_plain(
        recording,
        lambda: small_traces(config),
        lambda: DEFENSE_CLASSES[name](
            hc_first, rows_per_bank=config.rows_per_bank, seed=3
        ),
    )


# ----------------------------------------------------------------------
# The per-process memo
# ----------------------------------------------------------------------


def test_serial_fig12_records_each_mix_once(monkeypatch):
    recorded = []

    class CountingRecording(Recording):
        def __init__(self, config, traces):
            recorded.append(config)
            super().__init__(config, traces)

    monkeypatch.setattr(common, "Recording", CountingRecording)
    monkeypatch.setattr(common, "_RECORDINGS", OrderedDict())
    scale = ExperimentScale(
        rows_per_bank=512, requests_per_core=200, n_mixes=3,
        hc_first_values=(4096, 64), svard_profiles=("S0",),
    )
    result = Fig12Experiment(defenses=("BlockHammer", "PARA")).run(
        scale, serial_context()
    )
    assert len(result.metrics) == 2 * 2 * 2
    assert len(recorded) == 3
    assert len(common._RECORDINGS) == 2
