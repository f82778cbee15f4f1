#!/usr/bin/env python
"""`make conformance-smoke`: the JEDEC conformance oracle end to end.

Four parts, all cheap enough for every ``make test``:

1. a tiny sweep -- every device generation (DDR4-3200, DDR4-2666,
   LPDDR4-3200, DDR5-4800), undefended and under every defense, over
   four suites -- runs with command logging on and must replay with
   **zero** violations against the rulebook derived from its own
   generation's rule table.  Every cell must exercise its generation's
   refresh rule (DDR4's tRFC, LPDDR4's per-bank tRFCpb, DDR5's
   same-bank tRFCsb), and every defended cell must issue its own kind
   of mitigation (victim refreshes, throttles, counter traffic,
   migrations, swaps), so the engine's pacing of each kind is replayed;
2. the same checker is handed a deliberately broken rulebook (inflated
   tRCD/tRAS/tRRD_S) and must flag a legal stream -- proving the smoke
   would actually fail if the engine or the checker went quiet;
3. the refactor guard: `runner check-timing --json` at the default
   DDR4-3200 settings must emit a document byte-identical to
   ``tests/golden/check_timing_ddr4.json``;
4. record-and-replay: every defended cell of the sweep, at HC_first 64
   and at 4096, also runs through :class:`repro.sim.engine.Recording`
   (the path Fig 12 and the bins ablation take), and its
   ``SimulationResult`` and ``DefenseStats`` must equal the plain
   run's.  The smoke prints how many cells took each path and fails if
   none took the replay-only path (a defense that never acts).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.defenses import DEFENSE_CLASSES  # noqa: E402
from repro.dram.timing import device_for  # noqa: E402
from repro.experiments import runner  # noqa: E402
from repro.sim.config import SystemConfig  # noqa: E402
from repro.sim.conformance import TimingChecker, check_run  # noqa: E402
from repro.sim.engine import MemorySystem, Recording  # noqa: E402
from repro.workloads.mixes import synthetic_traces  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "check_timing_ddr4.json"

#: (device, suite, defense, HC_first) cells.  BlockHammer, Hydra, AQUA
#: and RRS run at HC_first 64: at 512 none of them mitigates within 400
#: requests per core.
SWEEP = [
    ("DDR4-3200", "ycsb", None, None),
    ("DDR4-3200", "ycsb", "PARA", 512),
    ("DDR4-3200", "spec17", "PARA", 512),
    ("DDR4-3200", "mediabench", None, None),
    ("DDR4-3200", "ycsb", "Hydra", 64),
    ("DDR4-3200", "ycsb", "AQUA", 64),
    ("DDR4-3200", "ycsb", "RRS", 64),
    ("DDR4-2666", "spec17", None, None),
    ("DDR4-2666", "spec17", "BlockHammer", 64),
    ("DDR4-2666", "tpc", None, None),
    ("DDR4-2666", "tpc", "PARA", 512),
    ("DDR4-2666", "ycsb", "PARA", 512),
    ("LPDDR4-3200", "ycsb", None, None),
    ("LPDDR4-3200", "spec17", "PARA", 512),
    ("DDR5-4800", "ycsb", None, None),
    ("DDR5-4800", "spec17", "PARA", 512),
]

#: The refresh rule each generation's rulebook must actually exercise.
REFRESH_RULE = {
    "DDR4": "tRFC",
    "LPDDR4": "tRFCpb",
    "DDR5": "tRFCsb",
}

#: The DefenseStats counters that show a defense issuing its own kind
#: of mitigation; a defended cell must raise every one of them.
OWN_MITIGATIONS = {
    "PARA": ("victim_refreshes",),
    "BlockHammer": ("throttle_events",),
    "Hydra": ("victim_refreshes", "counter_reads"),
    "AQUA": ("migrations",),
    "RRS": ("swaps",),
}

#: `runner check-timing` arguments whose JSON document the golden pins.
CHECK_TIMING_ARGS = [
    "check-timing", "--json", "--cores", "2", "--requests-per-core", "1500",
    "--rows-per-bank", "4096", "--suite", "ycsb", "--seed", "0",
]


def build_system(device: str, suite: str, defense_name, hc_first) -> MemorySystem:
    config = SystemConfig(
        cores=2,
        ranks=1,
        bank_groups=2,
        banks_per_group=2,
        rows_per_bank=4096,
        requests_per_core=400,
        mlp_per_core=2,
        timing=device_for(device),
        defense_epoch_ns=100_000.0 if defense_name else None,
    )
    traces = synthetic_traces([suite] * config.cores, config, 17)
    defense = None
    if defense_name is not None:
        defense = DEFENSE_CLASSES[defense_name](
            hc_first, rows_per_bank=config.rows_per_bank, seed=0
        )
    return MemorySystem(config, traces, defense=defense, seed=0)


def main() -> int:
    print("conformance-smoke: replaying logged command streams")
    total_commands = 0
    for device, suite, defense_name, hc_first in SWEEP:
        system = build_system(device, suite, defense_name, hc_first)
        result, report = check_run(system)
        label = f"{device}/{suite}/{defense_name or 'none'}"
        if defense_name is not None:
            label += f"/HC{hc_first}"
        if not report.ok:
            print(f"  FAIL {label}:")
            print(report.render_text())
            return 1
        refresh_rule = REFRESH_RULE[device.split("-")[0]]
        if report.checks.get(refresh_rule, 0) <= 0:
            print(
                f"  FAIL {label}: rulebook never exercised {refresh_rule} "
                f"(checks: {sorted(report.checks)})"
            )
            return 1
        mitigations = ""
        if defense_name is not None:
            stats = system.defense.stats
            counts = {
                name: getattr(stats, name) for name in OWN_MITIGATIONS[defense_name]
            }
            if not all(counts.values()):
                print(f"  FAIL {label}: no mitigation of its own kind ({counts})")
                return 1
            mitigations = ", " + ", ".join(
                f"{count} {name}" for name, count in counts.items()
            )
        total_commands += report.commands
        print(
            f"  ok {label}: {report.commands} commands, "
            f"{sum(report.checks.values())} checks, "
            f"{report.checks[refresh_rule]}x {refresh_rule}, "
            f"{result.activations} ACTs{mitigations}"
        )

    # Negative control: a rulebook with inflated minimums must reject
    # the same (legal) stream, or the positive half proves nothing.
    system = build_system("DDR4-3200", "ycsb", "PARA", 512)
    log = []
    system.run(command_log=log)
    timing = device_for("DDR4-3200")
    broken = dataclasses.replace(
        timing,
        tRCD=4 * timing.tRCD,
        tRAS=2 * timing.tRAS,
        tRRD_S=8 * timing.tRRD_S,
    )
    report = TimingChecker(broken).replay(log)
    if report.ok:
        print("  FAIL negative control: broken rulebook found no violations")
        return 1
    flagged = sorted({violation.rule for violation in report.violations})
    print(
        f"  ok negative control: broken rulebook flags "
        f"{len(report.violations)} violations ({', '.join(flagged)})"
    )

    # Refactor guard: the DDR4 check-timing document must not have
    # moved by a single byte since before the generation model landed.
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = runner.main(CHECK_TIMING_ARGS)
    if status != 0:
        print(f"  FAIL check-timing exited {status}")
        return 1
    golden = GOLDEN.read_text()
    if stdout.getvalue() != golden:
        print("  FAIL DDR4 check-timing output drifted from the golden:")
        print(f"    golden: {GOLDEN}")
        print(f"    got {len(stdout.getvalue())} bytes, want {len(golden)} bytes")
        return 1
    print(f"  ok DDR4 check-timing byte-identical to {GOLDEN.name}")

    if not replay_matches_plain():
        return 1
    print(f"conformance-smoke passed ({total_commands} commands replayed)")
    return 0


def replay_matches_plain() -> bool:
    """Part 4: each defended cell through record-and-replay."""
    paths = {"replay only": 0, "replay + simulation": 0}
    original_run = MemorySystem.run
    for device, suite, defense_name, _ in SWEEP:
        if defense_name is None:
            continue
        for hc_first in (64, 4096):
            label = f"{device}/{suite}/{defense_name}/HC{hc_first}"
            plain_system = build_system(device, suite, defense_name, hc_first)
            plain = plain_system.run()

            def traces():
                return build_system(device, suite, defense_name, hc_first).traces

            system = build_system(device, suite, defense_name, hc_first)
            recording = Recording(system.config, traces)
            simulations = []

            def counted_run(memory_system, **kwargs):
                simulations.append(memory_system)
                return original_run(memory_system, **kwargs)

            MemorySystem.run = counted_run
            try:
                replayed = recording.run(system.defense)
            finally:
                MemorySystem.run = original_run
            if replayed != plain or system.defense.stats != plain_system.defense.stats:
                print(f"  FAIL replay of {label} differs from its plain run")
                return False
            paths["replay + simulation" if simulations else "replay only"] += 1
    summary = ", ".join(f"{count} {path}" for path, count in paths.items())
    if not paths["replay only"]:
        print(f"  FAIL no defended cell took the replay-only path ({summary})")
        return False
    print(f"  ok record-and-replay equals the plain run: {summary}")
    return True


if __name__ == "__main__":
    raise SystemExit(main())
