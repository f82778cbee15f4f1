#!/usr/bin/env python
"""`make conformance-smoke`: JEDEC conformance oracle end to end.

Two halves, both cheap enough for every ``make test``:

1. a tiny sweep (undefended and every defense, over four suites and
   two speed grades) runs with command logging on and must replay
   against the rulebook with **zero** violations; every defended cell
   must issue its own kind of mitigation (victim refreshes, throttles,
   counter traffic, migrations, swaps), so the engine's pacing of each
   kind is replayed;
2. the same checker is handed a deliberately broken rulebook (inflated
   tRCD/tRAS/tRRD_S) and must flag a legal stream -- proving the smoke
   would actually fail if the engine or the checker went quiet.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.defenses import DEFENSE_CLASSES  # noqa: E402
from repro.dram.timing import device_for  # noqa: E402
from repro.sim.config import SystemConfig  # noqa: E402
from repro.sim.conformance import TimingChecker, check_run  # noqa: E402
from repro.sim.engine import MemorySystem  # noqa: E402
from repro.workloads.suites import profile_by_name  # noqa: E402
from repro.workloads.synthetic import SyntheticTrace  # noqa: E402

#: (suite, defense, speed grade, HC_first) cells.  BlockHammer, Hydra,
#: AQUA and RRS run at HC_first 64: at 512 none of them mitigates
#: within 400 requests per core.
SWEEP = [
    ("ycsb", None, 3200, None),
    ("ycsb", "PARA", 3200, 512),
    ("spec17", None, 2666, None),
    ("spec17", "BlockHammer", 2666, 64),
    ("tpc", "PARA", 2666, 512),
    ("mediabench", None, 3200, None),
    ("ycsb", "Hydra", 3200, 64),
    ("ycsb", "AQUA", 3200, 64),
    ("ycsb", "RRS", 3200, 64),
]

#: The DefenseStats counters that show a defense issuing its own kind
#: of mitigation; a defended cell must raise every one of them.
OWN_MITIGATIONS = {
    "PARA": ("victim_refreshes",),
    "BlockHammer": ("throttle_events",),
    "Hydra": ("victim_refreshes", "counter_reads"),
    "AQUA": ("migrations",),
    "RRS": ("swaps",),
}


def build_system(suite: str, defense_name, speed: int, hc_first) -> MemorySystem:
    config = SystemConfig(
        cores=2,
        ranks=1,
        bank_groups=2,
        banks_per_group=2,
        rows_per_bank=4096,
        requests_per_core=400,
        mlp_per_core=2,
        timing=device_for(speed),
        defense_epoch_ns=100_000.0 if defense_name else None,
    )
    profile = profile_by_name(suite)
    traces = [
        SyntheticTrace(
            profile,
            total_banks=config.total_banks,
            rows_per_bank=config.rows_per_bank,
            columns_per_row=config.columns_per_row,
            seed=17 + core,
        )
        for core in range(config.cores)
    ]
    defense = None
    if defense_name is not None:
        kwargs = dict(rows_per_bank=config.rows_per_bank, seed=0)
        if defense_name == "BlockHammer":
            kwargs["epoch_ns"] = config.defense_epoch_ns
        defense = DEFENSE_CLASSES[defense_name](hc_first, **kwargs)
    return MemorySystem(config, traces, defense=defense, seed=0)


def main() -> int:
    print("conformance-smoke: replaying logged command streams")
    total_commands = 0
    for suite, defense_name, speed, hc_first in SWEEP:
        system = build_system(suite, defense_name, speed, hc_first)
        result, report = check_run(system)
        label = f"{suite}/{defense_name or 'none'}/DDR4-{speed}"
        if defense_name is not None:
            label += f"/HC{hc_first}"
        if not report.ok:
            print(f"  FAIL {label}:")
            print(report.render_text())
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
            f"{result.activations} ACTs{mitigations}"
        )

    # Negative control: a rulebook with inflated minimums must reject
    # the same (legal) stream, or the positive half proves nothing.
    system = build_system("ycsb", "PARA", 3200, 512)
    log = []
    system.run(command_log=log)
    timing = device_for(3200)
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
    print(f"conformance-smoke passed ({total_commands} commands replayed)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
