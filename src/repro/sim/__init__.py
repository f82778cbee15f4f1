"""Event-driven DDR4 memory-system simulator (the Ramulator analogue).

The paper evaluates Svärd with cycle-level Ramulator simulations of an
8-core system (Table 4).  This package implements an event-driven
simulator at DRAM-command granularity: FR-FCFS scheduling with a
column cap, open-row policy, bank/rank timing (tRCD/tRP/tRAS/tCCD/
tRRD/tFAW), periodic refresh, MLP-limited core frontends, and a
defense hook on every row activation that charges each preventive
action's DRAM cost.

* :mod:`repro.sim.config` -- the Table 4 system configuration.
* :mod:`repro.sim.engine` -- the event-driven simulator core.
* :mod:`repro.sim.metrics` -- weighted/harmonic speedup, max slowdown.
* :mod:`repro.sim.conformance` -- the command-granular JEDEC timing
  rulebook and checker that replays the engine's logged command
  stream as an independent oracle.
"""

from repro.sim.config import SystemConfig, MitigationCosts
from repro.sim.engine import MemorySystem, SimulationResult, CoreResult
from repro.sim.conformance import (
    ConformanceReport,
    TimingChecker,
    TimingRule,
    Violation,
    check_run,
    timing_rules,
)
from repro.sim.metrics import (
    harmonic_speedup,
    max_slowdown,
    weighted_speedup,
    MultiProgramMetrics,
    compute_metrics,
)

__all__ = [
    "SystemConfig",
    "MitigationCosts",
    "MemorySystem",
    "SimulationResult",
    "CoreResult",
    "ConformanceReport",
    "TimingChecker",
    "TimingRule",
    "Violation",
    "check_run",
    "timing_rules",
    "weighted_speedup",
    "harmonic_speedup",
    "max_slowdown",
    "MultiProgramMetrics",
    "compute_metrics",
]
