"""Workload generation for the performance evaluation (Section 7.1).

The paper runs 120 randomly chosen 8-core multiprogrammed mixes from
SPEC CPU2006, SPEC CPU2017, TPC, MediaBench, and YCSB.  Those traces
are proprietary or enormous, so this package generates synthetic
post-LLC request streams whose knobs -- row-buffer locality, bank
parallelism, row-popularity skew, write ratio, and intensity --
reproduce the memory behaviour classes those suites cover.

* :mod:`repro.workloads.synthetic` -- the parameterized trace
  generator.
* :mod:`repro.workloads.suites` -- the five suite profiles.
* :mod:`repro.workloads.mixes` -- seeded construction of the 120
  8-core mixes and of any per-core list of synthetic traces.
* :mod:`repro.workloads.adversarial` -- the Fig 13 adversarial
  patterns against Hydra and RRS, plus many-sided (N-aggressor)
  hammering.
* :mod:`repro.workloads.tracefile` -- streamed ingestion of recorded
  ramulator/DRAMsim-style request traces (plain or gzip).
"""

from repro.workloads.synthetic import SuiteProfile, SyntheticTrace
from repro.workloads.suites import SUITE_PROFILES, profile_by_name
from repro.workloads.mixes import (
    WorkloadMix,
    build_traces,
    generate_mixes,
    synthetic_traces,
)
from repro.workloads.adversarial import (
    HydraAdversarialTrace,
    ManySidedHammerTrace,
    RrsAdversarialTrace,
)
from repro.workloads.tracefile import (
    TraceExhausted,
    TraceFileReader,
    TraceParseError,
    readers_for_cores,
)

__all__ = [
    "SuiteProfile",
    "SyntheticTrace",
    "SUITE_PROFILES",
    "profile_by_name",
    "WorkloadMix",
    "generate_mixes",
    "build_traces",
    "synthetic_traces",
    "HydraAdversarialTrace",
    "ManySidedHammerTrace",
    "RrsAdversarialTrace",
    "TraceExhausted",
    "TraceFileReader",
    "TraceParseError",
    "readers_for_cores",
]
