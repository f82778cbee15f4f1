"""Multiprogrammed workload mixes (the paper's 120 8-core mixes)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.sim.config import SystemConfig
from repro.workloads.suites import SUITE_NAMES, profile_by_name
from repro.workloads.synthetic import SyntheticTrace


@dataclass(frozen=True)
class WorkloadMix:
    """One multiprogrammed mix: a suite name per core."""

    name: str
    suites: Tuple[str, ...]
    seed: int

    def __post_init__(self) -> None:
        if not self.suites:
            raise ValueError("a mix needs at least one core")
        for suite in self.suites:
            profile_by_name(suite)  # validates


def generate_mixes(
    n_mixes: int = 120, cores: int = 8, seed: int = 0
) -> List[WorkloadMix]:
    """Randomly chosen mixes, reproducing the paper's methodology.

    Each mix draws one suite per core uniformly from the five suites,
    seeded so mix ``i`` is identical across runs and configurations.
    """
    if n_mixes < 1 or cores < 1:
        raise ValueError("need at least one mix and one core")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3135]))
    mixes = []
    for index in range(n_mixes):
        suites = tuple(
            SUITE_NAMES[int(k)] for k in rng.integers(0, len(SUITE_NAMES), cores)
        )
        mixes.append(WorkloadMix(name=f"mix{index:03d}", suites=suites, seed=seed + index))
    return mixes


def synthetic_traces(
    suites: Sequence[str], config: SystemConfig, first_seed: int
) -> List[SyntheticTrace]:
    """One trace per suite name, on the configuration's geometry.

    Core ``i`` runs ``suites[i]``, seeded ``first_seed + i``.
    """
    return [
        SyntheticTrace(
            profile_by_name(suite),
            total_banks=config.total_banks,
            rows_per_bank=config.rows_per_bank,
            columns_per_row=config.columns_per_row,
            seed=first_seed + core,
        )
        for core, suite in enumerate(suites)
    ]


def build_traces(mix: WorkloadMix, config: SystemConfig) -> List[SyntheticTrace]:
    """Instantiate one trace per core for a mix on a configuration."""
    return synthetic_traces(mix.suites, config, mix.seed * 1000)


def single_core_config(config: SystemConfig) -> SystemConfig:
    """The alone-run configuration for speedup baselines."""
    from dataclasses import replace

    return replace(config, cores=1)


def build_alone_trace(
    mix: WorkloadMix, core: int, config: SystemConfig
) -> List[SyntheticTrace]:
    """The same core's trace, alone on the system (same seed)."""
    return synthetic_traces(
        mix.suites[core:core + 1], config, mix.seed * 1000 + core
    )
