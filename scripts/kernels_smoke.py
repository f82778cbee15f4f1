#!/usr/bin/env python
"""`make kernels-smoke`: kernels vs loop oracles, byte-diffed.

On one tiny 128-row XOR_FOLD module (32-row subarrays), runs

* one platform-mode bank characterization through the batched kernel
  path and through the retained per-row loop oracle, then byte-diffs
  every field of the two :class:`BankProfile` objects;
* Fig 8's subarray boundary search through the batched probe kernel
  and through the per-row loop oracle, then diffs the two boundary
  lists.

This is the cheap ``make test``-time guarantee that the vectorized
measurement paths cannot drift from the command-faithful loops without
CI noticing; the full cross-product lives in ``tests/test_kernels.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.bender.infrastructure import TestPlatform  # noqa: E402
from repro.characterization.reference import (  # noqa: E402
    characterize_bank_loop,
    find_boundary_candidates_loop,
)
from repro.characterization.runner import (  # noqa: E402
    CharacterizationConfig,
    CharacterizationRunner,
)
from repro.dram.mapping import ScramblingScheme  # noqa: E402
from repro.faults.modules import Manufacturer, ModuleSpec  # noqa: E402
from repro.reveng.subarray import SubarrayReverseEngineer  # noqa: E402

SPEC = ModuleSpec(
    label="SMOKE",
    manufacturer=Manufacturer.SK_HYNIX,
    n_chips=8,
    density_gb=8,
    die_revision="A",
    organization="x8",
    freq_mts=3200,
    mfr_date="05-23",
    rows_per_bank=128,
    hc_min=20,
    hc_avg=40,
    hc_max=80,
    ber_mean=5e-3,
    ber_cv_pct=4.0,
    n_ber_periods=2.0,
    subarray_rows=32,
    scrambling=ScramblingScheme.XOR_FOLD,
)

CONFIG = CharacterizationConfig(
    rows_per_bank=128,
    banks=(0,),
    hc_grid=(16, 24, 32, 48, 64, 96, 160),
    iterations=2,
    mode="platform",
    seed=5,
)


def diff_profiles(kernel, loop) -> list:
    problems = []

    def check(name, a, b):
        same = (
            np.array_equal(a, b)
            if isinstance(a, np.ndarray)
            else a == b
        )
        if not same:
            problems.append(f"{name}: kernel={a!r} loop={b!r}")

    check("module_label", kernel.module_label, loop.module_label)
    check("bank", kernel.bank, loop.bank)
    check("t_agg_on_ns", kernel.t_agg_on_ns, loop.t_agg_on_ns)
    check("bank_rows", kernel.bank_rows, loop.bank_rows)
    check("row_indices", kernel.row_indices, loop.row_indices)
    check("wcdp_index", kernel.wcdp_index, loop.wcdp_index)
    check("measured_hc_first", kernel.measured_hc_first, loop.measured_hc_first)
    check("ber_by_hc keys", sorted(kernel.ber_by_hc), sorted(loop.ber_by_hc))
    for hc in sorted(kernel.ber_by_hc):
        if hc in loop.ber_by_hc:
            check(f"ber_by_hc[{hc}]", kernel.ber_by_hc[hc], loop.ber_by_hc[hc])
    return problems


def boundary_search(find) -> list:
    """One fresh platform's Fig 8 boundary search through ``find``."""
    platform = TestPlatform(
        SPEC, rows_per_bank=CONFIG.rows_per_bank, seed=CONFIG.seed
    )
    return find(SubarrayReverseEngineer(platform, seed=CONFIG.seed), 0)


def main() -> int:
    print("kernels-smoke: 128-row XOR_FOLD bank, kernel vs loop oracle")
    kernel = CharacterizationRunner(SPEC, CONFIG).characterize_bank(0)
    loop = characterize_bank_loop(
        CharacterizationRunner(SPEC, CONFIG), 0
    )
    problems = diff_profiles(kernel, loop)
    kernel_boundaries = boundary_search(
        SubarrayReverseEngineer.find_boundary_candidates
    )
    loop_boundaries = boundary_search(find_boundary_candidates_loop)
    if kernel_boundaries != loop_boundaries:
        problems.append(
            f"boundary candidates: kernel={kernel_boundaries!r} "
            f"loop={loop_boundaries!r}"
        )
    if problems:
        for problem in problems:
            print(f"  MISMATCH {problem}")
        return 1
    print(
        f"  profiles bit-identical ({kernel.rows} rows, "
        f"{len(kernel.ber_by_hc)} HC points, {CONFIG.iterations} iterations)"
    )
    print(f"  boundary candidates identical: {kernel_boundaries}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
