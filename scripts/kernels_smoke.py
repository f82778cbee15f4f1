#!/usr/bin/env python
"""`make kernels-smoke`: kernels vs loop oracles, byte-diffed.

On one tiny 128-row XOR_FOLD module (32-row subarrays), runs

* one platform-mode bank characterization through the batched kernel
  path and through the retained per-row loop oracle, then byte-diffs
  every field of the two :class:`BankProfile` objects;
* one analytic-mode bank characterization through the one-call-per-bank
  curve kernel and through the retained per-curve oracle, byte-diffed
  the same way, and each of that bank's BER curves (six patterns at
  128K, then one per hammer count of the grid) byte-diffed against its
  per-call oracle;
* Fig 9's feature scoring through the count kernel
  (``feature_macro_f1``) and through the per-feature loop
  (``predict_from_feature`` + ``f1_macro``), compared with ``==``.
  The targets are the weak/strong splits of that analytic profile's
  HC_first and of its BER at each hammer count (the tiny module's
  HC_first piles up at its minimum; the BER splits vary), each over
  all 128 rows and over the first 127.  A median split of an odd row
  count is unbalanced by one row, so a tie at one feature value is
  not mirrored at the other and the tie rule shows in the score;
* Fig 8's subarray boundary search through the batched probe kernel
  and through the per-row loop oracle, then diffs the two boundary
  lists;
* the ground-truth fields of the tiny module's banks and of bank 0 of
  H0 (``hc_max`` on a grid value), M1 (``lo`` above the 32K cut) and
  S0 (a Table 3 module) at 512 rows, built by the counting HC_first
  mapping and by the four-inversion oracle, byte-diffed; and, for each
  of those marginals, the counted snapped mean of draws on every grid
  cut, ulps beside it and inside the guard band, against the snapped
  mean of the draws' inversions.

Any mismatch is listed and the script exits 1.

This is the cheap ``make test``-time guarantee that the vectorized
measurement and scoring paths cannot drift from their oracles without
CI noticing; the full cross-product lives in ``tests/test_kernels.py``
and ``tests/test_analysis.py``.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
from scipy.special import betainc, betaincinv

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.correlation import (  # noqa: E402
    binarize_measured,
    f1_macro,
    feature_macro_f1,
    predict_from_feature,
)
from repro.analysis.features import extract_features  # noqa: E402
from repro.bender.infrastructure import TestPlatform  # noqa: E402
from repro.characterization.reference import (  # noqa: E402
    analytic_ber_reference,
    characterize_bank_analytic_loop,
    characterize_bank_loop,
    find_boundary_candidates_loop,
    generate_field_loop,
)
from repro.characterization.runner import (  # noqa: E402
    CharacterizationConfig,
    CharacterizationRunner,
)
from repro.dram.mapping import ScramblingScheme  # noqa: E402
from repro.faults.datapatterns import DATA_PATTERNS  # noqa: E402
from repro.faults.modules import (  # noqa: E402
    Manufacturer,
    ModuleSpec,
    _stable_hash,
    module_by_label,
)
from repro.faults.variation import (  # noqa: E402
    CUT_GUARD_U,
    HC_128K,
    HC_GRID,
    SpatialVariationField,
    snapped_hc_mean,
)
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


#: The same module and grid in analytic mode, at a RowPress on-time.
ANALYTIC_CONFIG = dataclasses.replace(
    CONFIG, mode="analytic", t_agg_on_ns=50.0
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


def field_problems(spec, rows, bank, seed) -> list:
    """Kernel vs oracle field, both built fresh, plus the counted
    snapped mean of near-cut draws vs their inversions' snapped mean."""
    params = spec.variation_params(rows)
    field_seed = seed ^ _stable_hash(spec.label)
    kernel = SpatialVariationField._build(params, bank, field_seed)
    loop = generate_field_loop(params, bank=bank, seed=field_seed)
    problems = [
        f"field {spec.label} bank {bank}: {name}"
        for name in ("hc_first", "ber_sat", "wcdp_index")
        if getattr(kernel, name).tobytes() != getattr(loop, name).tobytes()
    ]
    lo, hi = 0.9 * params.hc_min, float(params.hc_max)
    grid = np.asarray(HC_GRID, dtype=np.float64)
    for mean_frac in (0.1, 0.5, 0.9):
        a = mean_frac * params.hc_concentration
        b = (1.0 - mean_frac) * params.hc_concentration
        cut_u = betainc(a, b, np.clip((grid[:-1] - lo) / (hi - lo), 0.0, 1.0))
        offsets = [k * np.spacing(cut_u) for k in range(-8, 9)]
        offsets += [np.full_like(cut_u, d * CUT_GUARD_U) for d in (-0.5, 0.5)]
        u = np.sort(np.clip(
            np.concatenate([cut_u + offset for offset in offsets]),
            1e-9, 1 - 1e-9,
        ))
        values = lo + (hi - lo) * betaincinv(a, b, u)
        idx = np.clip(np.searchsorted(grid, values, side="left"), 0, len(grid) - 1)
        want = float(grid[idx].mean())
        got = snapped_hc_mean(u, a, b, lo, hi)
        if got != want:
            problems.append(
                f"snapped mean {spec.label} at mean fraction {mean_frac}: "
                f"kernel={got!r} inversion={want!r}"
            )
    return problems


def main() -> int:
    print("kernels-smoke: 128-row XOR_FOLD bank, kernel vs loop oracle")
    kernel = CharacterizationRunner(SPEC, CONFIG).characterize_bank(0)
    loop = characterize_bank_loop(
        CharacterizationRunner(SPEC, CONFIG), 0
    )
    problems = diff_profiles(kernel, loop)

    runner = CharacterizationRunner(SPEC, ANALYTIC_CONFIG)
    analytic = runner.characterize_bank(0)
    problems += [
        f"analytic {problem}"
        for problem in diff_profiles(
            analytic, characterize_bank_analytic_loop(runner, 0)
        )
    ]

    points = [(HC_128K, pattern) for pattern in DATA_PATTERNS] + [
        (hc, None) for hc in ANALYTIC_CONFIG.hc_grid
    ]
    curves = runner.model.analytic_ber_curves(
        0, points, t_agg_on_ns=ANALYTIC_CONFIG.t_agg_on_ns
    )
    for (hc, pattern), curve in zip(points, curves):
        reference = analytic_ber_reference(
            runner.model, 0, hc,
            t_agg_on_ns=ANALYTIC_CONFIG.t_agg_on_ns, pattern=pattern,
        )
        if curve.tobytes() != reference.tobytes():
            problems.append(f"BER curve at HC {hc}, pattern {pattern}")

    _, matrix, _ = extract_features(
        SPEC.rows_per_bank, SPEC.subarray_rows, ANALYTIC_CONFIG.banks
    )
    targets = {"HC_first": analytic.measured_hc_first}
    targets.update(
        (f"BER@{hc}", ber) for hc, ber in sorted(analytic.ber_by_hc.items())
    )
    scored = 0
    for name, values in targets.items():
        for rows in (len(values), len(values) - 1):
            target = binarize_measured(values[:rows])
            if len(np.unique(target)) < 2:
                problems.append(f"feature F1 vs {name}: no weak/strong split")
                continue
            features = matrix[:rows]
            f1_kernel = feature_macro_f1(features, target).tolist()
            f1_loop = [
                f1_macro(
                    target, predict_from_feature(features[:, column], target)
                )
                for column in range(features.shape[1])
            ]
            if f1_kernel != f1_loop:
                problems.append(
                    f"feature F1 vs {name} over {rows} rows: "
                    f"kernel={f1_kernel!r} loop={f1_loop!r}"
                )
            scored += 1

    fields = [(SPEC, CONFIG.rows_per_bank, bank, CONFIG.seed) for bank in CONFIG.banks]
    fields += [(module_by_label(label), 512, 0, 0) for label in ("H0", "M1", "S0")]
    for field_args in fields:
        problems += field_problems(*field_args)

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
        f"  platform and analytic profiles bit-identical ({kernel.rows} "
        f"rows, {len(kernel.ber_by_hc)} HC points, {CONFIG.iterations} "
        f"iterations), {len(curves)} analytic BER curves identical"
    )
    print(
        f"  feature F1 identical: {matrix.shape[1]} features x "
        f"{scored} targets"
    )
    print(f"  boundary candidates identical: {kernel_boundaries}")
    print(
        f"  {len(fields)} ground-truth fields identical "
        f"({', '.join(spec.label for spec, *_ in fields)}), near-cut "
        f"snapped means identical"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
