"""Loop-reference oracles for the batched measurement kernels.

This module preserves four original paths:

* the HC_first marginal mapping: four full Beta inversions per field,
  the first three only to calibrate a grid-snapped mean, which the
  counting :meth:`SpatialVariationField._map_to_hc_distribution` (over
  :func:`repro.faults.variation.snapped_hc_mean`) must match;
* the Algorithm 1 loop: one
  :meth:`repro.bender.TestPlatform.measure_ber` call per (row, pattern,
  hammer count, iteration), which the vectorized
  :meth:`CharacterizationRunner._characterize_bank_platform` must match;
* the analytic bank sweep: one closed-form BER call per curve (six
  patterns at 128K, then each hammer count), every term recomputed per
  call and the WCDP picked row by row, which the one-call-per-bank
  :meth:`CharacterizationRunner._characterize_bank_analytic` (over
  :meth:`DisturbanceModel.analytic_ber_curves`) must match;
* Fig 8's subarray boundary search: one
  :meth:`repro.bender.TestPlatform.single_sided_disturbs` call per row
  side, which the batched
  :meth:`SubarrayReverseEngineer.find_boundary_candidates` must match.

They are deliberately slow and deliberately simple -- their only job
is to be independently-auditable oracles that the kernels must match
bit-for-bit (asserted by the property tests and the ``make test``
kernels smoke).

Do not optimize this file.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy.special import betaincinv, ndtr

from repro.characterization.runner import (
    ITERATION_BER_SIGMA,
    BankProfile,
    CharacterizationRunner,
)
from repro.faults.datapatterns import DATA_PATTERNS, WCDP_CANDIDATES, DataPattern
from repro.faults.disturbance import (
    BER_GROWTH_EXPONENT,
    BER_OVERSHOOT_CAP,
    DisturbanceModel,
    rowpress_multiplier,
)
from repro.faults.variation import (
    HC_128K,
    HC_GRID,
    SpatialVariationField,
    VariationFieldParams,
)
from repro.reveng.subarray import SubarrayReverseEngineer


def map_to_hc_distribution_loop(
    params: VariationFieldParams, latent: np.ndarray
) -> np.ndarray:
    """The HC_first marginal mapping with one full inversion per pass.

    Each of the four calibration passes inverts every draw and snaps
    the values to the grid; only the last pass's values are kept.
    """
    lo = 0.9 * params.hc_min
    hi = float(params.hc_max)
    u = ndtr(latent)
    u = np.clip(u, 1e-9, 1 - 1e-9)
    c = params.hc_concentration
    # Table 5 reports the mean of *grid-measured* values, which a
    # grid snap biases upward; calibrate the continuous mean so the
    # snapped mean lands on the published average.
    target = float(params.hc_avg)
    mean_frac = np.clip((target - lo) / (hi - lo), 0.02, 0.98)
    values = np.empty_like(u)
    grid = np.asarray(HC_GRID, dtype=np.float64)
    for _ in range(4):
        a, b = mean_frac * c, (1.0 - mean_frac) * c
        values = lo + (hi - lo) * betaincinv(a, b, u)
        idx = np.clip(
            np.searchsorted(grid, values, side="left"), 0, len(grid) - 1
        )
        snapped_mean = float(grid[idx].mean())
        correction = target / max(snapped_mean, 1e-9)
        mean_frac = np.clip(mean_frac * correction, 0.02, 0.98)
    return values


class _LoopField(SpatialVariationField):
    _map_to_hc_distribution = staticmethod(map_to_hc_distribution_loop)


def generate_field_loop(
    params: VariationFieldParams, *, bank: int = 0, seed: int = 0
) -> SpatialVariationField:
    """:meth:`SpatialVariationField.generate` through the loop mapping.

    Built fresh on every call, never through the field memo.
    """
    return _LoopField._build(params, bank, seed)


def characterize_bank_loop(
    runner: CharacterizationRunner,
    bank: int,
    rows: Optional[Sequence[int]] = None,
) -> BankProfile:
    """Run Algorithm 1 for one bank with the per-row reference loop.

    Produces a :class:`BankProfile` with the same measured-rows-sized
    shape as the batched kernel path, so profiles from both can be
    compared array-for-array.
    """
    platform = runner._platform
    if platform is None:
        raise ValueError("loop reference requires a platform-mode runner")
    config = runner.config
    t_on = config.t_agg_on_ns
    row_list = list(rows) if rows is not None else list(
        range(config.rows_per_bank)
    )
    n = len(row_list)
    hc_grid = sorted(config.hc_grid)
    hc_max = hc_grid[-1]

    wcdp_index = np.zeros(n, dtype=np.int8)
    ber_by_hc: Dict[int, np.ndarray] = {
        int(hc): np.zeros(n) for hc in hc_grid
    }

    for slot, row in enumerate(row_list):
        # Find the WCDP at the maximum hammer count.
        best_pattern, best_ber = DATA_PATTERNS[0], -1.0
        for pattern in DATA_PATTERNS:
            result = platform.measure_ber(bank, row, pattern, hc_max, t_on)
            if result.ber > best_ber:
                best_pattern, best_ber = pattern, result.ber
        if best_pattern in WCDP_CANDIDATES:
            wcdp_index[slot] = WCDP_CANDIDATES.index(best_pattern)

        # Sweep the hammer count at the WCDP, worst case across
        # iterations.
        for hc in hc_grid:
            worst = 0.0
            for _ in range(config.iterations):
                result = platform.measure_ber(bank, row, best_pattern, hc, t_on)
                worst = max(worst, result.ber)
            ber_by_hc[int(hc)][slot] = worst

    measured = runner._measured_hc_first_from_bers(ber_by_hc)
    return BankProfile(
        module_label=runner.spec.label,
        bank=bank,
        t_agg_on_ns=t_on,
        wcdp_index=wcdp_index,
        measured_hc_first=measured,
        ber_by_hc=ber_by_hc,
        row_indices=np.asarray(row_list, dtype=np.int64),
        bank_rows=config.rows_per_bank,
    )


def analytic_ber_reference(
    model: DisturbanceModel,
    bank: int,
    hammer_count: float,
    *,
    t_agg_on_ns: float,
    pattern: Optional[DataPattern],
) -> np.ndarray:
    """One closed-form BER curve, every term computed for this call.

    The per-call form of :meth:`DisturbanceModel.analytic_ber_curves`:
    the rowpress multiplier, ``log`` of HC_first, the guarded
    denominator and the ``h_eq >= HC_first`` mask are all recomputed
    here, once per use.
    """
    field_ = model.field(bank)
    m = rowpress_multiplier(t_agg_on_ns, model.spec.rowpress_exponent)
    affinity = model._affinity_vector(field_, pattern)
    h_eq = hammer_count * m * affinity
    hcf = field_.hc_first
    h_eq = np.broadcast_to(np.asarray(h_eq, dtype=np.float64), hcf.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = np.log(HC_128K) - np.log(hcf)
        progress = (np.log(h_eq) - np.log(hcf)) / np.where(denom > 0, denom, np.inf)
    progress = np.where(h_eq >= hcf, np.maximum(progress, 0.0), 0.0)
    progress = np.where((h_eq >= hcf) & ~np.isfinite(progress), 1.0, progress)
    progress = np.minimum(progress**BER_GROWTH_EXPONENT, BER_OVERSHOOT_CAP)
    ber = field_.ber_sat * np.asarray(affinity) * progress
    min_ber = np.where(h_eq >= hcf, 1.0 / model.row_bits, 0.0)
    return np.maximum(ber, min_ber)


def characterize_bank_analytic_loop(
    runner: CharacterizationRunner, bank: int
) -> BankProfile:
    """An analytic-mode bank profile, one BER call per curve.

    Six :func:`analytic_ber_reference` calls at 128K pick each row's
    WCDP in a per-row loop, then one call per hammer count sweeps it,
    with the same iteration jitter draws as the runner.
    """
    if runner.config.mode != "analytic":
        raise ValueError("analytic reference requires an analytic-mode runner")
    model = runner.model
    config = runner.config
    t_on = config.t_agg_on_ns
    rng = np.random.default_rng(
        np.random.SeedSequence([config.seed, bank, 0x17E2])
    )
    n = config.rows_per_bank

    ber_by_pattern = np.stack(
        [
            analytic_ber_reference(
                model, bank, HC_128K, t_agg_on_ns=t_on, pattern=p
            )
            for p in DATA_PATTERNS
        ]
    )
    wcdp_positions = np.argmax(ber_by_pattern, axis=0)
    wcdp_index = np.array(
        [
            WCDP_CANDIDATES.index(DATA_PATTERNS[p])
            if DATA_PATTERNS[p] in WCDP_CANDIDATES
            else 0
            for p in wcdp_positions
        ],
        dtype=np.int8,
    )

    ber_by_hc: Dict[int, np.ndarray] = {}
    for hc in config.hc_grid:
        base = analytic_ber_reference(
            model, bank, hc, t_agg_on_ns=t_on, pattern=None
        )
        worst = np.zeros(n)
        for _ in range(config.iterations):
            jitter = (
                1.0 + ITERATION_BER_SIGMA * rng.standard_normal(n)
                if config.iterations > 1
                else 1.0
            )
            worst = np.maximum(worst, base * jitter)
        ber_by_hc[int(hc)] = np.clip(worst, 0.0, 1.0)

    measured = runner._measured_hc_first_from_bers(ber_by_hc)
    return BankProfile(
        module_label=runner.spec.label,
        bank=bank,
        t_agg_on_ns=t_on,
        wcdp_index=wcdp_index,
        measured_hc_first=measured,
        ber_by_hc=ber_by_hc,
        row_indices=np.arange(n, dtype=np.int64),
        bank_rows=n,
    )


def find_boundary_candidates_loop(
    engineer: SubarrayReverseEngineer,
    bank: int,
    rows: Optional[Sequence[int]] = None,
) -> List[int]:
    """Fig 8's boundary search with the per-row reference loop.

    One single-sided probe of each physical row's lower neighbour, and
    of its upper neighbour when the lower one stayed undisturbed; the
    same physical boundary list, in probe order, as
    :meth:`SubarrayReverseEngineer.find_boundary_candidates`.
    """
    geometry = engineer.platform.geometry
    scrambler = engineer.platform.device.scrambler
    probe_rows = list(rows) if rows is not None else list(
        range(geometry.rows_per_bank)
    )
    boundaries = []
    for physical in probe_rows:
        if physical == 0:
            boundaries.append(0)
            continue
        aggressor = scrambler.to_logical(physical)
        below = scrambler.to_logical(physical - 1)
        below_disturbed = engineer.platform.single_sided_disturbs(
            bank, aggressor, below, engineer.probe_hammer_count
        )
        if below_disturbed:
            continue
        if physical + 1 < geometry.rows_per_bank:
            above = scrambler.to_logical(physical + 1)
            if not engineer.platform.single_sided_disturbs(
                bank, aggressor, above, engineer.probe_hammer_count
            ):
                continue  # disturbs neither side: not a row at all
        boundaries.append(physical)
    return boundaries
