"""Loop-reference oracles for the batched platform kernels.

This module preserves two original per-row loops:

* the Algorithm 1 loop: one
  :meth:`repro.bender.TestPlatform.measure_ber` call per (row, pattern,
  hammer count, iteration), which the vectorized
  :meth:`CharacterizationRunner._characterize_bank_platform` must match;
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

from repro.characterization.runner import BankProfile, CharacterizationRunner
from repro.faults.datapatterns import DATA_PATTERNS, WCDP_CANDIDATES
from repro.reveng.subarray import SubarrayReverseEngineer


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
