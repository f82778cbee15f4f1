"""Row-mapping reverse engineering (Section 4.2).

DRAM-internal address scrambling means the rows physically adjacent to
a victim are generally not ``victim +/- 1`` at the interface.  The
standard recovery technique (used by the paper, following Kim+ and
Orosa+) hammers candidate logical rows one at a time and observes
which of them disturb the victim: those are its physical neighbours.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.bender.infrastructure import TestPlatform
from repro.dram.mapping import RowScrambler, ScramblingScheme


def recover_physical_neighbors(
    platform: TestPlatform,
    bank: int,
    victim_row: int,
    *,
    search_radius: int = 8,
    hammer_count: Optional[int] = None,
) -> List[int]:
    """Logical rows whose single-sided hammering disturbs ``victim_row``.

    Hammers every candidate in ``victim_row +/- search_radius`` hard
    enough that any true physical neighbour must induce a bitflip
    (4x the bank's worst true HC_first covers the single-sided factor),
    and returns those that do.  For an interior row the result has
    exactly two entries: the aggressors a double-sided attack needs.
    """
    hc_max = platform.model.true_hc_first(bank).max()
    count = hammer_count or int(hc_max * 4) + 1
    candidates = [
        victim_row + offset
        for offset in range(-search_radius, search_radius + 1)
        if offset != 0 and platform.geometry.valid_row(victim_row + offset)
    ]
    disturbed = platform.single_sided_disturbs_bank(
        bank, candidates, [victim_row] * len(candidates), count
    )
    return [row for row, hit in zip(candidates, disturbed.tolist()) if hit]


def infer_scrambling_scheme(
    platform: TestPlatform,
    bank: int,
    sample_rows: Sequence[int],
    *,
    search_radius: int = 8,
) -> ScramblingScheme:
    """Identify which known scrambling scheme matches observations.

    For each sampled victim, compares the recovered neighbour set with
    the neighbours each candidate scheme predicts, and returns the
    scheme agreeing on every sample.  Raises ``ValueError`` when no
    candidate matches (an unknown mapping).
    """
    rows_per_bank = platform.geometry.rows_per_bank
    candidates = {
        scheme: RowScrambler(rows_per_bank=rows_per_bank, scheme=scheme)
        for scheme in ScramblingScheme
    }
    scores: Dict[ScramblingScheme, int] = {scheme: 0 for scheme in candidates}
    for victim in sample_rows:
        observed = set(
            recover_physical_neighbors(
                platform, bank, victim, search_radius=search_radius
            )
        )
        for scheme, scrambler in candidates.items():
            predicted = set(scrambler.physical_neighbors(victim)) - {victim}
            # Distance-2 blast can add extra observed rows; the scheme
            # matches when its direct neighbours are all observed.
            if predicted.issubset(observed):
                scores[scheme] += 1
    matching = [s for s, score in scores.items() if score == len(list(sample_rows))]
    if not matching:
        raise ValueError("no known scrambling scheme matches the observations")
    # Several schemes coincide on non-discriminating rows; prefer the
    # simplest consistent explanation.  Callers that need certainty
    # should sample rows whose low address bits the schemes remap.
    if ScramblingScheme.IDENTITY in matching:
        return ScramblingScheme.IDENTITY
    return matching[0]
