"""Parameterized synthetic memory-request traces.

A :class:`SyntheticTrace` emits one core's post-LLC miss stream.  Each
chain (one per outstanding-miss slot) keeps a current open row; with
probability ``row_locality`` the next request hits the same row at the
next column, otherwise it jumps to a new (bank, row) drawn from a
Zipf-weighted working set.  The Zipf exponent controls how hard the
workload hammers its hottest rows -- the property RowHammer defenses
key on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.sim.engine import TraceStep

#: Steps drawn from the RNG at a time.  Part of the random stream: a
#: different size reorders the draws.
_BATCH = 4096
#: Steps of a batch converted to Python scalars at a time; converting
#: a whole batch at once costs resident memory for no speed.
_CHUNK = 256

#: Builds a step without the NamedTuple's Python-level ``__new__``.
_new_tuple = tuple.__new__


@dataclass(frozen=True)
class SuiteProfile:
    """Memory-behaviour knobs of one benchmark-suite class."""

    name: str
    row_locality: float
    zipf_exponent: float
    working_set_rows: int
    banks_used: int
    write_ratio: float
    gap_mean_ns: float

    def __post_init__(self) -> None:
        if not 0 <= self.row_locality < 1:
            raise ValueError("row_locality must be in [0, 1)")
        if self.zipf_exponent < 0:
            raise ValueError("zipf_exponent must be non-negative")
        if self.working_set_rows < 1 or self.banks_used < 1:
            raise ValueError("working set and bank count must be positive")
        if not 0 <= self.write_ratio <= 1:
            raise ValueError("write_ratio must be a probability")
        if self.gap_mean_ns < 0:
            raise ValueError("gap_mean_ns must be non-negative")


def _draw_batches(
    rng: np.random.Generator, n_rows: int, probs: np.ndarray, gap_mean_ns: float
) -> Iterator[Tuple[int, float, float, float]]:
    """Per step: (working-set index, locality draw, write draw, gap).

    Draws ``_BATCH`` steps at a time in a fixed order -- row choices,
    a ``(_BATCH, 3)`` uniform block whose middle column is unused,
    then the gaps -- and hands them out as Python scalars ``_CHUNK``
    steps at a time.  Not a method: a generator holding its trace
    would form a cycle that keeps finished traces' batches alive
    until the cyclic collector runs.
    """
    while True:
        rows = rng.choice(n_rows, size=_BATCH, p=probs)
        uniform = rng.random((_BATCH, 3))
        gaps = rng.exponential(gap_mean_ns, size=_BATCH)
        for start in range(0, _BATCH, _CHUNK):
            chunk = slice(start, start + _CHUNK)
            yield from zip(
                rows[chunk].tolist(),
                uniform[chunk, 0].tolist(),
                uniform[chunk, 2].tolist(),
                gaps[chunk].tolist(),
            )


class SyntheticTrace:
    """One core's request stream (implements the engine Trace protocol)."""

    def __init__(
        self,
        profile: SuiteProfile,
        *,
        total_banks: int = 32,
        rows_per_bank: int = 128 * 1024,
        columns_per_row: int = 128,
        seed: int = 0,
    ) -> None:
        self.profile = profile
        self.total_banks = total_banks
        self.rows_per_bank = rows_per_bank
        self.columns_per_row = columns_per_row
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, 0x770]))

        n = min(profile.working_set_rows, rows_per_bank)
        rows = self._rng.choice(rows_per_bank, size=n, replace=False)
        weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** profile.zipf_exponent
        self._rows = rows.tolist()
        banks = self._rng.choice(
            total_banks, size=min(profile.banks_used, total_banks), replace=False
        )
        # Each working-set row lives in one fixed bank (as a physical
        # page does); hot rows therefore concentrate activations on one
        # (bank, row) pair -- the behaviour activation-count defenses
        # react to.
        self._bank_of_row = banks[
            self._rng.integers(0, len(banks), size=n)
        ].tolist()
        self._chain_state: Dict[int, Tuple[int, int, int]] = {}
        self._draws = _draw_batches(
            self._rng, n, weights / weights.sum(), max(profile.gap_mean_ns, 1e-9)
        )

    # ------------------------------------------------------------------

    def next_step(self, chain: int) -> TraceStep:
        row_index, u_local, u_write, gap = next(self._draws)
        profile = self.profile
        state = self._chain_state.get(chain)
        if state is not None and u_local < profile.row_locality:
            bank, row, column = state
            column = (column + 1) % self.columns_per_row
        else:
            bank = self._bank_of_row[row_index]
            row = self._rows[row_index]
            column = 0
        self._chain_state[chain] = (bank, row, column)
        return _new_tuple(
            TraceStep, (bank, row, column, u_write < profile.write_ratio, gap)
        )
