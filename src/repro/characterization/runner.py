"""The Algorithm 1 test loop.

:class:`CharacterizationRunner` profiles the spatial variation of read
disturbance for one module, in either of two modes:

* ``platform`` -- executes the real measurement sequence against the
  :class:`repro.bender.TestPlatform` (initialize rows, double-sided
  hammer, read back, compare), per row and per hammer count.  This is
  command-faithful but slow, so it is meant for small banks and for
  validating the fast path.
* ``analytic`` -- evaluates the fault model's closed forms, vectorized
  over all rows.  The test suite verifies both modes agree.

Following Section 4.1, the runner can repeat each test ``iterations``
times and record the worst case (largest BER, smallest HC_first); the
paper reports a 5.7% iteration-to-iteration BER variation, which the
analytic mode reproduces with multiplicative jitter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.bender.infrastructure import TestPlatform
from repro.dram.geometry import REPRESENTATIVE_BANKS
from repro.faults.datapatterns import DATA_PATTERNS, WCDP_CANDIDATES, DataPattern
from repro.faults.disturbance import DisturbanceModel, T_AGG_ON_MIN_NS
from repro.faults.modules import ModuleSpec
from repro.faults.variation import HC_128K, HC_GRID

#: Iteration-to-iteration BER variation the paper reports (5.7%).
ITERATION_BER_SIGMA = 0.057 / 2.0

#: ``_WCDP_OF_TEST_POSITION[p]`` = the ``WCDP_CANDIDATES`` index recorded
#: for a row whose worst test pattern is ``DATA_PATTERNS[p]``; the
#: column stripes, which are not candidates, record 0.
_WCDP_OF_TEST_POSITION = np.array(
    [
        WCDP_CANDIDATES.index(pattern) if pattern in WCDP_CANDIDATES else 0
        for pattern in DATA_PATTERNS
    ],
    dtype=np.int8,
)


@dataclass(frozen=True)
class CharacterizationConfig:
    """Parameters of one Algorithm 1 run."""

    rows_per_bank: int = 2048
    banks: Tuple[int, ...] = tuple(REPRESENTATIVE_BANKS)
    hc_grid: Tuple[int, ...] = tuple(HC_GRID)
    t_agg_on_ns: float = T_AGG_ON_MIN_NS
    iterations: int = 1
    mode: str = "analytic"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("analytic", "platform"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if not self.banks:
            raise ValueError("need at least one bank")


@dataclass
class BankProfile:
    """Per-row characterization results for one bank.

    All per-row arrays are sized to the *measured* rows -- for partial
    (subset-row) platform runs that is fewer than the bank's row count,
    and ``row_indices`` records which bank rows each slot describes.
    """

    module_label: str
    bank: int
    t_agg_on_ns: float
    wcdp_index: np.ndarray
    measured_hc_first: np.ndarray
    ber_by_hc: Dict[int, np.ndarray] = field(default_factory=dict)
    #: Bank row index of each measured slot (``arange(rows)`` for a
    #: full-bank run).
    row_indices: Optional[np.ndarray] = None
    #: Total rows in the characterized bank (= ``rows`` unless the run
    #: measured a subset).
    bank_rows: Optional[int] = None

    @property
    def rows(self) -> int:
        """Number of *measured* rows (not the bank's row count)."""
        return len(self.measured_hc_first)

    @property
    def ber_at_128k(self) -> np.ndarray:
        """Per-row BER at HC = 128K (the Fig 3/4 quantity).

        Only defined when the HC grid actually tested 128K; a grid
        that stops short no longer silently aliases its own maximum.
        """
        try:
            return self.ber_by_hc[HC_128K]
        except KeyError:
            raise ValueError(
                f"bank {self.bank}: HC grid (max {max(self.ber_by_hc)}) "
                "did not test 128K; read ber_by_hc at a tested count"
            ) from None

    def relative_locations(self) -> np.ndarray:
        """Row position in [0, 1] across the bank (Figs 4, 6 x-axis)."""
        total = self.bank_rows if self.bank_rows is not None else self.rows
        indices = (
            self.row_indices
            if self.row_indices is not None
            else np.arange(self.rows)
        )
        return indices / max(total - 1, 1)


@dataclass
class ModuleCharacterization:
    """All banks of one module at one tAggOn."""

    module_label: str
    t_agg_on_ns: float
    banks: Dict[int, BankProfile]

    def all_hc_first(self) -> np.ndarray:
        return np.concatenate(
            [profile.measured_hc_first for profile in self.banks.values()]
        )

    def all_ber(self) -> np.ndarray:
        return np.concatenate(
            [profile.ber_at_128k for profile in self.banks.values()]
        )

    def per_bank_mean_ber(self) -> Dict[int, float]:
        return {
            bank: float(profile.ber_at_128k.mean())
            for bank, profile in self.banks.items()
        }

    def min_hc_first(self) -> int:
        """The module's worst-case HC_first (red dashed line in Fig 5)."""
        return int(self.all_hc_first().min())


class CharacterizationRunner:
    """Runs Algorithm 1 for one module."""

    def __init__(self, spec: ModuleSpec, config: CharacterizationConfig) -> None:
        self.spec = spec
        self.config = config
        if config.mode == "platform":
            self._platform = TestPlatform(
                spec, rows_per_bank=config.rows_per_bank, seed=config.seed
            )
            self._model = self._platform.model
        else:
            self._platform = None
            self._model = DisturbanceModel(
                spec, rows_per_bank=config.rows_per_bank, seed=config.seed
            )

    @property
    def model(self) -> DisturbanceModel:
        return self._model

    # ------------------------------------------------------------------

    def run(self) -> ModuleCharacterization:
        """The full test loop over all configured banks."""
        banks = {
            bank: self.characterize_bank(bank) for bank in self.config.banks
        }
        return ModuleCharacterization(
            module_label=self.spec.label,
            t_agg_on_ns=self.config.t_agg_on_ns,
            banks=banks,
        )

    def characterize_bank(
        self, bank: int, rows: Optional[Sequence[int]] = None
    ) -> BankProfile:
        if self.config.mode == "analytic":
            return self._characterize_bank_analytic(bank)
        return self._characterize_bank_platform(bank, rows)

    # ------------------------------------------------------------------
    # Analytic mode (vectorized)
    # ------------------------------------------------------------------

    def _characterize_bank_analytic(self, bank: int) -> BankProfile:
        model = self._model
        t_on = self.config.t_agg_on_ns
        rng = np.random.default_rng(
            np.random.SeedSequence([self.config.seed, bank, 0x17E2])
        )
        n = self.config.rows_per_bank
        hc_grid = self.config.hc_grid
        curves = model.analytic_ber_curves(
            bank,
            [(HC_128K, p) for p in DATA_PATTERNS]
            + [(hc, None) for hc in hc_grid],
            t_agg_on_ns=t_on,
        )

        # Step 1 (Algorithm 1): find each row's WCDP at HC = 128K.
        wcdp_positions = np.argmax(
            np.stack(curves[: len(DATA_PATTERNS)]), axis=0
        )
        wcdp_index = _WCDP_OF_TEST_POSITION[wcdp_positions]

        # Step 2: sweep the hammer count at the WCDP.  "Worst case over
        # iterations" = max BER / min HC_first, with iteration jitter.
        ber_by_hc: Dict[int, np.ndarray] = {}
        for hc, base in zip(hc_grid, curves[len(DATA_PATTERNS) :]):
            worst = np.zeros(n)
            for _ in range(self.config.iterations):
                jitter = (
                    1.0 + ITERATION_BER_SIGMA * rng.standard_normal(n)
                    if self.config.iterations > 1
                    else 1.0
                )
                worst = np.maximum(worst, base * jitter)
            ber_by_hc[int(hc)] = np.clip(worst, 0.0, 1.0)

        measured = self._measured_hc_first_from_bers(ber_by_hc)
        return BankProfile(
            module_label=self.spec.label,
            bank=bank,
            t_agg_on_ns=t_on,
            wcdp_index=wcdp_index,
            measured_hc_first=measured,
            ber_by_hc=ber_by_hc,
            row_indices=np.arange(n, dtype=np.int64),
            bank_rows=n,
        )

    def _measured_hc_first_from_bers(
        self, ber_by_hc: Dict[int, np.ndarray]
    ) -> np.ndarray:
        """Smallest tested HC with at least one bitflip, per row."""
        grid = sorted(ber_by_hc)
        n = len(ber_by_hc[grid[0]])
        measured = np.full(n, grid[-1], dtype=np.int64)
        assigned = np.zeros(n, dtype=bool)
        for hc in grid:
            flipped = (ber_by_hc[hc] > 0) & ~assigned
            measured[flipped] = hc
            assigned |= flipped
        return measured

    # ------------------------------------------------------------------
    # Platform mode (command-faithful)
    # ------------------------------------------------------------------

    def _characterize_bank_platform(
        self, bank: int, rows: Optional[Sequence[int]]
    ) -> BankProfile:
        """Algorithm 1 against the test platform, all rows per step.

        Instead of sweeping (pattern, HC, iteration) per row, every
        (pattern, HC) step measures all requested rows in one batched
        platform call.  Row-for-row bit-identical to the per-row loop
        (retained as the oracle in
        :mod:`repro.characterization.reference` and asserted by the
        test suite): measurements are independent, since each one
        re-initializes its victim and aggressors.
        """
        platform = self._platform
        assert platform is not None
        t_on = self.config.t_agg_on_ns
        row_list = (
            np.arange(self.config.rows_per_bank, dtype=np.int64)
            if rows is None
            else np.asarray(list(rows), dtype=np.int64)
        )
        n = row_list.size
        hc_grid = sorted(self.config.hc_grid)
        hc_max = hc_grid[-1]
        row_bits = platform.geometry.row_bytes * 8

        # Step 1 (Algorithm 1): each row's WCDP at the maximum hammer
        # count.  np.argmax keeps the first of equal maxima -- the same
        # row the loop's strict ``>`` comparison keeps.
        flips_by_pattern = np.stack(
            [
                platform.measure_ber_bank(bank, row_list, pattern, hc_max, t_on)
                for pattern in DATA_PATTERNS
            ]
        )
        best_position = np.argmax(flips_by_pattern, axis=0)
        wcdp_index = _WCDP_OF_TEST_POSITION[best_position]
        # The sweep tests each row at its best pattern -- including the
        # column stripes, which are not WCDP candidates.
        test_order_to_enum = np.array(
            [list(DataPattern).index(pattern) for pattern in DATA_PATTERNS],
            dtype=np.int64,
        )
        sweep_patterns = test_order_to_enum[best_position]

        # Step 2: sweep the hammer count at the WCDP, worst case across
        # iterations.
        ber_by_hc: Dict[int, np.ndarray] = {}
        for hc in hc_grid:
            worst = np.zeros(n)
            for _ in range(self.config.iterations):
                flips = platform.measure_ber_bank(
                    bank, row_list, sweep_patterns, hc, t_on
                )
                worst = np.maximum(worst, flips / row_bits)
            ber_by_hc[int(hc)] = worst

        measured = self._measured_hc_first_from_bers(ber_by_hc)
        return BankProfile(
            module_label=self.spec.label,
            bank=bank,
            t_agg_on_ns=t_on,
            wcdp_index=wcdp_index,
            measured_hc_first=measured,
            ber_by_hc=ber_by_hc,
            row_indices=row_list,
            bank_rows=self.config.rows_per_bank,
        )
