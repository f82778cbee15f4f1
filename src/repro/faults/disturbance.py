"""The read-disturbance fault model.

:class:`DisturbanceModel` attaches to a :class:`repro.dram.DramDevice`
as its disturbance observer.  It tracks, per physical row, the
*effective hammer exposure* accumulated since the row's charge was last
restored (by an activation, write, or refresh of the row itself), and
converts exposure into persistent bitflips in the device's cell array.

Model summary (calibration rationale in DESIGN.md):

* Each activation of a physical row adds 0.5 hammer-pair equivalents
  of exposure to its in-subarray neighbours at distance 1 and a damped
  amount at distance 2.  Rows in other subarrays are never disturbed
  (sense-amplifier stripes isolate them) -- the property the paper's
  subarray reverse engineering exploits.
* Keeping the aggressor open longer (RowPress) multiplies exposure by
  ``(tAggOn / 36 ns) ** rowpress_exponent``.
* Non-worst-case data patterns scale exposure by an affinity <= 1.
* A row flips its first bit when effective exposure reaches the row's
  ``HC_first`` and accumulates bitflips towards ``ber_sat`` (its Fig 3
  BER at a hammer count of 128K) as exposure grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.faults.datapatterns import DataPattern, WCDP_CANDIDATES
from repro.faults.modules import ModuleSpec
from repro.faults.variation import HC_128K, SpatialVariationField

#: Reference aggressor-on time: the paper's minimum tRAS setting.
T_AGG_ON_MIN_NS = 36.0

#: Exposure weight of a distance-2 neighbour relative to distance-1.
BLAST_DAMPING = 0.12

#: BER growth exponent: flips accumulate convexly above HC_first.
BER_GROWTH_EXPONENT = 2.0

#: BER never exceeds this multiple of the row's calibrated saturation.
BER_OVERSHOOT_CAP = 1.6

_AFFINITY_SAME = 1.0
_AFFINITY_INVERSE = 0.92
_AFFINITY_CROSS = 0.84
_AFFINITY_COLUMN_STRIPE = 0.45


def rowpress_multiplier(t_agg_on_ns: float, exponent: float = 0.55) -> float:
    """Effective-exposure multiplier of keeping the aggressor open.

    Equal to 1 at the minimum on-time (36 ns) and growing sublinearly;
    at 2 us it is roughly 9x with the default exponent, matching the
    order-of-magnitude HC_first reduction in Fig 7.
    """
    if t_agg_on_ns <= 0:
        raise ValueError("tAggOn must be positive")
    return max(1.0, (t_agg_on_ns / T_AGG_ON_MIN_NS) ** exponent)


def pattern_affinity_scalar(pattern: DataPattern, wcdp: DataPattern) -> float:
    """Exposure/BER scale factor of testing ``pattern`` on a row whose
    worst-case pattern is ``wcdp``."""
    if pattern in (DataPattern.COLUMN_STRIPE, DataPattern.COLUMN_STRIPE_INV):
        return _AFFINITY_COLUMN_STRIPE
    if pattern is wcdp:
        return _AFFINITY_SAME
    if pattern is wcdp.inverse:
        return _AFFINITY_INVERSE
    return _AFFINITY_CROSS


#: ``AFFINITY_MATRIX[p, w]`` = affinity of testing ``list(DataPattern)[p]``
#: on a row whose WCDP is ``WCDP_CANDIDATES[w]`` -- the lookup-table form
#: of :func:`pattern_affinity_scalar` the vectorized kernels index with
#: whole arrays of pattern/WCDP indices at once.
AFFINITY_MATRIX = np.array(
    [
        [pattern_affinity_scalar(pattern, wcdp) for wcdp in WCDP_CANDIDATES]
        for pattern in DataPattern
    ],
    dtype=np.float64,
)

#: Sentinel in the per-bank pattern-hint arrays: no hint recorded.
_NO_HINT = np.int8(-1)


@dataclass
class RowVulnerability:
    """Per-bank vulnerability state: ground truth plus accumulators."""

    field_: SpatialVariationField
    exposure: np.ndarray
    n_flipped: np.ndarray

    @classmethod
    def fresh(cls, field_: SpatialVariationField) -> "RowVulnerability":
        n = field_.rows
        return cls(
            field_=field_,
            exposure=np.zeros(n, dtype=np.float64),
            n_flipped=np.zeros(n, dtype=np.int64),
        )

    @property
    def subarray_rows(self) -> int:
        return self.field_.params.subarray_rows


class DisturbanceModel:
    """Device-attachable read-disturbance fault model for one module."""

    def __init__(
        self,
        spec: ModuleSpec,
        *,
        rows_per_bank: Optional[int] = None,
        banks: Sequence[int] = tuple(range(16)),
        row_bits: int = 8 * 1024 * 8,
        seed: int = 0,
        temperature_c: float = 80.0,
        blast_damping: float = BLAST_DAMPING,
    ) -> None:
        self.spec = spec
        self.rows_per_bank = rows_per_bank or spec.rows_per_bank
        self.row_bits = row_bits
        self.seed = seed
        self.temperature_c = temperature_c
        self.blast_damping = blast_damping
        self._banks: Dict[int, RowVulnerability] = {}
        self._bank_ids = tuple(banks)
        self._affine_cache: Dict[Tuple[int, int], Tuple[int, int]] = {}
        #: Per-bank int8 array of pattern hints (index into
        #: ``list(DataPattern)``, ``_NO_HINT`` where none was recorded);
        #: an array rather than a dict so the vectorized kernels can
        #: gather hints for whole row ranges at once.
        self._pattern_hint: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Ground truth accessors
    # ------------------------------------------------------------------

    def bank_state(self, bank: int) -> RowVulnerability:
        """Vulnerability state for one bank, generated on first use."""
        if bank not in self._banks:
            field_ = self.spec.generate_field(
                bank=bank, rows_per_bank=self.rows_per_bank, seed=self.seed
            )
            self._banks[bank] = RowVulnerability.fresh(field_)
        return self._banks[bank]

    def field(self, bank: int) -> SpatialVariationField:
        return self.bank_state(bank).field_

    def true_hc_first(self, bank: int) -> np.ndarray:
        """Ground-truth per-row HC_first (WCDP, minimal tAggOn)."""
        return self.field(bank).hc_first

    def wcdp(self, bank: int, row: int) -> DataPattern:
        """The row's worst-case data pattern."""
        index = int(self.field(bank).wcdp_index[row])
        return WCDP_CANDIDATES[index]

    # ------------------------------------------------------------------
    # Observer interface (physical rows)
    # ------------------------------------------------------------------

    def on_activate(self, bank: int, physical_row: int) -> None:
        state = self.bank_state(bank)
        state.exposure[physical_row] = 0.0

    def on_write(self, bank: int, physical_row: int) -> None:
        state = self.bank_state(bank)
        state.exposure[physical_row] = 0.0
        state.n_flipped[physical_row] = 0

    def on_refresh(self, bank: int, first_row: int, n_rows: int) -> None:
        state = self.bank_state(bank)
        state.exposure[first_row : first_row + n_rows] = 0.0

    def on_closure(
        self, bank: int, physical_row: int, on_time_ns: float
    ) -> Mapping[int, np.ndarray]:
        return self.on_bulk_closures(bank, physical_row, on_time_ns, 1)

    def on_bulk_closures(
        self,
        bank: int,
        physical_row: int,
        on_time_ns: float,
        count: int,
        restored: frozenset = frozenset(),
    ) -> Mapping[int, np.ndarray]:
        """Apply ``count`` closures of one aggressor in a single step.

        ``restored`` lists rows being concurrently re-activated every
        iteration (the other aggressors of an interleaved hammer);
        their exposure never accumulates, so they are skipped.
        """
        state = self.bank_state(bank)
        # Closures faster than the reference on-time (timing-violating
        # RowClone sequences) disturb at most as much as the reference.
        m = rowpress_multiplier(
            max(on_time_ns, T_AGG_ON_MIN_NS), self.spec.rowpress_exponent
        )
        victims: List[int] = []
        for victim, weight in self._neighbors(state, physical_row):
            if victim in restored:
                continue
            state.exposure[victim] += 0.5 * m * weight * count
            victims.append(victim)
        if not victims:
            return {}
        return self.materialize_bank(bank, np.asarray(victims, dtype=np.int64))

    def set_pattern_hint(self, bank: int, row: int, pattern: DataPattern) -> None:
        """Tell the model which Table 2 pattern a victim row holds.

        The test platform calls this when initializing rows; it drives
        the data-pattern affinity.  Rows without a hint are treated as
        holding their worst-case pattern (conservative).
        """
        self._hint_array(bank)[row] = list(DataPattern).index(pattern)

    def set_pattern_hints(
        self, bank: int, rows: np.ndarray, pattern_indices: np.ndarray
    ) -> None:
        """Bulk :meth:`set_pattern_hint`: per-row ``list(DataPattern)``
        indices for many physical rows at once."""
        self._hint_array(bank)[np.asarray(rows)] = np.asarray(
            pattern_indices, dtype=np.int8
        )

    def _hint_array(self, bank: int) -> np.ndarray:
        hints = self._pattern_hint.get(bank)
        if hints is None:
            hints = np.full(self.rows_per_bank, _NO_HINT, dtype=np.int8)
            self._pattern_hint[bank] = hints
        return hints

    # ------------------------------------------------------------------
    # Analytic fast paths (vectorized over all rows of a bank)
    # ------------------------------------------------------------------

    def analytic_ber(
        self,
        bank: int,
        hammer_count: float,
        *,
        t_agg_on_ns: float = T_AGG_ON_MIN_NS,
        pattern: Optional[DataPattern] = None,
    ) -> np.ndarray:
        """Per-row BER of a double-sided hammer test, closed form.

        ``pattern=None`` means each row is tested at its own WCDP --
        the configuration of Figs 3 and 4.  The closed form matches
        what the device/bender path measures (tested for equivalence);
        it exists so full-bank sweeps stay fast.
        """
        return self.analytic_ber_curves(
            bank, [(hammer_count, pattern)], t_agg_on_ns=t_agg_on_ns
        )[0]

    def analytic_ber_curves(
        self,
        bank: int,
        points: Sequence[Tuple[float, Optional[DataPattern]]],
        *,
        t_agg_on_ns: float = T_AGG_ON_MIN_NS,
    ) -> List[np.ndarray]:
        """:meth:`analytic_ber` at each ``(hammer_count, pattern)`` point.

        One bank's whole Algorithm 1 sweep in one call: the terms that
        depend only on the bank (the rowpress multiplier, ``log`` of
        HC_first and the guarded denominator) are computed once, and
        each curve is one 1-D pass over the rows with its ``h_eq >=
        HC_first`` mask computed once.  Bit-identical to one call per
        curve; the per-call form survives as the oracle
        :func:`repro.characterization.reference.analytic_ber_reference`.
        """
        field_ = self.field(bank)
        m = rowpress_multiplier(t_agg_on_ns, self.spec.rowpress_exponent)
        hcf = field_.hc_first
        with np.errstate(divide="ignore", invalid="ignore"):
            log_hcf = np.log(hcf)
            denom = np.log(HC_128K) - log_hcf
        guarded = np.where(denom > 0, denom, np.inf)
        floor = 1.0 / self.row_bits
        curves = []
        for hammer_count, pattern in points:
            affinity = self._affinity_vector(field_, pattern)
            h_eq = hammer_count * m * affinity
            reached = h_eq >= hcf
            with np.errstate(divide="ignore", invalid="ignore"):
                progress = (np.log(h_eq) - log_hcf) / guarded
            progress = np.where(reached, np.maximum(progress, 0.0), 0.0)
            # Rows with HC_first at/above 128K jump straight to saturation.
            progress = np.where(reached & ~np.isfinite(progress), 1.0, progress)
            progress = np.minimum(
                progress**BER_GROWTH_EXPONENT, BER_OVERSHOOT_CAP
            )
            ber = field_.ber_sat * affinity * progress
            # The defining property of HC_first: at least one bitflip there.
            curves.append(np.maximum(ber, np.where(reached, floor, 0.0)))
        return curves

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _neighbors(
        self, state: RowVulnerability, physical_row: int
    ) -> Iterable[Tuple[int, float]]:
        sa = state.subarray_rows
        sa_index = physical_row // sa
        for distance, weight in ((1, 1.0), (2, self.blast_damping)):
            for victim in (physical_row - distance, physical_row + distance):
                if not 0 <= victim < self.rows_per_bank:
                    continue
                if victim // sa != sa_index:
                    continue
                yield victim, weight

    def _row_affinity(self, bank: int, field_: SpatialVariationField, row: int) -> float:
        hint = int(self._hint_array(bank)[row])
        if hint < 0:
            return 1.0
        return float(AFFINITY_MATRIX[hint, int(field_.wcdp_index[row])])

    def _affinity_for_rows(
        self, bank: int, field_: SpatialVariationField, rows: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`_row_affinity` for many physical rows."""
        hints = self._hint_array(bank)[rows]
        affinity = AFFINITY_MATRIX[hints, field_.wcdp_index[rows]]
        return np.where(hints < 0, 1.0, affinity)

    def _affinity_vector(
        self, field_: SpatialVariationField, pattern: Optional[DataPattern]
    ) -> np.ndarray:
        if pattern is None:
            return np.ones(field_.rows)
        wcdps = field_.wcdp_index
        out = np.full(field_.rows, _AFFINITY_CROSS)
        if pattern in (DataPattern.COLUMN_STRIPE, DataPattern.COLUMN_STRIPE_INV):
            out[:] = _AFFINITY_COLUMN_STRIPE
            return out
        for index, wcdp in enumerate(WCDP_CANDIDATES):
            if pattern is wcdp:
                out[wcdps == index] = _AFFINITY_SAME
            elif pattern is wcdp.inverse:
                out[wcdps == index] = _AFFINITY_INVERSE
        return out

    def materialize_bank(
        self, bank: int, victims: Optional[np.ndarray] = None
    ) -> Dict[int, np.ndarray]:
        """Materialize accumulated exposure into bitflips, vectorized.

        The array-at-once replacement for the seed's per-victim
        ``_materialize`` loop: one pass computes exposure -> BER ->
        flip-count targets for every requested physical row, then emits
        the new weak-cell bit indices only for rows whose target grew.
        ``victims=None`` means all rows of the bank.  The returned
        mapping (victim physical row -> new bit indices) and the
        ``n_flipped`` state updates are bit-identical to running the
        scalar loop row by row.
        """
        state = self.bank_state(bank)
        field_ = state.field_
        if victims is None:
            victims = np.arange(self.rows_per_bank, dtype=np.int64)
        affinity = self._affinity_for_rows(bank, field_, victims)
        h_eq = state.exposure[victims] * affinity
        hcf = field_.hc_first[victims]
        targets = self.flip_targets(
            h_eq=h_eq, hcf=hcf, ber_sat=field_.ber_sat[victims],
            affinity=affinity,
        )
        grown = np.flatnonzero(targets > state.n_flipped[victims])
        flips: Dict[int, np.ndarray] = {}
        for index in grown:
            victim = int(victims[index])
            flips[victim] = self._bit_sequence(
                bank, victim, int(state.n_flipped[victim]), int(targets[index])
            )
            state.n_flipped[victim] = targets[index]
        return flips

    def flip_targets(
        self,
        *,
        h_eq: np.ndarray,
        hcf: np.ndarray,
        ber_sat: np.ndarray,
        affinity: np.ndarray | float = 1.0,
    ) -> np.ndarray:
        """Per-row cumulative flip-count targets, vectorized.

        Zero below ``HC_first``; otherwise at least one flip, and never
        more than ``row_bits`` (the BER kernel clips at 1.0).
        """
        ber = self._ber_vector(
            h_eq=h_eq, hcf=hcf, ber_sat=ber_sat, affinity=affinity
        )
        targets = np.maximum(1, np.rint(ber * self.row_bits)).astype(np.int64)
        return np.where(h_eq >= hcf, targets, 0)

    def _ber_vector(
        self,
        *,
        h_eq: np.ndarray,
        hcf: np.ndarray,
        ber_sat: np.ndarray,
        affinity: np.ndarray | float,
    ) -> np.ndarray:
        """Measured-path BER kernel (elementwise over victim rows).

        The single source of truth for the command-faithful path:
        :meth:`on_bulk_closures`, :meth:`materialize_bank`, and the
        batched platform measurements all price bitflips through here,
        so the loop and kernel paths cannot drift apart.  Unlike the
        physically meaningless raw curve, the result is clipped to 1.0:
        a row cannot flip more bits than it has, however far
        ``ber_sat * BER_OVERSHOOT_CAP`` overshoots.
        """
        h_eq = np.asarray(h_eq, dtype=np.float64)
        hcf = np.asarray(hcf, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = np.log(HC_128K) - np.log(hcf)
            progress = np.maximum(
                0.0,
                (np.log(h_eq) - np.log(hcf))
                / np.where(denom > 0, denom, np.inf),
            )
        progress = np.where(denom > 0, progress, 1.0)
        progress = np.minimum(progress**BER_GROWTH_EXPONENT, BER_OVERSHOOT_CAP)
        ber = np.minimum(
            np.maximum(ber_sat * affinity * progress, 1.0 / self.row_bits), 1.0
        )
        return np.where(h_eq >= hcf, ber, 0.0)

    def _ber_scalar(
        self, *, h_eq: float, hcf: float, ber_sat: float, affinity: float
    ) -> float:
        """Scalar convenience wrapper over :meth:`_ber_vector`.

        Routed through the vectorized kernel (1-element arrays) rather
        than scalar arithmetic: numpy's scalar ``**`` takes a different
        libm path than the array ufunc in the last ulp, and the loop
        oracle must match the kernels bit for bit.
        """
        return float(
            self._ber_vector(
                h_eq=np.asarray([h_eq]),
                hcf=np.asarray([hcf]),
                ber_sat=np.asarray([ber_sat]),
                affinity=affinity,
            )[0]
        )

    def _bit_sequence(self, bank: int, row: int, start: int, stop: int) -> np.ndarray:
        """Deterministic weak-cell ordering for a row.

        The same physical cells flip first every time a row is
        re-hammered (as on real chips).  A full-cycle affine walk over
        bit positions gives a cheap, collision-free ordering.
        """
        key = (bank, row)
        if key not in self._affine_cache:
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, bank, row, 0xB17])
            )
            a = int(rng.integers(0, self.row_bits // 2)) * 2 + 1
            b = int(rng.integers(0, self.row_bits))
            self._affine_cache[key] = (a, b)
        a, b = self._affine_cache[key]
        i = np.arange(start, min(stop, self.row_bits), dtype=np.int64)
        return (a * i + b) % self.row_bits
