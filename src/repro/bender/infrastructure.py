"""The assembled testing platform (DRAM Bender analogue).

:class:`TestPlatform` plays the role of the FPGA board + host machine:
it owns a device under test (with the module's fault model attached),
a temperature controller, and implements the measurement primitives of
the paper's Algorithm 1 -- ``measure_BER`` and double-sided hammering
-- plus the single-sided and RowClone probes the reverse-engineering
methodology needs.

Interference elimination (Section 4.1) is the default configuration:
periodic refresh is disabled, test programs are bounded to the refresh
window, and the device has no ECC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.bender.programs import rowclone_program
from repro.bender.temperature import TemperatureController
from repro.dram.cells import count_mismatched_bits
from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.dram.mapping import RowScrambler
from repro.faults.datapatterns import DataPattern, bitwise_inverse
from repro.faults.disturbance import (
    AFFINITY_MATRIX,
    T_AGG_ON_MIN_NS,
    DisturbanceModel,
    rowpress_multiplier,
)
from repro.faults.modules import ModuleSpec

#: ``popcount(victim_fill ^ aggressor_fill)`` per Table 2 pattern: the
#: per-byte mismatch count a physical-edge victim reads back after its
#: content is overwritten with the aggressor fill (the edge reflection
#: makes the victim one of its own "aggressors").
_PATTERN_XOR_BITS = np.array(
    [
        bin(pattern.victim_fill ^ pattern.aggressor_fill).count("1")
        for pattern in DataPattern
    ],
    dtype=np.int64,
)


class RefreshWindowExceeded(RuntimeError):
    """A test program ran longer than the refresh window allows.

    The paper strictly bounds test programs within ``tREFW`` so that
    retention failures cannot be mistaken for read disturbance.
    """


@dataclass
class BerMeasurement:
    """Result of one ``measure_BER`` invocation."""

    victim_row: int
    pattern: DataPattern
    hammer_count: int
    t_agg_on_ns: float
    bitflips: int
    row_bits: int

    @property
    def ber(self) -> float:
        return self.bitflips / self.row_bits


class TestPlatform:
    """Executes characterization test programs against one module."""

    # Not a pytest test class, despite the name.
    __test__ = False

    def __init__(
        self,
        spec: ModuleSpec,
        *,
        rows_per_bank: Optional[int] = None,
        seed: int = 0,
        temperature_c: float = 80.0,
        enforce_refresh_window: bool = False,
        regulate_temperature: bool = False,
    ) -> None:
        self.spec = spec
        rows = rows_per_bank or spec.rows_per_bank
        params = spec.variation_params(rows)
        self.geometry = DramGeometry(
            rows_per_bank=rows,
            subarray_rows=params.subarray_rows,
            columns_per_row=1024,
        )
        self.model = DisturbanceModel(
            spec,
            rows_per_bank=rows,
            row_bits=self.geometry.row_bytes * 8,
            seed=seed,
            temperature_c=temperature_c,
        )
        self.device = DramDevice(
            geometry=self.geometry,
            timing=spec.timing,
            scrambler=RowScrambler(rows_per_bank=rows, scheme=spec.scrambling),
            observer=self.model,
            refresh_enabled=False,
            seed=seed,
        )
        self.enforce_refresh_window = enforce_refresh_window
        self.temperature = TemperatureController(setpoint_c=temperature_c, seed=seed)
        if regulate_temperature:
            self.temperature.settle()
        else:
            self.temperature.plant.temperature_c = temperature_c

    # ------------------------------------------------------------------
    # Algorithm 1 primitives
    # ------------------------------------------------------------------

    def aggressor_rows_for(self, victim_row: int) -> Tuple[int, int]:
        """Logical addresses of the victim's physical neighbours.

        This is the reverse-engineered mapping step of Section 4.2: a
        double-sided hammer must target the rows that are *physically*
        adjacent, which scrambling hides from the interface addresses.
        """
        return self.device.scrambler.physical_neighbors(victim_row)

    def initialize_victim(self, bank: int, victim_row: int, pattern: DataPattern) -> None:
        """Write victim and aggressors with opposite fills (Algorithm 1)."""
        below, above = self.aggressor_rows_for(victim_row)
        self.device.write_row(bank, victim_row, pattern.victim_fill)
        for aggressor in {below, above}:
            self.device.write_row(bank, aggressor, pattern.aggressor_fill)
        physical = self.device.scrambler.to_physical(victim_row)
        self.model.set_pattern_hint(bank, physical, pattern)

    def hammer_doublesided(
        self,
        bank: int,
        victim_row: int,
        hammer_count: int,
        t_agg_on_ns: float = 36.0,
    ) -> None:
        """Alternately activate the two aggressors ``hammer_count`` times."""
        below, above = self.aggressor_rows_for(victim_row)
        start = self.device.clock_ns
        self.device.hammer(bank, [below, above], hammer_count, t_agg_on_ns)
        self._check_refresh_window(self.device.clock_ns - start)

    def measure_ber(
        self,
        bank: int,
        victim_row: int,
        pattern: DataPattern,
        hammer_count: int,
        t_agg_on_ns: float = 36.0,
    ) -> BerMeasurement:
        """The paper's ``measure_BER``: initialize, hammer, compare."""
        self.initialize_victim(bank, victim_row, pattern)
        expected = np.full(
            self.geometry.row_bytes, pattern.victim_fill, dtype=np.uint8
        )
        self.hammer_doublesided(bank, victim_row, hammer_count, t_agg_on_ns)
        observed = self.device.read_row(bank, victim_row)
        bitflips = count_mismatched_bits(observed, expected)
        return BerMeasurement(
            victim_row=victim_row,
            pattern=pattern,
            hammer_count=hammer_count,
            t_agg_on_ns=t_agg_on_ns,
            bitflips=bitflips,
            row_bits=self.geometry.row_bytes * 8,
        )

    def measure_ber_bank(
        self,
        bank: int,
        rows: Sequence[int],
        patterns,
        hammer_count: int,
        t_agg_on_ns: float = 36.0,
    ) -> np.ndarray:
        """Batched ``measure_BER``: per-row bitflip counts, vectorized.

        Bit-identical to calling :meth:`measure_ber` once per row (the
        loop-reference oracle in
        :mod:`repro.characterization.reference` asserts this), but the
        whole bank is priced through the fault model's array kernels in
        one pass instead of replaying per-row command sequences.

        ``patterns`` is either one :class:`DataPattern` for every row
        or a per-row array of indices into ``list(DataPattern)``.

        Activation counts advance exactly as in the per-row loop.  The
        test clock advances by the loop's total in one multiply, which
        equals the loop's probe-by-probe float sum up to summation
        order (exactly when the per-probe charges are binary fractions,
        as on DDR4-3200; DDR4-2400 differs in the last digits).  Each
        measured victim and its aggressors are left freshly initialized
        (no accumulated exposure or flips); unlike the loop, no residual
        disturbance is left on bystander rows two rows away -- residue
        that each measurement's own initialization erases before it can
        ever be observed, which is why the measured values agree bit
        for bit.
        """
        rows = np.asarray(rows, dtype=np.int64)
        n = rows.size
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        pattern_list = list(DataPattern)
        if isinstance(patterns, DataPattern):
            pattern_index = np.full(
                n, pattern_list.index(patterns), dtype=np.int64
            )
        else:
            pattern_index = np.asarray(patterns, dtype=np.int64)
            if pattern_index.shape != rows.shape:
                raise ValueError("need one pattern index per row")

        device = self.device
        geometry = self.geometry
        timing = device.timing
        last = geometry.rows_per_bank - 1
        sa = geometry.subarray_rows
        physical = device.scrambler.to_physical_array(rows)

        # Exposure of each victim from its own double-sided hammer: one
        # in-range, in-subarray aggressor per side.  Physical-edge rows
        # are their own reflected aggressor (restored every iteration),
        # so they accumulate nothing.
        edge = (physical == 0) | (physical == last)
        side_below = ~edge & (physical % sa != 0)
        side_above = ~edge & (physical % sa != sa - 1)
        t_on = max(t_agg_on_ns, timing.tRAS)
        m = rowpress_multiplier(
            max(t_on, T_AGG_ON_MIN_NS), self.spec.rowpress_exponent
        )
        per_closure = 0.5 * m * 1.0 * hammer_count
        exposure = per_closure * (
            side_below.astype(np.float64) + side_above.astype(np.float64)
        )

        field_ = self.model.field(bank)
        affinity = AFFINITY_MATRIX[pattern_index, field_.wcdp_index[physical]]
        h_eq = exposure * affinity
        targets = self.model.flip_targets(
            h_eq=h_eq,
            hcf=field_.hc_first[physical],
            ber_sat=field_.ber_sat[physical],
            affinity=affinity,
        )
        # Edge victims read back the aggressor fill their initialization
        # left behind, not disturbance flips.
        bitflips = np.where(
            edge, geometry.row_bytes * _PATTERN_XOR_BITS[pattern_index], targets
        )

        # State/bookkeeping parity with the per-row loop.
        state = self.model.bank_state(bank)
        touched = np.concatenate(
            [physical, np.maximum(physical - 1, 0), np.minimum(physical + 1, last)]
        )
        state.exposure[touched] = 0.0
        state.n_flipped[touched] = 0
        self.model.set_pattern_hints(bank, physical, pattern_index)
        hammer_ns = hammer_count * 2 * (t_on + timing.tRP)
        self._check_refresh_window(hammer_ns)
        row_ns = (
            timing.tRCD
            + geometry.columns_per_row * timing.tCCD_L
            + timing.tRP
        )
        device.clock_ns += n * (4 * row_ns + hammer_ns)
        device.bank(bank).activation_count += n * 2 * hammer_count
        return bitflips

    # ------------------------------------------------------------------
    # Reverse-engineering probes
    # ------------------------------------------------------------------

    def single_sided_disturbs(
        self,
        bank: int,
        aggressor_row: int,
        victim_row: int,
        hammer_count: int,
    ) -> bool:
        """Does single-sided hammering of one row flip bits in another?

        Both addresses are logical; callers probing *physical*
        adjacency (the subarray reverse engineering) translate through
        the reverse-engineered row mapping first.
        """
        pattern = DataPattern.ROW_STRIPE
        self.device.write_row(bank, victim_row, pattern.victim_fill)
        self.device.write_row(bank, aggressor_row, pattern.aggressor_fill)
        self.device.hammer(bank, [aggressor_row], hammer_count)
        expected = np.full(
            self.geometry.row_bytes, pattern.victim_fill, dtype=np.uint8
        )
        observed = self.device.read_row(bank, victim_row)
        return count_mismatched_bits(observed, expected) > 0

    def single_sided_disturbs_bank(
        self,
        bank: int,
        aggressor_rows: Sequence[int],
        victim_rows: Sequence[int],
        hammer_count: int,
    ) -> np.ndarray:
        """Batched ``single_sided_disturbs``: one bool per row pair.

        Bit-identical to calling :meth:`single_sided_disturbs` once per
        ``(aggressor, victim)`` pair (the kernel tests assert this), but
        every pair is priced through the fault model's array kernels in
        one pass.  Each probe rewrites its victim and its aggressor
        before hammering, which zeroes their exposure and flip count, so
        a probe's outcome depends on that probe alone: the victim flips
        iff the exposure from ``hammer_count`` closures of one aggressor
        at physical distance 1 or 2 in its subarray reaches a flip
        target above 0.  Addresses are logical, as in the per-pair call.

        Activation counts advance exactly as in the per-pair loop; the
        test clock advances by the loop's total in one multiply, equal
        to the loop's probe-by-probe sum up to float summation order
        (as in :meth:`measure_ber_bank`).  No cell rows are
        materialized and no exposure is recorded: the loop's writes,
        flips and bystander exposure are erased by any later
        measurement's own initialization before they can be observed.
        """
        if hammer_count < 0:
            raise ValueError("hammer count must be non-negative")
        device = self.device
        timing = device.timing
        aggressors = device.scrambler.to_physical_array(aggressor_rows)
        victims = device.scrambler.to_physical_array(victim_rows)
        if aggressors.shape != victims.shape:
            raise ValueError("need one victim row per aggressor row")

        sa = self.geometry.subarray_rows
        distance = np.abs(victims - aggressors)
        weight = np.where(distance == 1, 1.0, 0.0)
        weight[distance == 2] = self.model.blast_damping
        weight[victims // sa != aggressors // sa] = 0.0
        m = rowpress_multiplier(
            max(timing.tRAS, T_AGG_ON_MIN_NS), self.spec.rowpress_exponent
        )
        exposure = 0.5 * m * weight * hammer_count
        field_ = self.model.field(bank)
        affinity = self.model._affinity_for_rows(bank, field_, victims)
        targets = self.model.flip_targets(
            h_eq=exposure * affinity,
            hcf=field_.hc_first[victims],
            ber_sat=field_.ber_sat[victims],
            affinity=affinity,
        )
        # A victim that is its own aggressor reads back the aggressor
        # fill its second write left behind.
        disturbed = (targets > 0) | (distance == 0)

        row_ns = (
            timing.tRCD
            + self.geometry.columns_per_row * timing.tCCD_L
            + timing.tRP
        )
        hammer_ns = hammer_count * (timing.tRAS + timing.tRP)
        device.clock_ns += victims.size * (3 * row_ns + hammer_ns)
        device.bank(bank).activation_count += victims.size * hammer_count
        return disturbed

    def try_rowclone(self, bank: int, src_row: int, dst_row: int) -> bool:
        """Attempt an intra-subarray RowClone; True if data was copied.

        A successful copy proves the two rows share a subarray (Key
        Insight 2); a failed copy proves nothing.
        """
        marker = 0xC3
        self.device.write_row(bank, src_row, marker)
        self.device.write_row(bank, dst_row, bitwise_inverse(marker))
        self.device.execute(rowclone_program(bank, src_row, dst_row), strict=False)
        observed = self.device.read_row(bank, dst_row)
        return bool(np.all(observed == marker))

    # ------------------------------------------------------------------

    def _check_refresh_window(self, duration_ns: float) -> None:
        if not self.enforce_refresh_window:
            return
        window = self.device.timing.derate_for_temperature(
            self.temperature.setpoint_c
        ).tREFW
        if duration_ns > window:
            raise RefreshWindowExceeded(
                f"test program ran {duration_ns / 1e6:.1f} ms, beyond the "
                f"{window / 1e6:.1f} ms refresh window; split the test"
            )
