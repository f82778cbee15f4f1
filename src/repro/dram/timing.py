"""JEDEC timing parameters as declarative device-generation tables.

All values are stored in nanoseconds.  Timing sets are *data*: each
device generation (DDR4, LPDDR4, DDR5) is a table of named timing
parameters plus the generation-specific structure the simulator and
the conformance checker consume -- bank-group presence, refresh
granularity, and the generation's JEDEC rulebook (as
:class:`RuleSpec` rows, resolved against the parameter table by
:func:`repro.sim.conformance.timing_rules`).

The DDR4 presets correspond to the speed grades of the modules in the
paper's Table 5 (DDR4-3200, -2933, -2666, and -2400) and follow
JESD79-4C; where a parameter depends on the speed bin we use the
common datasheet value for that bin.  The LPDDR4 preset follows
JESD209-4B and the DDR5 preset JESD79-5B (4800B bin, 16 Gb tRFC1),
with the same convention.

Look presets up through :func:`device_for` (``"DDR5-4800"``,
``"LPDDR4"``, or a bare DDR4 rate like ``3200``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, Mapping, Tuple

#: Refresh granularities a generation can declare (how the engine's
#: periodic refresh sweeps the banks).
REFRESH_ALL_BANK = "all-bank"    # DDR4: one REF locks every bank
REFRESH_PER_BANK = "per-bank"    # LPDDR4: REFpb rotates over the banks
REFRESH_SAME_BANK = "same-bank"  # DDR5: REFsb hits one bank per group


@dataclass(frozen=True)
class RuleSpec:
    """One generation rulebook row, as pure data.

    ``prev``/``curr`` are :class:`~repro.dram.commands.CommandKind`
    names; ``parameter`` names the :class:`TimingParameters` attribute
    (field or property) holding the minimum delay.  The conformance
    layer resolves these against a concrete preset -- this module
    stays free of command-model imports.
    """

    name: str
    prev: str
    curr: str
    scope: str  # "bank" | "rank"
    parameter: str


#: The DDR4 rulebook: the exact rules the checker enforced before the
#: generations refactor, now as generation data.
DDR4_RULE_TABLE: Tuple[RuleSpec, ...] = (
    RuleSpec("tRCD", "ACT", "RD", "bank", "tRCD"),
    RuleSpec("tRCD", "ACT", "WR", "bank", "tRCD"),
    RuleSpec("tRAS", "ACT", "PRE", "bank", "tRAS"),
    RuleSpec("tRP", "PRE", "ACT", "bank", "tRP"),
    RuleSpec("tRC", "ACT", "ACT", "bank", "tRC"),
    RuleSpec("tRRD_S", "ACT", "ACT", "rank", "tRRD_S"),
    RuleSpec("tRFC", "REF", "ACT", "bank", "tRFC"),
    RuleSpec("tRFC", "REF", "REF", "bank", "tRFC"),
)

#: LPDDR4 has no bank groups (one tRRD) and refreshes per bank, so a
#: REF's lockout is the per-bank tRFCpb, not the all-bank tRFCab.
LPDDR4_RULE_TABLE: Tuple[RuleSpec, ...] = (
    RuleSpec("tRCD", "ACT", "RD", "bank", "tRCD"),
    RuleSpec("tRCD", "ACT", "WR", "bank", "tRCD"),
    RuleSpec("tRAS", "ACT", "PRE", "bank", "tRAS"),
    RuleSpec("tRP", "PRE", "ACT", "bank", "tRP"),
    RuleSpec("tRC", "ACT", "ACT", "bank", "tRC"),
    RuleSpec("tRRD", "ACT", "ACT", "rank", "tRRD"),
    RuleSpec("tRFCpb", "REF", "ACT", "bank", "tRFCpb"),
    RuleSpec("tRFCpb", "REF", "REF", "bank", "tRFCpb"),
)

#: DDR5 keeps bank groups (tRRD_S) but refreshes same-bank (REFsb),
#: whose lockout is tRFCsb.
DDR5_RULE_TABLE: Tuple[RuleSpec, ...] = (
    RuleSpec("tRCD", "ACT", "RD", "bank", "tRCD"),
    RuleSpec("tRCD", "ACT", "WR", "bank", "tRCD"),
    RuleSpec("tRAS", "ACT", "PRE", "bank", "tRAS"),
    RuleSpec("tRP", "PRE", "ACT", "bank", "tRP"),
    RuleSpec("tRC", "ACT", "ACT", "bank", "tRC"),
    RuleSpec("tRRD_S", "ACT", "ACT", "rank", "tRRD_S"),
    RuleSpec("tRFCsb", "REF", "ACT", "bank", "tRFCsb"),
    RuleSpec("tRFCsb", "REF", "REF", "bank", "tRFCsb"),
)


@dataclass(frozen=True)
class TimingParameters:
    """DDR4 timing parameters in nanoseconds.

    Attributes mirror the JEDEC names used throughout the paper:

    * ``tRCD`` -- row activation latency: ACT to first RD/WR.
    * ``tRAS`` -- minimum time a row must stay open (charge restoration).
    * ``tRP``  -- precharge latency: PRE to next ACT.
    * ``tRC``  -- full row cycle (``tRAS + tRP``).
    * ``tCL``  -- column (read) access latency.
    * ``tCWL`` -- column write latency.
    * ``tBL``  -- burst transfer time on the data bus (BL8).
    * ``tRRD_S``/``tRRD_L`` -- ACT-to-ACT, different / same bank group.
    * ``tCCD_S``/``tCCD_L`` -- column-to-column, different / same group.
    * ``tFAW`` -- rolling four-activate window.
    * ``tWR``  -- write recovery.
    * ``tWTR_S``/``tWTR_L`` -- write-to-read turnaround.
    * ``tRTP`` -- read to precharge.
    * ``tRFC`` -- refresh latency for one REF command.
    * ``tREFI`` -- refresh command interval (7.8 us at <= 85 C).
    * ``tREFW`` -- refresh window (64 ms at <= 85 C).

    Generation structure lives in class-level attributes (excluded
    from ``dataclasses.fields`` and therefore from cache-key
    canonicalization): ``generation``, ``has_bank_groups``,
    ``refresh_granularity``, and ``rule_table``.  Subclasses --
    :class:`LPDDR4TimingParameters`, :class:`DDR5TimingParameters` --
    override them and add their generation-specific fields.
    """

    generation: ClassVar[str] = "DDR4"
    has_bank_groups: ClassVar[bool] = True
    refresh_granularity: ClassVar[str] = REFRESH_ALL_BANK
    rule_table: ClassVar[Tuple[RuleSpec, ...]] = DDR4_RULE_TABLE

    data_rate_mts: int = 3200
    tCK: float = 0.625
    tRCD: float = 13.75
    tRAS: float = 32.0
    tRP: float = 13.75
    tCL: float = 13.75
    tCWL: float = 10.0
    tBL: float = 2.5
    tRRD_S: float = 2.5
    tRRD_L: float = 4.9
    tCCD_S: float = 2.5
    tCCD_L: float = 3.125
    tFAW: float = 21.0
    tWR: float = 15.0
    tWTR_S: float = 2.5
    tWTR_L: float = 7.5
    tRTP: float = 7.5
    tRFC: float = 350.0
    tREFI: float = 7800.0
    tREFW: float = 64_000_000.0

    @property
    def tRC(self) -> float:
        """Row cycle time: the minimum ACT-to-ACT delay to one bank."""
        return self.tRAS + self.tRP

    # -- generation-aware parameter selection ---------------------------
    #
    # The engine does not track bank-group adjacency, so with bank
    # groups present it paces by the cross-group minima (tRRD_S for
    # ACTs) and charges column occupancy at the same-group tCCD_L,
    # exactly as the DDR4-only engine did.  Generations without bank
    # groups store their single tRRD/tCCD in both the _S and _L
    # fields; selection then reads the other field, which is how a
    # typo'd non-equal pair would surface in the consistency tests.

    @property
    def act_to_act_ns(self) -> float:
        """Rank-level ACT->ACT pacing the scheduler enforces."""
        return self.tRRD_S if self.has_bank_groups else self.tRRD_L

    @property
    def column_to_column_ns(self) -> float:
        """Back-to-back column command spacing (burst occupancy)."""
        return self.tCCD_L if self.has_bank_groups else self.tCCD_S

    @property
    def refresh_latency_ns(self) -> float:
        """Bank lockout charged per logged REF command."""
        return self.tRFC

    def refresh_slices(
        self, *, banks_per_rank: int, banks_per_group: int
    ) -> int:
        """How many refresh commands one full bank rotation takes.

        All-bank refresh sweeps every bank at once (one slice);
        per-bank refresh (LPDDR4 REFpb) rotates over the rank's banks;
        same-bank refresh (DDR5 REFsb) rotates over the bank index
        within each group, hitting that bank in every group at once.
        The engine spaces slices ``tREFI / slices`` apart, so every
        bank is still refreshed once per ``tREFI``.
        """
        if self.refresh_granularity == REFRESH_ALL_BANK:
            return 1
        if self.refresh_granularity == REFRESH_PER_BANK:
            return banks_per_rank
        return banks_per_group

    def derate_for_temperature(self, celsius: float) -> "TimingParameters":
        """Return parameters adjusted for the extended temperature range.

        Above 85 C JEDEC halves the refresh window and interval
        (2x refresh); at or below 85 C parameters are unchanged.
        """
        if celsius <= 85.0:
            return self
        return replace(self, tREFI=self.tREFI / 2.0, tREFW=self.tREFW / 2.0)

    def activations_per_refresh_window(self) -> int:
        """Upper bound on single-bank activations inside one ``tREFW``.

        Useful for reasoning about the maximum hammer count an attacker
        can issue between two refreshes of a victim row.  The bound is
        the number of *whole* row cycles that fit in the generation's
        refresh window -- ``floor(tREFW / tRC)``, truncating any
        fractional trailing cycle, since a partially completed
        activation cannot disturb the victim before the refresh lands.
        Generations with a shorter window (LPDDR4/DDR5: 32 ms vs
        DDR4's 64 ms) therefore bound correspondingly fewer hammers.
        """
        return int(self.tREFW // self.tRC)


@dataclass(frozen=True)
class LPDDR4TimingParameters(TimingParameters):
    """LPDDR4 timing (JESD209-4B): no bank groups, per-bank refresh.

    LPDDR4 has a single tRRD/tCCD (stored in both the ``_S`` and
    ``_L`` fields) and splits refresh latency into the all-bank
    ``tRFCab`` (mirrored into ``tRFC``) and the per-bank ``tRFCpb``
    charged for each REFpb command the engine issues.
    """

    generation: ClassVar[str] = "LPDDR4"
    has_bank_groups: ClassVar[bool] = False
    refresh_granularity: ClassVar[str] = REFRESH_PER_BANK
    rule_table: ClassVar[Tuple[RuleSpec, ...]] = LPDDR4_RULE_TABLE

    tRFCab: float = 280.0
    tRFCpb: float = 140.0

    def __post_init__(self) -> None:
        if self.tRRD_S != self.tRRD_L or self.tCCD_S != self.tCCD_L:
            raise ValueError(
                "LPDDR4 has no bank groups: store the single tRRD/tCCD "
                "in both the _S and _L fields"
            )
        if self.tRFC != self.tRFCab:
            raise ValueError("LPDDR4 tRFC must mirror tRFCab")

    @property
    def tRRD(self) -> float:
        """The single ACT->ACT delay (no bank groups)."""
        return self.tRRD_S

    @property
    def tCCD(self) -> float:
        """The single column->column delay (no bank groups)."""
        return self.tCCD_S

    @property
    def refresh_latency_ns(self) -> float:
        return self.tRFCpb


@dataclass(frozen=True)
class DDR5TimingParameters(TimingParameters):
    """DDR5 timing (JESD79-5B): same-bank refresh, 32 ms window.

    DDR5 keeps DDR4's bank-group structure but the engine refreshes in
    same-bank granularity (REFsb): each refresh locks one bank index
    across every bank group for ``tRFCsb``.
    """

    generation: ClassVar[str] = "DDR5"
    has_bank_groups: ClassVar[bool] = True
    refresh_granularity: ClassVar[str] = REFRESH_SAME_BANK
    rule_table: ClassVar[Tuple[RuleSpec, ...]] = DDR5_RULE_TABLE

    tRFCsb: float = 130.0

    @property
    def refresh_latency_ns(self) -> float:
        return self.tRFCsb


#: DDR4-3200 speed grade (modules H0-H4, M0, M4 in Table 5).
DDR4_3200 = TimingParameters()

#: DDR4-2933 speed grade (module M2).
DDR4_2933 = TimingParameters(
    data_rate_mts=2933,
    tCK=0.682,
    tRCD=13.64,
    tRAS=32.0,
    tRP=13.64,
    tCL=13.64,
    tCWL=10.9,
    tBL=2.73,
    tRRD_S=2.73,
    tRRD_L=4.9,
    tCCD_S=2.73,
    tCCD_L=3.41,
    tFAW=21.0,
)

#: DDR4-2666 speed grade (modules S0-S2, S4).
DDR4_2666 = TimingParameters(
    data_rate_mts=2666,
    tCK=0.75,
    tRCD=13.5,
    tRAS=32.0,
    tRP=13.5,
    tCL=13.5,
    tCWL=10.5,
    tBL=3.0,
    tRRD_S=3.0,
    tRRD_L=4.9,
    tCCD_S=3.0,
    tCCD_L=3.75,
    tFAW=21.0,
)

#: DDR4-2400 speed grade (modules M1, M3, S3).
DDR4_2400 = TimingParameters(
    data_rate_mts=2400,
    tCK=0.833,
    tRCD=13.32,
    tRAS=32.0,
    tRP=13.32,
    tCL=13.32,
    tCWL=10.0,
    tBL=3.33,
    tRRD_S=3.33,
    tRRD_L=4.9,
    tCCD_S=3.33,
    tCCD_L=4.16,
    tFAW=21.0,
)

#: LPDDR4-3200 (JESD209-4B; 8 Gb per-channel densities).  BL16 on a
#: x16 channel: tBL = 8 tCK; single tRRD/tCCD; 32 ms refresh window
#: with per-bank REFpb every tREFIpb = tREFIab / 8.
LPDDR4_3200 = LPDDR4TimingParameters(
    data_rate_mts=3200,
    tCK=0.625,
    tRCD=18.0,
    tRAS=42.0,
    tRP=18.0,
    tCL=17.5,
    tCWL=8.75,
    tBL=5.0,
    tRRD_S=10.0,
    tRRD_L=10.0,
    tCCD_S=5.0,
    tCCD_L=5.0,
    tFAW=40.0,
    tWR=18.0,
    tWTR_S=10.0,
    tWTR_L=10.0,
    tRTP=7.5,
    tRFC=280.0,
    tREFI=3904.0,
    tREFW=32_000_000.0,
    tRFCab=280.0,
    tRFCpb=140.0,
)

#: DDR5-4800 (JESD79-5B, 4800B bin, 16 Gb; tRFC1/tRFCsb).  BL16:
#: tBL = 8 tCK; 32 ms refresh window, 3.9 us average refresh interval.
DDR5_4800 = DDR5TimingParameters(
    data_rate_mts=4800,
    tCK=0.4166666666666667,
    tRCD=16.0,
    tRAS=32.0,
    tRP=16.0,
    tCL=16.0,
    tCWL=15.83,
    tBL=3.3333333333333335,
    tRRD_S=3.3333333333333335,
    tRRD_L=5.0,
    tCCD_S=3.3333333333333335,
    tCCD_L=5.0,
    tFAW=13.333,
    tWR=30.0,
    tWTR_S=2.5,
    tWTR_L=10.0,
    tRTP=7.5,
    tRFC=295.0,
    tREFI=3900.0,
    tREFW=32_000_000.0,
    tRFCsb=130.0,
)


@dataclass(frozen=True)
class DeviceGeneration:
    """One device generation: its preset table plus lookup helpers.

    The generation-specific *structure* (bank groups, refresh
    granularity, rulebook) lives on the presets' class; this object is
    the registry row that names the generation and maps data rates to
    presets.
    """

    name: str
    description: str
    presets: Mapping[int, TimingParameters] = field(default_factory=dict)
    default_rate: int = 0

    def __post_init__(self) -> None:
        if self.default_rate not in self.presets:
            raise ValueError(
                f"{self.name}: default rate {self.default_rate} has no preset"
            )
        for rate, preset in self.presets.items():
            if preset.data_rate_mts != rate:
                raise ValueError(
                    f"{self.name}-{rate}: preset says "
                    f"{preset.data_rate_mts} MT/s"
                )
            if preset.generation != self.name:
                raise ValueError(
                    f"{self.name}-{rate}: preset is a "
                    f"{preset.generation} parameter set"
                )

    @property
    def rates(self) -> Tuple[int, ...]:
        return tuple(sorted(self.presets))

    def device_names(self) -> Tuple[str, ...]:
        """Every ``NAME-RATE`` spec this generation resolves."""
        return tuple(f"{self.name}-{rate}" for rate in self.rates)

    def preset_for(self, data_rate_mts: int) -> TimingParameters:
        try:
            return self.presets[data_rate_mts]
        except KeyError:
            supported = ", ".join(str(rate) for rate in self.rates)
            raise ValueError(
                f"no {self.name} timing preset for {data_rate_mts} MT/s; "
                f"supported speed grades: {supported}"
            ) from None


#: The generation registry, in generation order.
GENERATIONS: Dict[str, DeviceGeneration] = {
    "DDR4": DeviceGeneration(
        name="DDR4",
        description="JESD79-4C; all-bank refresh, 64 ms window",
        presets={
            3200: DDR4_3200,
            2933: DDR4_2933,
            2666: DDR4_2666,
            2400: DDR4_2400,
        },
        default_rate=3200,
    ),
    "LPDDR4": DeviceGeneration(
        name="LPDDR4",
        description="JESD209-4B; per-bank refresh, no bank groups",
        presets={3200: LPDDR4_3200},
        default_rate=3200,
    ),
    "DDR5": DeviceGeneration(
        name="DDR5",
        description="JESD79-5B; same-bank refresh, 32 ms window",
        presets={4800: DDR5_4800},
        default_rate=4800,
    ),
}


def all_device_names() -> Tuple[str, ...]:
    """Every ``GENERATION-RATE`` spec, in generation then rate order."""
    names: list = []
    for generation in GENERATIONS.values():
        names.extend(generation.device_names())
    return tuple(names)


def device_for(name_or_rate) -> TimingParameters:
    """Resolve a device spec to its preset :class:`TimingParameters`.

    Accepts a ``"GENERATION-RATE"`` spec (``"DDR5-4800"``), a bare
    generation name at its default rate (``"LPDDR4"``), or a bare DDR4
    data rate (``3200`` or ``"3200"``) for compatibility with the
    speed-grade interface this function absorbed.

    Raises:
        ValueError: for an unknown generation or rate, naming the
            device specs that exist.
    """
    spec = name_or_rate
    if isinstance(spec, int):
        return GENERATIONS["DDR4"].preset_for(spec)
    if not isinstance(spec, str):
        raise ValueError(f"device spec must be a string or MT/s rate, "
                         f"got {spec!r}")
    text = spec.strip()
    if text.isdigit():
        return GENERATIONS["DDR4"].preset_for(int(text))
    name, _, rate_text = text.partition("-")
    generation = GENERATIONS.get(name.upper())
    if generation is None or (rate_text and not rate_text.isdigit()):
        supported = ", ".join(all_device_names())
        raise ValueError(
            f"unknown device {spec!r}; supported: {supported} "
            "(a bare generation name picks its default rate)"
        )
    if not rate_text:
        return generation.preset_for(generation.default_rate)
    return generation.preset_for(int(rate_text))

