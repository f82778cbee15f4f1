"""Registry of the 15 tested DDR4 modules (Tables 1 and 5).

Every module in the paper's test pool is represented by a
:class:`ModuleSpec` carrying both its catalogue identity (vendor,
density, die revision, organization, speed grade) and the calibration
our fault model needs: the measured min/avg/max ``HC_first`` from
Table 5 and the mean BER and coefficient of variation read from Fig 3.

The four Samsung modules of Table 3 additionally carry the spatial
feature effects that make their ``HC_first`` fields predictable from
address bits (Takeaway 6); the remaining eleven modules have none.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Tuple

from repro.dram.mapping import ScramblingScheme
from repro.dram.timing import TimingParameters, device_for
from repro.faults.variation import (
    ChunkEffect,
    SpatialFeatureEffect,
    SpatialVariationField,
    VariationFieldParams,
)

K = 1024


class Manufacturer(Enum):
    """The three major DRAM manufacturers in the paper's test pool."""

    SK_HYNIX = "H"
    MICRON = "M"
    SAMSUNG = "S"

    @property
    def display_name(self) -> str:
        return {"H": "SK Hynix", "M": "Micron", "S": "Samsung"}[self.value]


@dataclass(frozen=True)
class ModuleSpec:
    """One tested DRAM module: identity plus fault-model calibration."""

    label: str
    manufacturer: Manufacturer
    n_chips: int
    density_gb: int
    die_revision: str
    organization: str
    freq_mts: int
    mfr_date: Optional[str]
    rows_per_bank: int
    hc_min: int
    hc_avg: int
    hc_max: int
    ber_mean: float
    ber_cv_pct: float
    n_ber_periods: float = 4.0
    subarray_rows: int = 512
    scrambling: ScramblingScheme = ScramblingScheme.IDENTITY
    feature_effects: Tuple[SpatialFeatureEffect, ...] = ()
    chunk_effects: Tuple[ChunkEffect, ...] = ()
    rowpress_exponent: float = 0.55
    #: Beta concentration of the HC_first marginal: higher = tighter
    #: histogram with a thinner weak tail (Fig 5: Samsung histograms
    #: are sharply peaked, SK Hynix ones broad).  The weak-tail mass
    #: drives how much headroom Svärd can exploit (Obsv 15).
    hc_concentration: float = 6.0

    @property
    def timing(self) -> TimingParameters:
        return device_for(self.freq_mts)

    def variation_params(
        self, rows_per_bank: Optional[int] = None
    ) -> VariationFieldParams:
        """Field-generation parameters, optionally scaled down.

        Scaling reduces the number of rows while keeping the marginal
        distributions and the number of BER periods, so scaled-down
        experiments reproduce the same statistics in less time.  The
        subarray size is kept unless it exceeds a quarter of the
        scaled bank (reverse engineering needs several subarrays).
        """
        rows = self.rows_per_bank if rows_per_bank is None else rows_per_bank
        subarray_rows = min(self.subarray_rows, max(2, rows // 4))
        return VariationFieldParams(
            rows_per_bank=rows,
            hc_min=self.hc_min,
            hc_avg=self.hc_avg,
            hc_max=self.hc_max,
            ber_mean=self.ber_mean,
            ber_cv_pct=self.ber_cv_pct,
            n_ber_periods=self.n_ber_periods,
            hc_concentration=self.hc_concentration,
            subarray_rows=subarray_rows,
            feature_effects=self.feature_effects,
            chunk_effects=self.chunk_effects,
        )

    def generate_field(
        self, *, bank: int = 0, rows_per_bank: Optional[int] = None, seed: int = 0
    ) -> SpatialVariationField:
        """Generate this module's ground-truth field for one bank."""
        params = self.variation_params(rows_per_bank)
        return SpatialVariationField.generate(
            params, bank=bank, seed=seed ^ _stable_hash(self.label)
        )


def _stable_hash(text: str) -> int:
    """A seed derived from a label, stable across interpreter runs."""
    value = 0
    for ch in text:
        value = (value * 131 + ord(ch)) % (2**31)
    return value


MODULES: Dict[str, ModuleSpec] = {
    spec.label: spec
    for spec in (
        # ----------------------------- SK Hynix ----------------------
        ModuleSpec(
            label="H0", manufacturer=Manufacturer.SK_HYNIX, n_chips=8,
            density_gb=16, die_revision="A", organization="x8",
            freq_mts=3200, mfr_date="51-20", rows_per_bank=128 * K,
            hc_min=16 * K, hc_avg=int(46.2 * K), hc_max=96 * K,
            ber_mean=2.0e-2, ber_cv_pct=3.36, hc_concentration=4.5, n_ber_periods=6.0,
            subarray_rows=832, scrambling=ScramblingScheme.XOR_FOLD,
        ),
        ModuleSpec(
            label="H1", manufacturer=Manufacturer.SK_HYNIX, n_chips=8,
            density_gb=16, die_revision="C", organization="x8",
            freq_mts=3200, mfr_date="51-20", rows_per_bank=128 * K,
            hc_min=12 * K, hc_avg=54 * K, hc_max=128 * K,
            ber_mean=3.2e-2, ber_cv_pct=2.25, hc_concentration=4.5, n_ber_periods=6.0,
            subarray_rows=832, scrambling=ScramblingScheme.XOR_FOLD,
        ),
        ModuleSpec(
            label="H2", manufacturer=Manufacturer.SK_HYNIX, n_chips=8,
            density_gb=16, die_revision="C", organization="x8",
            freq_mts=3200, mfr_date="36-21", rows_per_bank=128 * K,
            hc_min=12 * K, hc_avg=int(55.4 * K), hc_max=128 * K,
            ber_mean=3.2e-2, ber_cv_pct=2.43, hc_concentration=4.5, n_ber_periods=6.0,
            subarray_rows=832, scrambling=ScramblingScheme.XOR_FOLD,
        ),
        ModuleSpec(
            label="H3", manufacturer=Manufacturer.SK_HYNIX, n_chips=8,
            density_gb=16, die_revision="C", organization="x8",
            freq_mts=3200, mfr_date="36-21", rows_per_bank=128 * K,
            hc_min=12 * K, hc_avg=int(57.8 * K), hc_max=128 * K,
            ber_mean=3.2e-2, ber_cv_pct=1.99, hc_concentration=4.5, n_ber_periods=6.0,
            subarray_rows=832, scrambling=ScramblingScheme.XOR_FOLD,
        ),
        ModuleSpec(
            label="H4", manufacturer=Manufacturer.SK_HYNIX, n_chips=8,
            density_gb=8, die_revision="D", organization="x8",
            freq_mts=3200, mfr_date="48-20", rows_per_bank=64 * K,
            hc_min=16 * K, hc_avg=int(38.1 * K), hc_max=96 * K,
            ber_mean=2.2e-2, ber_cv_pct=2.5, hc_concentration=4.5, n_ber_periods=5.0,
            subarray_rows=832, scrambling=ScramblingScheme.XOR_FOLD,
            chunk_effects=(ChunkEffect(0.55, 0.75, ber_boost=1.06, hc_shift=-0.2),),
        ),
        # ----------------------------- Micron ------------------------
        ModuleSpec(
            label="M0", manufacturer=Manufacturer.MICRON, n_chips=4,
            density_gb=16, die_revision="E", organization="x16",
            freq_mts=3200, mfr_date="46-20", rows_per_bank=128 * K,
            hc_min=8 * K, hc_avg=int(24.5 * K), hc_max=40 * K,
            ber_mean=1.7e-2, ber_cv_pct=0.8, hc_concentration=6.0, n_ber_periods=8.0,
            subarray_rows=1024, scrambling=ScramblingScheme.MIRROR,
        ),
        ModuleSpec(
            label="M1", manufacturer=Manufacturer.MICRON, n_chips=16,
            density_gb=8, die_revision="B", organization="x4",
            freq_mts=2400, mfr_date=None, rows_per_bank=128 * K,
            hc_min=40 * K, hc_avg=int(64.5 * K), hc_max=96 * K,
            ber_mean=6.0e-4, ber_cv_pct=8.08, hc_concentration=6.0, n_ber_periods=3.0,
            subarray_rows=1024, scrambling=ScramblingScheme.MIRROR,
            chunk_effects=(ChunkEffect(0.03, 0.12, ber_boost=1.20, hc_shift=-0.35),),
        ),
        ModuleSpec(
            label="M2", manufacturer=Manufacturer.MICRON, n_chips=16,
            density_gb=16, die_revision="E", organization="x4",
            freq_mts=2933, mfr_date="14-20", rows_per_bank=128 * K,
            hc_min=8 * K, hc_avg=int(28.6 * K), hc_max=48 * K,
            ber_mean=8.1e-2, ber_cv_pct=0.63, hc_concentration=6.0, n_ber_periods=8.0,
            subarray_rows=1024, scrambling=ScramblingScheme.MIRROR,
        ),
        ModuleSpec(
            label="M3", manufacturer=Manufacturer.MICRON, n_chips=16,
            density_gb=8, die_revision="B", organization="x4",
            freq_mts=2400, mfr_date="36-21", rows_per_bank=128 * K,
            hc_min=56 * K, hc_avg=90 * K, hc_max=128 * K,
            ber_mean=1.2e-4, ber_cv_pct=5.21, hc_concentration=6.0, n_ber_periods=3.0,
            subarray_rows=1024, scrambling=ScramblingScheme.MIRROR,
            chunk_effects=(ChunkEffect(0.40, 0.55, ber_boost=1.10, hc_shift=-0.25),),
        ),
        ModuleSpec(
            label="M4", manufacturer=Manufacturer.MICRON, n_chips=4,
            density_gb=16, die_revision="B", organization="x16",
            freq_mts=3200, mfr_date="26-21", rows_per_bank=128 * K,
            hc_min=12 * K, hc_avg=int(42.2 * K), hc_max=96 * K,
            ber_mean=2.2e-2, ber_cv_pct=0.65, hc_concentration=6.0, n_ber_periods=8.0,
            subarray_rows=1024, scrambling=ScramblingScheme.MIRROR,
        ),
        # ----------------------------- Samsung -----------------------
        ModuleSpec(
            label="S0", manufacturer=Manufacturer.SAMSUNG, n_chips=8,
            density_gb=8, die_revision="B", organization="x8",
            freq_mts=2666, mfr_date="52-20", rows_per_bank=64 * K,
            hc_min=32 * K, hc_avg=57 * K, hc_max=128 * K,
            ber_mean=1.15e-3, ber_cv_pct=4.37, hc_concentration=10.0, n_ber_periods=4.0,
            subarray_rows=512, scrambling=ScramblingScheme.MIRROR,
            feature_effects=(
                SpatialFeatureEffect("row", 7, 1.30),
                SpatialFeatureEffect("row", 8, 0.25),
                SpatialFeatureEffect("subarray", 0, 1.35),
                SpatialFeatureEffect("distance", 7, 0.25),
            ),
        ),
        ModuleSpec(
            label="S1", manufacturer=Manufacturer.SAMSUNG, n_chips=8,
            density_gb=8, die_revision="B", organization="x8",
            freq_mts=2666, mfr_date="52-20", rows_per_bank=64 * K,
            hc_min=24 * K, hc_avg=int(59.8 * K), hc_max=128 * K,
            ber_mean=1.3e-3, ber_cv_pct=5.77, hc_concentration=9.0, n_ber_periods=4.0,
            subarray_rows=512, scrambling=ScramblingScheme.MIRROR,
            feature_effects=(
                SpatialFeatureEffect("row", 7, 1.20),
                SpatialFeatureEffect("row", 8, 1.25),
                SpatialFeatureEffect("row", 10, 0.20),
                SpatialFeatureEffect("row", 12, 0.20),
                SpatialFeatureEffect("subarray", 0, 0.20),
            ),
        ),
        ModuleSpec(
            label="S2", manufacturer=Manufacturer.SAMSUNG, n_chips=8,
            density_gb=8, die_revision="B", organization="x8",
            freq_mts=2666, mfr_date="10-21", rows_per_bank=64 * K,
            hc_min=12 * K, hc_avg=int(42.7 * K), hc_max=96 * K,
            ber_mean=1.3e-2, ber_cv_pct=4.1, hc_concentration=7.0, n_ber_periods=4.0,
            subarray_rows=512, scrambling=ScramblingScheme.MIRROR,
        ),
        ModuleSpec(
            label="S3", manufacturer=Manufacturer.SAMSUNG, n_chips=8,
            density_gb=4, die_revision="F", organization="x8",
            freq_mts=2400, mfr_date="04-21", rows_per_bank=32 * K,
            hc_min=16 * K, hc_avg=int(59.2 * K), hc_max=128 * K,
            ber_mean=1.9e-2, ber_cv_pct=2.99, hc_concentration=9.0, n_ber_periods=4.0,
            subarray_rows=330, scrambling=ScramblingScheme.MIRROR,
            feature_effects=(
                SpatialFeatureEffect("row", 10, 1.10),
                SpatialFeatureEffect("subarray", 1, 1.50),
                SpatialFeatureEffect("subarray", 2, 0.30),
            ),
        ),
        ModuleSpec(
            label="S4", manufacturer=Manufacturer.SAMSUNG, n_chips=16,
            density_gb=8, die_revision="C", organization="x4",
            freq_mts=2666, mfr_date="35-21", rows_per_bank=128 * K,
            hc_min=12 * K, hc_avg=int(55.4 * K), hc_max=128 * K,
            ber_mean=1.25e-2, ber_cv_pct=3.65, hc_concentration=8.0, n_ber_periods=4.0,
            subarray_rows=512, scrambling=ScramblingScheme.MIRROR,
            feature_effects=(SpatialFeatureEffect("subarray", 0, 0.75),),
        ),
    )
}

#: Modules whose spatial features correlate with HC_first (Table 3).
FEATURE_CORRELATED_MODULES: Tuple[str, ...] = ("S0", "S1", "S3", "S4")

#: Representative module per manufacturer used in the Svard evaluation.
REPRESENTATIVE_MODULES: Tuple[str, ...] = ("H1", "M0", "S0")


def module_by_label(label: str) -> ModuleSpec:
    """Look up a module by its Table 5 label (e.g. ``"S0"``)."""
    try:
        return MODULES[label]
    except KeyError:
        raise KeyError(
            f"unknown module {label!r}; known: {sorted(MODULES)}"
        ) from None


def modules_by_manufacturer(manufacturer: Manufacturer) -> Tuple[ModuleSpec, ...]:
    """All modules from one manufacturer, in label order."""
    return tuple(
        spec for label, spec in sorted(MODULES.items())
        if spec.manufacturer is manufacturer
    )
