"""Shared fixtures: a small, fast synthetic module for device tests,
and the one table of experiment runs that the parity, golden and
paper-claim tests read, each computed at most once per session."""

import pytest

from repro.dram.geometry import DramGeometry
from repro.dram.mapping import ScramblingScheme
from repro.experiments import (
    ablation_bins,
    attack_manysided,
    fig3_ber_distribution,
    fig4_ber_location,
    fig5_hcfirst_distribution,
    fig6_hcfirst_location,
    fig7_rowpress,
    fig8_subarray_silhouette,
    fig9_spatial_features,
    fig10_aging,
    fig12_performance,
    fig13_adversarial,
    sec64_hardware_cost,
    table3_features,
    table5_modules,
)
from repro.experiments.common import ExperimentScale
from repro.faults.modules import Manufacturer, ModuleSpec


def make_tiny_spec(**overrides) -> ModuleSpec:
    """A synthetic module with tiny HC_first values for fast tests.

    HC_first between 20 and 80 hammer pairs means a few hundred
    command-level activations are enough to induce bitflips.
    """
    defaults = dict(
        label="T0",
        manufacturer=Manufacturer.SAMSUNG,
        n_chips=8,
        density_gb=8,
        die_revision="B",
        organization="x8",
        freq_mts=3200,
        mfr_date="01-24",
        rows_per_bank=256,
        hc_min=20,
        hc_avg=40,
        hc_max=80,
        ber_mean=5e-3,
        ber_cv_pct=4.0,
        n_ber_periods=2.0,
        subarray_rows=64,
        scrambling=ScramblingScheme.IDENTITY,
    )
    defaults.update(overrides)
    return ModuleSpec(**defaults)


@pytest.fixture
def tiny_spec():
    return make_tiny_spec()


@pytest.fixture
def tiny_geometry():
    return DramGeometry(rows_per_bank=256, subarray_rows=64, columns_per_row=16)


# ----------------------------------------------------------------------
# Experiment runs.  Each experiment's parity run (named after it) is
# the scale its snapshots in tests/golden/ were captured at; the
# "-wide" runs check the paper's claims across every module, every
# defense or the full sweep.
# ----------------------------------------------------------------------

#: One module per vendor.
ONE_MODULE = ExperimentScale(
    rows_per_bank=1024, banks=(1, 4), modules=("H1", "M1", "S0"), seed=1
)
#: Feature analysis needs the default row count: address-bit semantics
#: (and thus the calibrated F1 scores) depend on the bank size.
FEATURE_SCALE = ExperimentScale(rows_per_bank=2048, banks=(1, 4), seed=1)
WIDE_SCALE = ExperimentScale(rows_per_bank=1024, banks=(1, 4), seed=0)
WIDE_FEATURE_SCALE = ExperimentScale(rows_per_bank=2048, banks=(1, 4), seed=0)
#: Fig 8's probe runs: one 512-row bank.
FIG8_SCALE = ExperimentScale(rows_per_bank=512, banks=(0,), seed=2)

#: Each experiment's parity scale: the scale its parity run uses
#: (``sec64`` takes none).
PARITY_SCALES = {
    **{
        name: ONE_MODULE
        for name in ("fig3", "fig4", "fig5", "fig6", "fig7", "table5")
    },
    "fig8": ExperimentScale(
        rows_per_bank=512, banks=(0,), modules=("H1", "M1", "S0"), seed=2
    ),
    "fig9": FEATURE_SCALE,
    "fig10": ExperimentScale(rows_per_bank=2048, banks=(1,), seed=0),
    "fig12": ExperimentScale(
        rows_per_bank=1024,
        banks=(1, 4),
        n_mixes=1,
        requests_per_core=1200,
        hc_first_values=(1024, 64),
        svard_profiles=("S0",),
        seed=3,
    ),
    "fig13": ExperimentScale(
        rows_per_bank=1024, banks=(1,), svard_profiles=("S0",),
        requests_per_core=6000, seed=3,
    ),
    "attack-manysided": ExperimentScale(
        rows_per_bank=1024, banks=(1,), svard_profiles=("S0",),
        requests_per_core=3000, seed=3,
    ),
    "table3": FEATURE_SCALE,
    "ablation-bins": ExperimentScale(
        rows_per_bank=1024, banks=(1, 4), requests_per_core=1200, seed=3
    ),
}

#: name -> zero-argument call returning the rich result.
RUNS = {
    "fig3": lambda: fig3_ber_distribution.run(PARITY_SCALES["fig3"]),
    "fig4": lambda: fig4_ber_location.run(PARITY_SCALES["fig4"]),
    "fig5": lambda: fig5_hcfirst_distribution.run(PARITY_SCALES["fig5"]),
    "fig6": lambda: fig6_hcfirst_location.run(PARITY_SCALES["fig6"]),
    "fig7": lambda: fig7_rowpress.run(PARITY_SCALES["fig7"]),
    "fig8": lambda: fig8_subarray_silhouette.run(PARITY_SCALES["fig8"]),
    "fig9": lambda: fig9_spatial_features.run(PARITY_SCALES["fig9"]),
    "fig10": lambda: fig10_aging.run(PARITY_SCALES["fig10"]),
    "fig12": lambda: fig12_performance.run(
        PARITY_SCALES["fig12"], defenses=("PARA", "RRS")
    ),
    "fig13": lambda: fig13_adversarial.run(PARITY_SCALES["fig13"]),
    "attack-manysided": lambda: attack_manysided.run(
        PARITY_SCALES["attack-manysided"]
    ),
    "table3": lambda: table3_features.run(PARITY_SCALES["table3"]),
    "table5": lambda: table5_modules.run(PARITY_SCALES["table5"]),
    "sec64": lambda: sec64_hardware_cost.run(),
    "ablation-bins": lambda: ablation_bins.run(
        PARITY_SCALES["ablation-bins"],
        defense="PARA", hc_first=64, profile_label="S0", bin_sweep=(1, 4, 16),
    ),
    "fig4-50-bins": lambda: fig4_ber_location.run(ONE_MODULE, n_bins=50),
    "fig8-S0": lambda: fig8_subarray_silhouette.run(
        FIG8_SCALE, modules=("S0",)
    ),
    "fig8-S0-S3": lambda: fig8_subarray_silhouette.run(
        FIG8_SCALE, modules=("S0", "S3")
    ),
    "fig10-8k": lambda: fig10_aging.run(
        ExperimentScale(rows_per_bank=8192, banks=(1,), seed=0)
    ),
    "fig3-wide": lambda: fig3_ber_distribution.run(WIDE_SCALE),
    "fig4-wide": lambda: fig4_ber_location.run(WIDE_SCALE),
    "fig5-wide": lambda: fig5_hcfirst_distribution.run(WIDE_SCALE),
    "fig6-wide": lambda: fig6_hcfirst_location.run(WIDE_SCALE),
    "fig7-wide": lambda: fig7_rowpress.run(WIDE_SCALE),
    "fig8-wide": lambda: fig8_subarray_silhouette.run(
        ExperimentScale(rows_per_bank=1024, banks=(0,), seed=0),
        modules=("S0", "S3", "S4"),
    ),
    "fig9-wide": lambda: fig9_spatial_features.run(WIDE_FEATURE_SCALE),
    "fig10-wide": lambda: fig10_aging.run(
        ExperimentScale(rows_per_bank=16384, banks=(1,), seed=0)
    ),
    "fig12-wide": lambda: fig12_performance.run(
        ExperimentScale(
            rows_per_bank=1024,
            banks=(1, 4),
            n_mixes=1,
            requests_per_core=2500,
            hc_first_values=(4096, 256, 64),
            svard_profiles=("S0",),
            seed=0,
        )
    ),
    "fig13-wide": lambda: fig13_adversarial.run(
        ExperimentScale(
            rows_per_bank=1024, banks=(1, 4), requests_per_core=12000, seed=0
        )
    ),
    "table3-wide": lambda: table3_features.run(WIDE_FEATURE_SCALE),
    "table5-wide": lambda: table5_modules.run(WIDE_SCALE),
    "ablation-bins-wide": lambda: ablation_bins.run(
        ExperimentScale(
            rows_per_bank=1024, banks=(1, 4), requests_per_core=2500, seed=0
        )
    ),
}


@pytest.fixture(scope="session")
def experiment_run():
    """``experiment_run(name)`` returns ``RUNS[name]``'s result,
    computed on first use.  Every caller shares that one object, so a
    test that mutates it copies it first."""
    results = {}

    def get(name):
        if name not in results:
            results[name] = RUNS[name]()
        return results[name]

    return get
