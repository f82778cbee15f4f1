"""Shared fixtures: a small, fast synthetic module for device tests,
and Fig 13's parity run, shared by every test that reads it."""

import pytest

from repro.dram.geometry import DramGeometry
from repro.experiments import fig13_adversarial
from repro.experiments.common import ExperimentScale
from repro.dram.mapping import RowScrambler, ScramblingScheme
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


#: Fig 13's parity scale (``tests/golden/text/``).
FIG13_SCALE = ExperimentScale(
    rows_per_bank=1024, banks=(1,), svard_profiles=("S0",),
    requests_per_core=6000, seed=3,
)


@pytest.fixture(scope="session")
def fig13_parity_result():
    """Fig 13 at its parity scale, run once per session: the text
    parity snapshot and the Fig 13 observation tests read the same
    result."""
    return fig13_adversarial.run(FIG13_SCALE)
