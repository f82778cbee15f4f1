"""Tests for the spatial variation field generator and module registry."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import variation
from repro.faults.datapatterns import DATA_PATTERNS, DataPattern, bitwise_inverse
from repro.faults.modules import (
    FEATURE_CORRELATED_MODULES,
    MODULES,
    REPRESENTATIVE_MODULES,
    Manufacturer,
    module_by_label,
    modules_by_manufacturer,
)
from repro.faults.variation import HC_GRID, VariationFieldParams

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


class TestDataPatterns:
    def test_six_patterns(self):
        assert len(DATA_PATTERNS) == 6

    def test_table2_fills(self):
        assert DataPattern.ROW_STRIPE.aggressor_fill == 0xFF
        assert DataPattern.ROW_STRIPE.victim_fill == 0x00
        assert DataPattern.CHECKERBOARD.aggressor_fill == 0xAA
        assert DataPattern.CHECKERBOARD.victim_fill == 0x55
        assert DataPattern.COLUMN_STRIPE.aggressor_fill == 0xAA
        assert DataPattern.COLUMN_STRIPE.victim_fill == 0xAA

    def test_inverse_pairs(self):
        for pattern in DataPattern:
            assert pattern.inverse.inverse is pattern
            assert pattern.inverse.aggressor_fill == bitwise_inverse(
                pattern.aggressor_fill
            )

    def test_bit_difference(self):
        assert DataPattern.ROW_STRIPE.bit_difference_fraction == 1.0
        assert DataPattern.COLUMN_STRIPE.bit_difference_fraction == 0.0
        assert DataPattern.CHECKERBOARD.bit_difference_fraction == 1.0

    def test_from_fills(self):
        assert DataPattern.from_fills(0xFF, 0x00) is DataPattern.ROW_STRIPE
        assert DataPattern.from_fills(0x12, 0x34) is None

    def test_bitwise_inverse_bounds(self):
        with pytest.raises(ValueError):
            bitwise_inverse(256)


class TestHcGrid:
    def test_grid_matches_algorithm1(self):
        expected_k = [1, 2, 4, 8, 12, 16, 24, 32, 40, 48, 56, 64, 96, 128]
        assert list(HC_GRID) == [k * 1024 for k in expected_k]

    def test_grid_sorted(self):
        assert list(HC_GRID) == sorted(HC_GRID)


def generate(label="S0", rows=4096, bank=0, seed=1):
    return module_by_label(label).generate_field(
        bank=bank, rows_per_bank=rows, seed=seed
    )


class TestFieldGeneration:
    def test_hc_first_within_support(self):
        field = generate("S0")
        spec = module_by_label("S0")
        assert field.hc_first.min() >= 0.9 * spec.hc_min - 1e-9
        assert field.hc_first.max() <= spec.hc_max + 1e-9

    def test_measured_mean_matches_table5(self):
        # Table 5 averages grid-measured values, so the calibration
        # target is the *snapped* mean, not the continuous one.
        field = generate("S0", rows=16384)
        spec = module_by_label("S0")
        assert field.measured_hc_first().mean() == pytest.approx(
            spec.hc_avg, rel=0.05
        )

    def test_measured_values_on_grid(self):
        field = generate("H1")
        measured = field.measured_hc_first()
        assert set(np.unique(measured)).issubset(set(HC_GRID))

    def test_measured_min_matches_table5(self):
        # With enough rows, the weakest measured value hits the module's
        # published minimum HC_first grid value.
        spec = module_by_label("M0")
        field = generate("M0", rows=16384)
        assert field.measured_hc_first().min() == spec.hc_min

    def test_ber_mean_matches_fig3(self):
        for label in ("H0", "M1", "S0"):
            spec = module_by_label(label)
            field = generate(label, rows=8192)
            assert field.ber_sat.mean() == pytest.approx(spec.ber_mean, rel=0.02)

    def test_ber_cv_matches_fig3(self):
        for label in ("M1", "S1", "M2"):
            spec = module_by_label(label)
            field = generate(label, rows=8192)
            cv = 100.0 * field.ber_sat.std() / field.ber_sat.mean()
            assert cv == pytest.approx(spec.ber_cv_pct, rel=0.15)

    def test_deterministic_for_same_seed(self):
        a = generate("S0", seed=3)
        variation._FIELD_MEMO.clear()  # regenerate, not replay the memo
        b = generate("S0", seed=3)
        assert a is not b
        assert np.array_equal(a.hc_first, b.hc_first)
        assert np.array_equal(a.ber_sat, b.ber_sat)
        assert np.array_equal(a.wcdp_index, b.wcdp_index)

    def test_different_banks_differ_rowwise(self):
        a = generate("S0", bank=0)
        b = generate("S0", bank=1)
        assert not np.array_equal(a.hc_first, b.hc_first)

    def test_banks_share_distribution(self):
        """Obsv 2/6: banks of a module have similar distributions."""
        fields = [generate("H1", rows=8192, bank=b) for b in (1, 4, 10, 15)]
        means = [f.hc_first.mean() for f in fields]
        assert max(means) / min(means) < 1.05

    def test_hc_first_irregular_across_rows(self):
        """Obsv 9: adjacent rows' HC_first values are weakly correlated."""
        field = generate("H1", rows=8192)
        x = field.hc_first
        r = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r) < 0.45

    def test_ber_regular_across_rows(self):
        """Obsv 4: adjacent rows' BER values are strongly correlated."""
        field = generate("H1", rows=8192)
        x = field.ber_sat
        r = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert r > 0.8

    def test_normalized_to_min_starts_at_one(self):
        field = generate("S0")
        norm = field.normalized_to_min()
        assert norm.min() == pytest.approx(1.0)

    def test_validation_rejects_bad_params(self):
        with pytest.raises(ValueError):
            VariationFieldParams(
                rows_per_bank=16, hc_min=100, hc_avg=50, hc_max=200,
                ber_mean=0.01, ber_cv_pct=1.0,
            )
        with pytest.raises(ValueError):
            VariationFieldParams(
                rows_per_bank=16, hc_min=10, hc_avg=50, hc_max=200,
                ber_mean=1.5, ber_cv_pct=1.0,
            )


class TestFieldMemo:
    def test_same_arguments_return_the_same_field(self):
        assert generate("M2", rows=512, seed=7) is generate("M2", rows=512, seed=7)
        assert generate("M2", rows=512, seed=7) is not generate("M2", rows=512, seed=8)

    def test_memoized_arrays_are_read_only(self):
        field = generate("M2", rows=512, seed=7)
        for name in ("hc_first", "ber_sat", "wcdp_index"):
            with pytest.raises(ValueError):
                getattr(field, name)[0] = 1


def test_program_does_not_import_scipy_stats():
    """No interpreter the program starts pays for ``scipy.stats``.

    Every CLI run, pool worker and queue worker imports the runner and
    every experiment harness; ``scipy.stats`` alone would add over a
    second and tens of MiB to each, for functions ``scipy.special``
    provides directly.
    """
    code = (
        "import sys\n"
        "import repro.experiments.runner\n"
        "from repro.experiments import api\n"
        "api.load_all()\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


VARIATION_FIELDS_GOLDEN = Path(__file__).parent / "golden" / "variation_fields.json"


def test_variation_fields_match_golden(request):
    """Every module's fields, pinned bit for bit by their array bytes.

    Covers all 15 modules x banks {0, 1} x seeds {0, 3} at 512 and
    2,048 rows: the geometries the experiments and the benchmark
    characterize.  Regenerate with ``pytest
    tests/test_faults_variation.py --update-golden`` only after an
    intentional change to the fault model.
    """
    digests = {}
    for label in sorted(MODULES):
        for rows in (512, 2048):
            for bank in (0, 1):
                for seed in (0, 3):
                    field = generate(label, rows=rows, bank=bank, seed=seed)
                    digests[f"{label}|rows{rows}|bank{bank}|seed{seed}"] = {
                        name: hashlib.sha256(
                            getattr(field, name).tobytes()
                        ).hexdigest()
                        for name in ("hc_first", "ber_sat", "wcdp_index")
                    }
    if request.config.getoption("--update-golden"):
        VARIATION_FIELDS_GOLDEN.write_text(
            json.dumps(digests, indent=1, sort_keys=True) + "\n"
        )
        return
    golden = json.loads(VARIATION_FIELDS_GOLDEN.read_text())
    assert sorted(digests) == sorted(golden)
    for key, digest in digests.items():
        assert digest == golden[key], f"{key} drifted from the golden"


class TestModuleRegistry:
    def test_fifteen_modules(self):
        assert len(MODULES) == 15

    def test_labels(self):
        expected = {f"H{i}" for i in range(5)}
        expected |= {f"M{i}" for i in range(5)}
        expected |= {f"S{i}" for i in range(5)}
        assert set(MODULES) == expected

    def test_manufacturer_partition(self):
        for manufacturer in Manufacturer:
            specs = modules_by_manufacturer(manufacturer)
            assert len(specs) == 5
            assert all(s.label.startswith(manufacturer.value) for s in specs)

    def test_table5_spot_checks(self):
        h0 = module_by_label("H0")
        assert h0.hc_min == 16 * 1024
        assert h0.hc_max == 96 * 1024
        assert h0.rows_per_bank == 128 * 1024
        m0 = module_by_label("M0")
        assert m0.hc_min == 8 * 1024
        assert m0.organization == "x16"
        s3 = module_by_label("S3")
        assert s3.rows_per_bank == 32 * 1024
        assert s3.density_gb == 4

    def test_total_chip_count_is_144(self):
        # Table 1: 144 chips across the 15 modules.
        assert sum(spec.n_chips for spec in MODULES.values()) == 144

    def test_feature_effects_only_on_table3_modules(self):
        for label, spec in MODULES.items():
            if label in FEATURE_CORRELATED_MODULES:
                assert spec.feature_effects
            else:
                assert not spec.feature_effects

    def test_representative_modules(self):
        assert set(REPRESENTATIVE_MODULES) == {"H1", "M0", "S0"}

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError):
            module_by_label("X9")

    def test_scaling_keeps_marginals(self):
        spec = module_by_label("S0")
        params = spec.variation_params(rows_per_bank=2048)
        assert params.rows_per_bank == 2048
        assert params.hc_min == spec.hc_min
        assert params.subarray_rows <= 2048 // 4

    def test_hc_avg_between_min_max_for_all(self):
        for spec in MODULES.values():
            assert spec.hc_min <= spec.hc_avg <= spec.hc_max


@given(
    label=st.sampled_from(sorted(MODULES)),
    rows=st.sampled_from([512, 1024, 2048]),
    seed=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=25, deadline=None)
def test_property_fields_always_valid(label, rows, seed):
    field = module_by_label(label).generate_field(rows_per_bank=rows, seed=seed)
    assert np.all(field.hc_first > 0)
    assert np.all(field.ber_sat > 0)
    assert np.all(field.ber_sat <= 0.5)
    assert np.all((field.wcdp_index >= 0) & (field.wcdp_index < 4))
    assert len(field.hc_first) == rows
