"""The vectorized measurement kernels against their loop references.

The batched hot paths (``materialize_bank``, ``measure_ber_bank``, the
batched platform characterization, the one-call-per-bank analytic
sweep, ``single_sided_disturbs_bank``, Fig 8's boundary search and the
counting HC_first field mapping) must be *bit-for-bit* equal to the
per-row/per-victim/per-curve/per-draw paths they replaced -- not
approximately equal -- because the sha256 task cache and the golden
files both key on exact bytes.  Those paths survive as
:func:`repro.characterization.reference.characterize_bank_loop`,
:func:`repro.characterization.reference.characterize_bank_analytic_loop`,
:func:`repro.characterization.reference.find_boundary_candidates_loop`
and :func:`repro.characterization.reference.generate_field_loop`
purely to serve as the oracles here and in the ``make test`` smoke;
``TestPlatform.single_sided_disturbs`` is the per-probe reference.

This file also carries the regression tests for the measurement-path
bugs fixed alongside the kernels (subset-row profiles, ``ber_at_128k``
grid binding, the missing BER clip).
"""

import math
import pickle

import numpy as np
import pytest
from scipy.special import betainc, betaincinv

from tests.conftest import make_tiny_spec
from repro.characterization.reference import (
    analytic_ber_reference,
    characterize_bank_analytic_loop,
    characterize_bank_loop,
    find_boundary_candidates_loop,
    generate_field_loop,
    map_to_hc_distribution_loop,
)
from repro.characterization.runner import (
    BankProfile,
    CharacterizationConfig,
    CharacterizationRunner,
)
from repro.bender.infrastructure import TestPlatform
from repro.dram.geometry import REPRESENTATIVE_BANKS
from repro.dram.mapping import ScramblingScheme
from repro.faults.datapatterns import DATA_PATTERNS, DataPattern
from repro.faults.disturbance import BER_OVERSHOOT_CAP, DisturbanceModel
from repro.faults.modules import MODULES, _stable_hash, module_by_label
from repro.faults.variation import (
    CUT_GUARD_U,
    HC_GRID,
    SpatialVariationField,
    VariationFieldParams,
    snapped_hc_mean,
)
from repro.reveng.subarray import SubarrayReverseEngineer

GRID = (16, 24, 32, 48, 64, 96, 160)
#: Edge rows, subarray-boundary rows, and interior rows of the tiny
#: 256-row / 64-row-subarray module.
SAMPLE_ROWS = [0, 1, 10, 63, 64, 65, 127, 200, 254, 255]


def platform_runner(**overrides) -> CharacterizationRunner:
    spec_overrides = overrides.pop("spec_overrides", {})
    config = CharacterizationConfig(
        rows_per_bank=256,
        banks=(0,),
        hc_grid=GRID,
        mode="platform",
        seed=7,
        **overrides,
    )
    return CharacterizationRunner(make_tiny_spec(**spec_overrides), config)


def assert_profiles_identical(a: BankProfile, b: BankProfile) -> None:
    assert a.module_label == b.module_label
    assert a.bank == b.bank
    assert a.t_agg_on_ns == b.t_agg_on_ns
    assert a.bank_rows == b.bank_rows
    assert np.array_equal(a.row_indices, b.row_indices)
    assert a.wcdp_index.dtype == b.wcdp_index.dtype
    assert np.array_equal(a.wcdp_index, b.wcdp_index)
    assert np.array_equal(a.measured_hc_first, b.measured_hc_first)
    assert sorted(a.ber_by_hc) == sorted(b.ber_by_hc)
    for hc, ber in a.ber_by_hc.items():
        assert np.array_equal(ber, b.ber_by_hc[hc]), hc


class TestMeasureBerBank:
    @pytest.mark.parametrize("t_agg_on_ns", [36.0, 120.0])
    @pytest.mark.parametrize("bank", [0, 3])
    def test_matches_per_row_measure_ber(self, bank, t_agg_on_ns):
        """One batched call == one ``measure_ber`` per row, bit for bit,
        for every data pattern (edge and boundary rows included)."""
        spec = make_tiny_spec()
        rows = np.asarray(SAMPLE_ROWS, dtype=np.int64)
        for pattern in DATA_PATTERNS:
            batched = TestPlatform(spec, rows_per_bank=256, seed=7)
            loop = TestPlatform(spec, rows_per_bank=256, seed=7)
            for hammer_count in (16, 64, 160):
                flips = batched.measure_ber_bank(
                    bank, rows, pattern, hammer_count, t_agg_on_ns
                )
                expected = [
                    loop.measure_ber(
                        bank, int(row), pattern, hammer_count, t_agg_on_ns
                    ).bitflips
                    for row in rows
                ]
                assert flips.tolist() == expected, (pattern, hammer_count)
            # The device command accounting must match too, or batched
            # runs would drift from the loop's refresh-window checks.
            assert (
                batched.device.clock_ns == loop.device.clock_ns
            ), pattern
            assert (
                batched.device.bank(bank).activation_count
                == loop.device.bank(bank).activation_count
            ), pattern

    def test_scrambled_modules_match_too(self):
        """Row scrambling changes which rows are physical neighbours;
        the batched physical mapping must agree with the scalar one."""
        for scheme in (ScramblingScheme.MIRROR, ScramblingScheme.XOR_FOLD):
            spec = make_tiny_spec(scrambling=scheme)
            rows = np.asarray(SAMPLE_ROWS, dtype=np.int64)
            batched = TestPlatform(spec, rows_per_bank=256, seed=3)
            loop = TestPlatform(spec, rows_per_bank=256, seed=3)
            flips = batched.measure_ber_bank(0, rows, DATA_PATTERNS[0], 96)
            expected = [
                loop.measure_ber(0, int(row), DATA_PATTERNS[0], 96).bitflips
                for row in rows
            ]
            assert flips.tolist() == expected, scheme


#: (aggressor, victim) pairs as *physical* rows of the tiny module:
#: distances 1, 2 and 3 inside a subarray, the same distances across
#: the 63/64 subarray boundary, the bank's edge rows 0 and 255, and a
#: row probed against itself.
PHYSICAL_PROBE_PAIRS = [
    (10, 11), (10, 9), (10, 12), (10, 8), (10, 13), (10, 7),
    (63, 64), (64, 63), (62, 64), (65, 63), (61, 64),
    (1, 0), (0, 1), (2, 0), (3, 0),
    (254, 255), (255, 254), (253, 255), (252, 255),
    (40, 40),
]
#: Single-sided hammer counts from below every HC_first at distance 1
#: (0.5 x 30 < 20) to far above it, where distance-2 blast flips too.
PROBE_HAMMER_COUNTS = (0, 30, 100, 400, 2000)
SCHEMES = (
    ScramblingScheme.IDENTITY,
    ScramblingScheme.MIRROR,
    ScramblingScheme.XOR_FOLD,
)


class TestSingleSidedDisturbsBank:
    @pytest.mark.parametrize("hinted", [False, True])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_per_pair_probe(self, scheme, hinted):
        """One batched call == one ``single_sided_disturbs`` per pair,
        and the device clock and activation count advance alike."""
        spec = make_tiny_spec(scrambling=scheme)
        batched = TestPlatform(spec, rows_per_bank=256, seed=7)
        loop = TestPlatform(spec, rows_per_bank=256, seed=7)
        if hinted:
            # Pattern hints scale the victim's exposure by its affinity;
            # column stripes (0.45) push some probes below threshold.
            for slot, (_, victim) in enumerate(PHYSICAL_PROBE_PAIRS):
                for platform in (batched, loop):
                    platform.model.set_pattern_hint(
                        2, victim, list(DataPattern)[slot % len(DataPattern)]
                    )
        to_logical = batched.device.scrambler.to_logical
        aggressors = [to_logical(a) for a, _ in PHYSICAL_PROBE_PAIRS]
        victims = [to_logical(v) for _, v in PHYSICAL_PROBE_PAIRS]
        outcomes = set()
        for hammer_count in PROBE_HAMMER_COUNTS:
            disturbed = batched.single_sided_disturbs_bank(
                2, aggressors, victims, hammer_count
            )
            expected = [
                loop.single_sided_disturbs(2, a, v, hammer_count)
                for a, v in zip(aggressors, victims)
            ]
            assert disturbed.tolist() == expected, hammer_count
            outcomes.update(zip(PHYSICAL_PROBE_PAIRS, expected))
        # The pairs exercise both outcomes at distance 1 and 2.
        for distance in (1, 2):
            seen = {hit for (a, v), hit in outcomes if abs(a - v) == distance}
            assert seen == {False, True}, distance
        assert batched.device.clock_ns == loop.device.clock_ns
        assert (
            batched.device.activation_count(2)
            == loop.device.activation_count(2)
        )

    def test_empty_batch(self):
        platform = TestPlatform(make_tiny_spec(), rows_per_bank=256, seed=7)
        disturbed = platform.single_sided_disturbs_bank(0, [], [], 100)
        assert disturbed.tolist() == []
        assert platform.device.clock_ns == 0.0

    def test_rejects_negative_hammer_count(self):
        platform = TestPlatform(make_tiny_spec(), rows_per_bank=256, seed=7)
        with pytest.raises(ValueError):
            platform.single_sided_disturbs_bank(0, [1], [2], -1)


class TestKernelClockContract:
    def test_ddr4_2400_counts_exact_clock_to_summation_order(self):
        """Off binary-fraction timings (DDR4-2400) both kernels still
        count every activation exactly, but add the loop's clock total
        in one multiply, so the clock equals the loop's probe-by-probe
        sum only up to float summation order."""
        spec = make_tiny_spec(freq_mts=2400)
        batched = TestPlatform(spec, rows_per_bank=256, seed=7)
        loop = TestPlatform(spec, rows_per_bank=256, seed=7)
        rows = np.arange(256)
        for pattern in DATA_PATTERNS[:2]:
            for hammer_count in (16, 160):
                batched.measure_ber_bank(0, rows, pattern, hammer_count)
                for row in rows:
                    loop.measure_ber(0, int(row), pattern, hammer_count)
        aggressors, victims = list(range(1, 256)), list(range(255))
        for hammer_count in (30, 400):
            batched.single_sided_disturbs_bank(0, aggressors, victims, hammer_count)
            for aggressor, victim in zip(aggressors, victims):
                loop.single_sided_disturbs(0, aggressor, victim, hammer_count)
        assert batched.device.activation_count(0) == loop.device.activation_count(0)
        assert math.isclose(
            batched.device.clock_ns, loop.device.clock_ns, rel_tol=1e-12
        )


class TestBoundarySearchKernel:
    @pytest.mark.parametrize(
        "rows",
        [
            None,
            list(range(130)),
            # Unsorted, with duplicates and both edge rows.
            [200, 64, 3, 64, 0, 255, 128, 0, 191, 192, 63, 65, 200],
        ],
        ids=["full-bank", "subset", "unsorted-duplicates"],
    )
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_loop_oracle(self, scheme, rows):
        """The two batched probe calls find the same boundaries, in the
        same order, as the per-row loop."""
        spec = make_tiny_spec(scrambling=scheme)
        batched = TestPlatform(spec, rows_per_bank=256, seed=11)
        loop = TestPlatform(spec, rows_per_bank=256, seed=11)
        boundaries = SubarrayReverseEngineer(
            batched, seed=1
        ).find_boundary_candidates(0, rows)
        expected = find_boundary_candidates_loop(
            SubarrayReverseEngineer(loop, seed=1), 0, rows
        )
        assert boundaries == expected
        assert set(expected) & {0, 64, 128, 192}
        assert batched.device.clock_ns == loop.device.clock_ns
        assert (
            batched.device.activation_count(0)
            == loop.device.activation_count(0)
        )


class TestCharacterizationKernel:
    @pytest.mark.parametrize("iterations", [1, 2])
    @pytest.mark.parametrize("t_agg_on_ns", [36.0, 120.0])
    def test_matches_loop_oracle(self, t_agg_on_ns, iterations):
        """The batched Algorithm 1 sweep equals the per-row oracle,
        profile-for-profile, across banks x tAggOn x iterations."""
        for bank in (0, 2):
            batched = platform_runner(
                t_agg_on_ns=t_agg_on_ns, iterations=iterations
            )
            oracle = platform_runner(
                t_agg_on_ns=t_agg_on_ns, iterations=iterations
            )
            assert_profiles_identical(
                batched.characterize_bank(bank, rows=SAMPLE_ROWS),
                characterize_bank_loop(oracle, bank, rows=SAMPLE_ROWS),
            )

    def test_full_bank_matches_loop_oracle(self):
        batched = platform_runner()
        oracle = platform_runner()
        assert_profiles_identical(
            batched.characterize_bank(1),
            characterize_bank_loop(oracle, 1),
        )


class TestAnalyticBankKernel:
    """One ``analytic_ber_curves`` call per bank against the 20-call
    oracle: DDR4-2400 (S3, M1) and DDR4-3200 (H1) modules, the three
    Fig 7 on-times, two bank sizes, every representative bank."""

    @pytest.mark.parametrize("rows", [512, 2048])
    @pytest.mark.parametrize("t_agg_on_ns", [36.0, 500.0, 2000.0])
    @pytest.mark.parametrize("label", ["S3", "M1", "H1"])
    def test_profiles_pickle_identical_to_oracle(self, label, t_agg_on_ns, rows):
        config = CharacterizationConfig(
            rows_per_bank=rows, t_agg_on_ns=t_agg_on_ns, seed=4
        )
        runner = CharacterizationRunner(module_by_label(label), config)
        for bank in config.banks:
            assert pickle.dumps(runner.characterize_bank(bank)) == pickle.dumps(
                characterize_bank_analytic_loop(runner, bank)
            ), bank

    def test_jittered_iterations_match_oracle(self):
        """Both paths draw the same per-bank jitter in the same order."""
        config = CharacterizationConfig(rows_per_bank=512, iterations=3, seed=9)
        runner = CharacterizationRunner(module_by_label("S0"), config)
        kernel = runner.characterize_bank(2)
        assert pickle.dumps(kernel) == pickle.dumps(
            characterize_bank_analytic_loop(runner, 2)
        )

    def test_single_curve_matches_oracle(self):
        """``analytic_ber`` (a one-point curve call) at every pattern,
        below, at and above 128K."""
        model = DisturbanceModel(module_by_label("M1"), rows_per_bank=512)
        for pattern in (None,) + DATA_PATTERNS:
            for hc in (1000, 32 * 1024, 128 * 1024, 10**6):
                got = model.analytic_ber(1, hc, t_agg_on_ns=120.0, pattern=pattern)
                want = analytic_ber_reference(
                    model, 1, hc, t_agg_on_ns=120.0, pattern=pattern
                )
                assert got.tobytes() == want.tobytes(), (pattern, hc)


class TestMaterializeBank:
    def test_batch_matches_per_victim_calls(self):
        """Materializing all rows at once == one call per victim, for
        both the emitted bit indices and the ``n_flipped`` state."""
        spec = make_tiny_spec()
        batched = DisturbanceModel(spec, rows_per_bank=256, seed=11)
        scalar = DisturbanceModel(spec, rows_per_bank=256, seed=11)
        rng = np.random.default_rng(0)
        exposure = rng.uniform(0.0, 400.0, size=256)
        for model in (batched, scalar):
            model.bank_state(0).exposure[:] = exposure
            for row in range(0, 256, 3):
                model.set_pattern_hint(0, row, DATA_PATTERNS[row % 4])

        flips_batched = batched.materialize_bank(0)
        flips_scalar = {}
        for victim in range(256):
            flips_scalar.update(
                scalar.materialize_bank(0, np.asarray([victim]))
            )

        assert sorted(flips_batched) == sorted(flips_scalar)
        for victim, bits in flips_batched.items():
            assert np.array_equal(bits, flips_scalar[victim]), victim
        assert np.array_equal(
            batched.bank_state(0).n_flipped, scalar.bank_state(0).n_flipped
        )


class TestMeasurementPathRegressions:
    def test_subset_profile_sized_to_measured_rows(self):
        """A partial platform run must report the measured rows, not
        pretend the whole bank was characterized (regression:
        rows_per_bank-sized arrays with zero-filled unmeasured rows)."""
        rows = [5, 100, 250]
        profile = platform_runner().characterize_bank(0, rows=rows)
        assert profile.rows == len(rows)
        assert profile.wcdp_index.shape == (len(rows),)
        assert profile.measured_hc_first.shape == (len(rows),)
        for ber in profile.ber_by_hc.values():
            assert ber.shape == (len(rows),)
        assert profile.row_indices.tolist() == rows
        assert profile.bank_rows == 256
        assert profile.relative_locations() == pytest.approx(
            [row / 255 for row in rows]
        )

    def test_ber_at_128k_requires_128k_in_grid(self):
        """A grid that stops short of 128K must raise, not silently
        rebind ``ber_at_128k`` to its own maximum (regression)."""
        profile = platform_runner().characterize_bank(0, rows=[10, 20])
        with pytest.raises(ValueError, match="did not test 128K"):
            profile.ber_at_128k
        # With 128K actually tested, the property serves it.
        hc_128k = 128 * 1024
        profile.ber_by_hc[hc_128k] = np.asarray([0.25, 0.5])
        assert profile.ber_at_128k.tolist() == [0.25, 0.5]

    def test_measured_ber_clipped_at_one(self):
        """``ber_sat * affinity * BER_OVERSHOOT_CAP`` can exceed 1; the
        measured-path BER must clip so a row never reports more flipped
        bits than it has (regression: no clip in ``_ber_scalar``)."""
        model = DisturbanceModel(make_tiny_spec(), rows_per_bank=256, seed=0)
        assert 0.9 * 1.6 * BER_OVERSHOOT_CAP > 1.0
        ber = model._ber_scalar(
            h_eq=1e9, hcf=20.0, ber_sat=0.9, affinity=1.6
        )
        assert ber == 1.0
        targets = model.flip_targets(
            h_eq=np.asarray([1e9]),
            hcf=np.asarray([20.0]),
            ber_sat=np.asarray([0.9]),
            affinity=1.6,
        )
        assert targets.tolist() == [model.row_bits]


def assert_fields_identical(label, rows, bank, seed):
    """The counting field and the four-inversion oracle, both built
    fresh (not through the field memo), byte for byte."""
    params = module_by_label(label).variation_params(rows)
    field_seed = seed ^ _stable_hash(label)
    kernel = SpatialVariationField._build(params, bank, field_seed)
    loop = generate_field_loop(params, bank=bank, seed=field_seed)
    for name in ("hc_first", "ber_sat", "wcdp_index"):
        got, want = getattr(kernel, name), getattr(loop, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), (label, rows, bank, seed, name)


def snapped_mean_by_inversion(u, a, b, lo, hi):
    """One loop pass's snapped mean: invert every draw, snap, average."""
    grid = np.asarray(HC_GRID, dtype=np.float64)
    values = lo + (hi - lo) * betaincinv(a, b, u)
    idx = np.clip(np.searchsorted(grid, values, side="left"), 0, len(grid) - 1)
    return float(grid[idx].mean())


def near_cut_draws(a, b, lo, hi):
    """Sorted draws on every cut's CDF value, a few ulps to either side
    of it (where ``betainc`` and ``betaincinv`` disagree), inside the
    guard band and just outside it."""
    cuts = np.asarray(HC_GRID[:-1], dtype=np.float64)
    cut_u = betainc(a, b, np.clip((cuts - lo) / (hi - lo), 0.0, 1.0))
    offsets = [k * np.spacing(cut_u) for k in range(-8, 9)]
    offsets += [
        np.full_like(cut_u, sign * fraction * CUT_GUARD_U)
        for sign in (-1, 1)
        for fraction in (0.1, 0.5, 0.9, 2.0)
    ]
    draws = np.concatenate([cut_u + offset for offset in offsets])
    return np.sort(np.clip(draws, 1e-9, 1 - 1e-9))


class TestFieldKernel:
    """The HC_first marginal mapping counts three calibration passes'
    draws per grid cut instead of inverting them; every field must stay
    byte-identical to the four-inversion oracle."""

    @pytest.mark.parametrize("label", sorted(MODULES))
    def test_module_fields_match_oracle(self, label):
        for rows in (512, 1024):
            for seed in (0, 1, 2):
                for bank in REPRESENTATIVE_BANKS:
                    assert_fields_identical(label, rows, bank, seed)

    def test_large_field_matches_oracle(self):
        assert_fields_identical("H0", 8192, 1, 0)

    def test_random_params_match_oracle(self):
        """Random marginals, with the edge cases counted so the draw is
        known to reach them: a Beta shape below 1, ``hc_max`` on a grid
        value (a cut at ``hi``) and ``hc_avg`` at ``hc_min``."""
        rng = np.random.default_rng(26)
        seen = dict(shape_below_1=0, hc_max_on_grid=0, avg_at_min=0)
        for _ in range(240):
            hc_min = int(rng.integers(1, 120_000))
            if rng.random() < 0.3:
                hc_max = max(int(rng.choice(HC_GRID)), hc_min + 1)
            else:
                hc_max = int(rng.integers(hc_min + 1, 140_000))
            if rng.random() < 0.15:
                hc_avg = hc_min
            else:
                hc_avg = int(rng.integers(hc_min, hc_max + 1))
            params = VariationFieldParams(
                rows_per_bank=int(rng.integers(2, 1500)),
                hc_min=hc_min, hc_avg=hc_avg, hc_max=hc_max,
                ber_mean=1e-2, ber_cv_pct=3.0,
                hc_concentration=float(rng.uniform(0.5, 15.0)),
            )
            lo, hi = 0.9 * hc_min, float(hc_max)
            frac = np.clip((hc_avg - lo) / (hi - lo), 0.02, 0.98)
            c = params.hc_concentration
            seen["shape_below_1"] += min(frac * c, (1 - frac) * c) < 1
            seen["hc_max_on_grid"] += hc_max in HC_GRID
            seen["avg_at_min"] += hc_avg == hc_min
            latent = rng.standard_normal(params.rows_per_bank)
            got = SpatialVariationField._map_to_hc_distribution(params, latent)
            want = map_to_hc_distribution_loop(params, latent)
            assert got.tobytes() == want.tobytes(), params
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("label", ["H0", "M1", "S0", "M0"])
    @pytest.mark.parametrize("mean_frac", [0.02, 0.1, 0.5, 0.9, 0.98])
    def test_helper_near_cuts_matches_inversion(self, label, mean_frac):
        """Draws exactly on a cut, ulps beside it and inside the guard
        band: the count equals the snapped mean of the inversions.  H0
        has ``hc_max`` on a grid value, M1 ``lo`` above the 32K cut."""
        params = module_by_label(label).variation_params(512)
        lo, hi = 0.9 * params.hc_min, float(params.hc_max)
        c = params.hc_concentration
        a, b = mean_frac * c, (1.0 - mean_frac) * c
        u = near_cut_draws(a, b, lo, hi)
        assert snapped_hc_mean(u, a, b, lo, hi) == snapped_mean_by_inversion(
            u, a, b, lo, hi
        )
        # Each draw alone, so no two misplaced draws can cancel out.
        for draw in u:
            one = np.asarray([draw])
            assert snapped_hc_mean(one, a, b, lo, hi) == (
                snapped_mean_by_inversion(one, a, b, lo, hi)
            ), draw
