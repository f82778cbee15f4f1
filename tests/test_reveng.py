"""Tests for subarray and row-mapping reverse engineering."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bender.infrastructure import TestPlatform
from repro.dram.mapping import ScramblingScheme
from repro.experiments.fig8_subarray_silhouette import _subarray_task
from repro.orchestration import make_task
from repro.reveng.rowmapping import infer_scrambling_scheme, recover_physical_neighbors
from repro.reveng.subarray import SubarrayReverseEngineer

from tests.conftest import make_tiny_spec


@pytest.fixture
def platform():
    # 256 rows, 64-row subarrays: 4 subarrays at rows 0/64/128/192.
    return TestPlatform(make_tiny_spec(), seed=11)


class TestRowMappingRecovery:
    def test_identity_neighbors(self, platform):
        neighbors = recover_physical_neighbors(platform, 0, 100, search_radius=3)
        assert 99 in neighbors and 101 in neighbors

    def test_scrambled_neighbors(self):
        spec = make_tiny_spec(scrambling=ScramblingScheme.MIRROR)
        platform = TestPlatform(spec, seed=11)
        # Logical 4 sits at physical 3; its physical neighbours are
        # physical 2 (logical 2) and physical 4 (logical 3).
        neighbors = recover_physical_neighbors(platform, 0, 4, search_radius=4)
        assert 2 in neighbors and 3 in neighbors

    def test_boundary_row_single_neighbor(self, platform):
        # Physical row 64 is the first of subarray 1: only row 65 can
        # disturb it (row 63 is isolated by the sense-amp stripe).
        neighbors = recover_physical_neighbors(platform, 0, 64, search_radius=2)
        assert neighbors == [65]

    def test_infer_identity_scheme(self, platform):
        scheme = infer_scrambling_scheme(platform, 0, [33, 40], search_radius=3)
        assert scheme is ScramblingScheme.IDENTITY

    def test_infer_mirror_scheme(self):
        spec = make_tiny_spec(scrambling=ScramblingScheme.MIRROR)
        platform = TestPlatform(spec, seed=11)
        # Rows with low bits in {3,4,5,6} discriminate MIRROR.
        scheme = infer_scrambling_scheme(platform, 0, [35, 44], search_radius=4)
        assert scheme is ScramblingScheme.MIRROR


class TestSubarrayReverseEngineering:
    def test_boundary_candidates_found(self, platform):
        engineer = SubarrayReverseEngineer(platform, seed=1)
        boundaries = engineer.find_boundary_candidates(0)
        assert boundaries == [0, 64, 128, 192]

    def test_rowclone_validation_keeps_true_boundaries(self, platform):
        platform.device.rowclone_success_rate = 1.0
        engineer = SubarrayReverseEngineer(platform, seed=1)
        boundaries = engineer.validate_boundaries(0, [0, 64, 100, 128, 192])
        # 100 is interior: the clone from 99 to 100 succeeds and
        # invalidates it; true boundaries survive.
        assert boundaries == [0, 64, 128, 192]

    def test_full_inference_finds_four_subarrays(self, platform):
        platform.device.rowclone_success_rate = 1.0
        engineer = SubarrayReverseEngineer(platform, seed=1)
        inference = engineer.infer(0, k_values=range(2, 9))
        assert inference.inferred_k == 4
        assert inference.subarray_sizes() == [64, 64, 64, 64]

    def test_silhouette_peak_shape(self, platform):
        """Fig 8: score rises to a global max, then decreases."""
        platform.device.rowclone_success_rate = 1.0
        engineer = SubarrayReverseEngineer(platform, seed=1)
        inference = engineer.infer(0, k_values=range(2, 9))
        scores = inference.silhouette_by_k
        peak = inference.inferred_k
        ks = sorted(scores)
        after_peak = [scores[k] for k in ks if k >= peak]
        assert all(x >= y - 1e-9 for x, y in zip(after_peak, after_peak[1:]))

    def test_labels_are_contiguous_blocks(self, platform):
        platform.device.rowclone_success_rate = 1.0
        engineer = SubarrayReverseEngineer(platform, seed=1)
        inference = engineer.infer(0, k_values=range(2, 9))
        labels = inference.labels
        # Once the label changes it never returns (contiguous clusters).
        changes = np.count_nonzero(np.diff(labels))
        assert changes == inference.inferred_k - 1

    def test_subarray_of(self, platform):
        platform.device.rowclone_success_rate = 1.0
        engineer = SubarrayReverseEngineer(platform, seed=1)
        inference = engineer.infer(0, k_values=range(2, 9))
        assert inference.subarray_of(0) == inference.subarray_of(63)
        assert inference.subarray_of(63) != inference.subarray_of(64)

    def test_sampled_probing(self, platform):
        """Probing a subset of rows still finds the sampled boundaries."""
        engineer = SubarrayReverseEngineer(platform, seed=1)
        rows = list(range(0, 256, 1))[:130]  # covers boundaries 0, 64, 128
        boundaries = engineer.find_boundary_candidates(0, rows=rows)
        assert boundaries == [0, 64, 128]


FIG8_GOLDEN = Path(__file__).parent / "golden" / "fig8_inference.json"

#: (module, seed, rows per bank) cases the Fig 8 golden pins: the five
#: Samsung modules the figure shows, plus one SK Hynix module (H1, the
#: XOR_FOLD scrambling) and one Micron module (M1), at the benchmark's
#: 512 rows; S3 at 2,048 rows has 330-row subarrays and more rows than
#: ``silhouette_score_1d``'s ``max_points``, so it exercises the
#: subsampled silhouette.
FIG8_CASES = [
    (label, seed, 512)
    for label in ("H1", "M1", "S0", "S1", "S2", "S3", "S4")
    for seed in (0, 3)
] + [("S3", 0, 2048)]


def test_fig8_inference_matches_golden(request):
    """Fig 8's per-module inference, pinned bit for bit.

    Runs the experiment's own task (probe, RowClone validation, k
    sweep) and records the boundary list, the inferred k, every
    silhouette score as ``float.hex()`` and the sha256 of the labels.
    Regenerate with ``pytest tests/test_reveng.py --update-golden`` only
    after an intentional change to the reverse engineering.
    """
    inferences = {}
    for label, seed, rows in FIG8_CASES:
        task = make_task(
            ("fig8", "subarray", label), _subarray_task, (label, rows, seed),
            base_seed=seed,
        )
        inference, _ = task.execute()
        inferences[f"{label}|rows{rows}|seed{seed}"] = {
            "boundary_rows": [int(row) for row in inference.boundary_rows],
            "inferred_k": int(inference.inferred_k),
            "silhouette_by_k": {
                str(k): float(score).hex()
                for k, score in sorted(inference.silhouette_by_k.items())
            },
            "labels_sha256": hashlib.sha256(
                inference.labels.tobytes()
            ).hexdigest(),
        }
    if request.config.getoption("--update-golden"):
        FIG8_GOLDEN.write_text(
            json.dumps(inferences, indent=1, sort_keys=True) + "\n"
        )
        return
    golden = json.loads(FIG8_GOLDEN.read_text())
    assert sorted(inferences) == sorted(golden)
    for key, inference in inferences.items():
        assert inference == golden[key], f"{key} drifted from the golden"
