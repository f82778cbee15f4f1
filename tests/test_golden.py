"""Golden regression tests for the key scalar experiment outputs.

Each test reads an experiment's parity run (``tests/conftest.py``'s
``RUNS``) and compares its headline numbers against a snapshot in
``tests/golden/*.json``.  The snapshots pin the reproduction: an
accidental change to the fault model, the simulator, or the seeding
shows up here as a concrete numeric diff even when the paper's
qualitative observations still hold.

Regenerating (after an *intentional* behavior change)::

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden

then review the JSON diff like any other code change.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import fig3_ber_distribution, fig5_hcfirst_distribution

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Relative tolerance when comparing floats against snapshots: tight
#: enough to catch real regressions, loose enough to tolerate
#: platform-level floating-point drift.
RELATIVE_TOLERANCE = 1e-9


def _assert_matches(actual, expected, path=""):
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected a mapping"
        assert sorted(actual) == sorted(expected), (
            f"{path}: keys {sorted(actual)} != golden {sorted(expected)}"
        )
        for key in expected:
            _assert_matches(actual[key], expected[key], f"{path}/{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), (
            f"{path}: length {len(actual)} != golden {len(expected)}"
        )
        for index, (a, e) in enumerate(zip(actual, expected)):
            _assert_matches(a, e, f"{path}[{index}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=RELATIVE_TOLERANCE), (
            f"{path}: {actual!r} != golden {expected!r}"
        )
    else:
        assert actual == expected, f"{path}: {actual!r} != golden {expected!r}"


@pytest.fixture
def golden(request):
    """Compare ``data`` against a named snapshot (or rewrite it)."""
    update = request.config.getoption("--update-golden")

    def check(name: str, data):
        path = GOLDEN_DIR / f"{name}.json"
        rendered = json.dumps(data, indent=2, sort_keys=True) + "\n"
        if update:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(rendered)
            return
        if not path.exists():
            pytest.fail(
                f"missing golden snapshot {path}; generate it with "
                "`pytest tests/test_golden.py --update-golden`"
            )
        _assert_matches(
            json.loads(rendered), json.loads(path.read_text())
        )

    return check


def test_fig12_metrics(golden, experiment_run):
    result = experiment_run("fig12")
    golden("fig12_small", {
        "weighted_speedup": {
            f"{defense}|{config}|{hc}": metrics.weighted_speedup
            for (defense, config, hc), metrics in sorted(result.metrics.items())
        },
        "max_slowdown": {
            f"{defense}|{config}|{hc}": metrics.max_slowdown
            for (defense, config, hc), metrics in sorted(result.metrics.items())
        },
        "mean_improvement": {
            f"{defense}|{hc}": result.mean_improvement(defense, hc)
            for defense in ("PARA", "RRS")
            for hc in result.hc_values
        },
    })


def test_table3_feature_ranks(golden, experiment_run):
    result = experiment_run("table3")
    golden("table3_features", {
        label: {
            "features": [c.feature.short_name for c in features],
            "f1": [c.f1 for c in features],
            "average_f1": result.average_f1(label),
        }
        for label, features in sorted(result.strong.items())
        if features
    })


def test_fig3_resultset(golden, experiment_run):
    """Characterization-side snapshot via the ResultSet JSON artifact.

    Pins the full structured output (typed tables, scalars, and the
    rendered layout) of the Fig 3 harness, not just headline numbers:
    any drift in the fault model or the BER statistics shows up as a
    concrete JSON diff.
    """
    result = experiment_run("fig3")
    golden(
        "fig3_resultset", fig3_ber_distribution.result_set(result).to_json_dict()
    )


def test_fig5_resultset(golden, experiment_run):
    """Ditto for the HC_first distribution (Fig 5)."""
    result = experiment_run("fig5")
    golden(
        "fig5_resultset",
        fig5_hcfirst_distribution.result_set(result).to_json_dict(),
    )


def test_table5_rows(golden, experiment_run):
    result = experiment_run("table5")
    golden("table5_small", {
        label: {
            "vendor": row.vendor,
            "measured_min": row.measured_min,
            "measured_avg": row.measured_avg,
            "measured_max": row.measured_max,
        }
        for label, row in sorted(result.rows.items())
    })
