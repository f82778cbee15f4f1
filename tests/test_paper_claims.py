"""The paper's claims as one checked table.

Each row of :data:`CLAIMS` is one instance of a claim: the paper id
(Obsv, Takeaway, Fig, Table or Section), the experiment run it reads
(a name in ``tests/conftest.py``'s ``RUNS``) and a predicate over that
run's rich result.  One claim checked at two scales is two rows.  A
failing row prints the run's rendered tables, the numbers behind the
verdict.
"""

import pytest

from repro.faults.modules import FEATURE_CORRELATED_MODULES

DEFENSES = ("AQUA", "BlockHammer", "Hydra", "PARA", "RRS")
STRONG = set(FEATURE_CORRELATED_MODULES)


def _banks_agree(result):
    return all(ratio < 1.05 for ratio in result.bank_agreement.values())


def _periodic(result):
    return all(c.peak_to_trough() > 1.005 for c in result.curves.values())


def _m1_chunk_is_hotter(result):
    """M1's rows at 3-12% relative location are weaker than the rest."""
    curve = result.curves["M1"]
    chunk = curve.mean[(curve.centers >= 0.03) & (curve.centers < 0.12)]
    rest = curve.mean[curve.centers >= 0.2]
    return chunk.mean() > rest.mean() * 1.1


def _order_of_magnitude(result):
    return all(4.0 < result.reduction_factor(mfr) < 20.0 for mfr in "HMS")


def _peak_is_true_count(result):
    return all(
        inference.inferred_k == result.true_subarrays[label]
        for label, inference in result.inferences.items()
    )


def _silhouette_falls_past_peak(result):
    inference = result.inferences["S0"]
    scores = inference.silhouette_by_k
    tail = [scores[k] for k in sorted(scores) if k >= inference.inferred_k]
    return all(a >= b - 1e-9 for a, b in zip(tail, tail[1:]))


def _strong_modules(result):
    return {label for label, features in result.strong.items() if features}


def _no_row_strengthens(result):
    """No transition goes up, and the strongest (128K) rows stay put."""
    transitions = result.study.transitions()
    strongest = 128 * 1024
    return all(after <= before for before, after in transitions) and (
        transitions.get((strongest, strongest), 1.0) == pytest.approx(1.0)
    )


def _no_svard_order_at_64(result):
    """BlockHammer costs most, then RRS, PARA, AQUA and Hydra."""
    speedups = [
        result.weighted_speedup(defense, "No Svärd", 64)
        for defense in ("BlockHammer", "RRS", "PARA", "AQUA", "Hydra")
    ]
    return all(a < b for a, b in zip(speedups, speedups[1:]))


def _gains_at_64(result, defenses):
    return {d: result.improvement(d, "Svärd-S0", 64) for d in defenses}


def _hydra_gains_least(result):
    gains = _gains_at_64(result, DEFENSES)
    return gains["Hydra"] == min(gains.values())


CLAIMS = (
    # Fig 3: rows vary, banks agree, modules differ.
    ("Obsv 1", "fig3", lambda r: r.cv_pct["M1"] > r.cv_pct["H1"]
        and r.cv_pct["M1"] == pytest.approx(8.08, rel=0.2)),
    ("Obsv 1", "fig3-wide", lambda r: max(r.cv_pct, key=r.cv_pct.get) == "M1"),
    ("Obsv 2", "fig3", _banks_agree),
    ("Obsv 2", "fig3-wide", _banks_agree),
    ("Obsv 3", "fig3", lambda r: r.boxes[("H1", 1)].mean
        > 10 * r.boxes[("S0", 1)].mean > r.boxes[("M1", 1)].mean),
    # Fig 4: BER vs row location.
    ("Takeaway 2", "fig4", _periodic),
    ("Takeaway 2", "fig4-wide", _periodic),
    ("Obsv 4", "fig4", lambda r: r.curves["M1"].peak_to_trough() > 1.2),
    ("Obsv 5", "fig4-50-bins", _m1_chunk_is_hotter),
    # Fig 5: HC_first distribution.  Small scaled banks may miss the
    # rare weakest rows by one grid step, but are never weaker.
    ("Table 5 min", "fig5", lambda r: all(
        r.paper_minima[label] <= minimum <= r.paper_minima[label] * 2.1
        for label, minimum in r.minima.items())),
    ("Table 5 min", "fig5-wide", lambda r: all(
        minimum >= r.paper_minima[label]
        for label, minimum in r.minima.items())),
    ("Fig 5", "fig5", lambda r: all(
        sum(h.values()) == pytest.approx(1.0) for h in r.histograms.values())),
    # Fig 6: HC_first vs row location.
    ("Obsv 8", "fig6", lambda r: r.spread["H1"] > 4.0),
    ("Obsv 8", "fig6-wide", lambda r: r.spread["H0"] >= 4.0),
    ("Obsv 9", "fig6", lambda r: abs(r.autocorrelation["H1"]) < 0.15
        and abs(r.autocorrelation["M1"]) < 0.15),
    ("Obsv 9", "fig6-wide", lambda r: abs(r.autocorrelation["H4"]) < 0.2),
    # Fig 7: RowPress.
    ("Obsv 10", "fig7", lambda r: all(
        r.boxes[(mfr, 36.0)].mean > r.boxes[(mfr, 500.0)].mean
        > r.boxes[(mfr, 2000.0)].mean for mfr in "HMS")),
    ("Takeaway 5", "fig7", _order_of_magnitude),
    ("Takeaway 5", "fig7-wide", _order_of_magnitude),
    ("Obsv 11", "fig7", lambda r: r.cv_pct[("H1", 2000.0)] > 10.0),
    # Fig 8: the silhouette peaks at the true subarray count and
    # decreases after it.
    ("Fig 8 peak", "fig8-S0-S3", _peak_is_true_count),
    ("Fig 8 peak", "fig8-wide", _peak_is_true_count),
    ("Fig 8 tail", "fig8-S0", _silhouette_falls_past_peak),
    # Fig 9 and Table 3: spatial features.
    ("Takeaway 6", "fig9",
        lambda r: set(r.modules_with_strong_features()) == STRONG),
    ("Takeaway 6", "fig9-wide",
        lambda r: set(r.modules_with_strong_features()) == STRONG),
    ("Fig 9 max F1", "fig9", lambda r: r.max_f1() <= 0.80),
    ("Fig 9 max F1", "fig9-wide", lambda r: r.max_f1() <= 0.80),
    ("Table 3", "table3", lambda r: _strong_modules(r) == STRONG),
    ("Table 3", "table3-wide", lambda r: _strong_modules(r) == STRONG),
    ("Table 3 avg F1", "table3", lambda r: all(
        0.65 < r.average_f1(label) < 0.80 for label in _strong_modules(r))),
    # Fig 10: aging.
    ("Obsv 12", "fig10-8k", lambda r: r.study.weakened_fraction() > 0),
    ("Obsv 12", "fig10-wide", lambda r: r.study.weakened_fraction() > 0),
    ("Obsv 13", "fig10-8k", _no_row_strengthens),
    ("Obsv 13", "fig10-wide", lambda r: all(
        after <= before
        for before, after in zip(r.study.before, r.study.after))),
    # Table 5: the module registry.
    ("Table 5", "table5", lambda r: r.rows["S0"].vendor == "Samsung"
        and r.rows["S0"].paper_min == 32 * 1024),
    ("Table 5", "table5-wide", lambda r: len(r.rows) == 15),
    ("Table 5 min", "table5",
        lambda r: r.rows["S0"].measured_min >= r.rows["S0"].paper_min),
    ("Table 5 min", "table5-wide", lambda r: all(
        row.measured_min >= row.paper_min for row in r.rows.values())),
    ("Table 5 avg", "table5", lambda r: r.rows["S0"].measured_avg
        == pytest.approx(r.rows["S0"].paper_avg, rel=0.12)),
    ("Table 5 avg", "table5-wide", lambda r: all(
        abs(row.measured_avg - row.paper_avg) / row.paper_avg < 0.15
        for row in r.rows.values())),
    # Fig 12: five defenses with and without Svärd.
    ("Fig 12 metrics", "fig12", lambda r: all(
        m.weighted_speedup > 0 and m.harmonic_speedup > 0
        and m.max_slowdown > 0 for m in r.metrics.values())),
    ("Fig 12 overhead", "fig12", lambda r: all(
        r.weighted_speedup(d, "No Svärd", 64)
        < r.weighted_speedup(d, "No Svärd", 1024) for d in ("PARA", "RRS"))),
    ("Fig 12 ordering", "fig12-wide", _no_svard_order_at_64),
    ("Takeaway 8", "fig12", lambda r: all(
        gain > 1.1 for gain in _gains_at_64(r, ("PARA", "RRS")).values())),
    ("Takeaway 8", "fig12-wide", lambda r: all(
        gain > 1.0 for gain in _gains_at_64(r, DEFENSES).values())),
    ("Obsv 14", "fig12-wide", _hydra_gains_least),
    # Fig 13: adversarial access patterns.
    ("Fig 13", "fig13", lambda r: r.raw_slowdown[("Hydra", "No Svärd")] > 1.2
        and r.raw_slowdown[("RRS", "No Svärd")] > 2.0),
    ("Takeaway 9", "fig13", lambda r: all(
        r.normalized_slowdown[(defense, "Svärd-S0")] < 1.0
        for defense in ("Hydra", "RRS"))),
    ("Takeaway 9", "fig13-wide", lambda r: all(
        value < 1.0
        for (defense, config), value in r.normalized_slowdown.items()
        if defense in ("Hydra", "RRS") and config != "No Svärd")),
    # Section 6.4: hardware cost, and why 4 bits (16 bins) suffice.
    ("Section 6.4 table area", "sec64",
        lambda r: r.model.table_area_per_bank_mm2() == pytest.approx(0.056)),
    ("Section 6.4 CPU area", "sec64",
        lambda r: r.model.cpu_area_overhead_fraction()
        == pytest.approx(0.0086, rel=0.02)),
    ("Section 6.4 latency", "sec64",
        lambda r: r.model.lookup_hidden_under_activation()),
    ("Section 6.4 bins", "ablation-bins-wide",
        lambda r: r.speedup_by_bins[16] > r.speedup_by_bins[1]
        and r.saturation_bins(tolerance=0.05) <= 16),
)


@pytest.mark.parametrize(
    "claim, run, holds", CLAIMS, ids=[f"{c}@{run}" for c, run, _ in CLAIMS]
)
def test_claim(claim, run, holds, experiment_run):
    result = experiment_run(run)
    assert holds(result), f"{claim} fails at run {run}:\n{result.render()}"
