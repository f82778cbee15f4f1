"""Quickstart: hammer a simulated DRAM row and watch it flip.

Builds the S0 module's device model (scaled to a 2048-row bank),
reverse-engineers nothing -- just asks the platform for the victim's
physical aggressors, hammers below and above the row's HC_first, and
reads the bit error rate back.  Then builds Svärd on the module's
vulnerability profile and shows the per-row thresholds it would hand
a defense.

Run:  python examples/quickstart.py

From here, regenerate the paper's figures with the experiment runner;
``--jobs`` fans the independent simulations out over worker processes
and completed tasks persist in ``.repro_cache/`` (ORCHESTRATION.md):

    python -m repro.experiments.runner run fig12 --jobs 4 --progress
"""

from repro.bender import TestPlatform
from repro.core import Svard, VulnerabilityProfile
from repro.faults import module_by_label

ROWS_PER_BANK = 2048
BANK = 1
VICTIM = 700


def main() -> None:
    spec = module_by_label("S0")
    platform = TestPlatform(spec, rows_per_bank=ROWS_PER_BANK, seed=0)

    hc_first = platform.model.true_hc_first(BANK)[VICTIM]
    wcdp = platform.model.wcdp(BANK, VICTIM)
    print(f"module {spec.label} ({spec.manufacturer.display_name}), "
          f"bank {BANK}, victim row {VICTIM}")
    print(f"  true HC_first: {hc_first:,.0f} hammers, WCDP: {wcdp.short_name}")

    below, above = platform.aggressor_rows_for(VICTIM)
    print(f"  double-sided aggressors (logical addresses): {below}, {above}")

    for multiple in (0.5, 1.5, 4.0):
        count = int(hc_first * multiple)
        result = platform.measure_ber(BANK, VICTIM, wcdp, count)
        print(f"  hammer {count:>8,} pairs -> {result.bitflips:>5} bitflips "
              f"(BER {result.ber:.2e})")

    profile = VulnerabilityProfile.from_ground_truth(
        spec, banks=(BANK,), rows_per_bank=ROWS_PER_BANK
    )
    svard = Svard.build(profile)
    print(f"\nSvärd on {spec.label}'s profile "
          f"(worst case {profile.worst_case:,.0f} hammers):")
    for row in (VICTIM, VICTIM + 1, VICTIM + 100):
        threshold = svard.threshold_for(BANK, row)
        scale = svard.aggressiveness_scale(BANK, row)
        print(f"  row {row}: threshold {threshold:>9,.0f} "
              f"({scale:.2f}x the worst case)")
    print(f"  security invariant holds: {svard.verify_security_invariant()}")
    print(f"  mean overprotection without Svärd: "
          f"{svard.overprotection_factor():.2f}x")
    print("\nNext: regenerate the paper's figures (parallel, cached):")
    print("  python -m repro.experiments.runner run fig12 --jobs 4 --progress")


if __name__ == "__main__":
    main()
