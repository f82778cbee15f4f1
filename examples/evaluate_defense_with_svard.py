"""Evaluate a RowHammer defense with and without Svärd.

Simulates an 8-core multiprogrammed mix on the Table 4 DDR4 system,
protected by PARA and by RRS, at a future-chip worst-case HC_first of
64 -- first with the conventional single worst-case threshold, then
with Svärd supplying per-row thresholds from module S0's profile.

Run:  python examples/evaluate_defense_with_svard.py
"""

from repro.core import Svard, VulnerabilityProfile
from repro.defenses import DEFENSE_CLASSES, SvardThresholds
from repro.experiments.common import DEFENSE_EPOCH_NS
from repro.faults import module_by_label
from repro.sim import MemorySystem, SystemConfig, compute_metrics
from repro.workloads import build_traces, generate_mixes
from repro.workloads.mixes import build_alone_trace, single_core_config

HC_FIRST = 64
PROFILE_MODULE = "S0"


def main() -> None:
    config = SystemConfig(
        requests_per_core=3000, defense_epoch_ns=DEFENSE_EPOCH_NS
    )
    mix = generate_mixes(1, seed=7)[0]
    print(f"mix: {', '.join(mix.suites)}")

    alone_config = single_core_config(config)
    alone = [
        MemorySystem(alone_config, build_alone_trace(mix, core, alone_config))
        .run().cores[0].finish_ns
        for core in range(config.cores)
    ]
    baseline = MemorySystem(config, build_traces(mix, config)).run()
    base_metrics = compute_metrics(alone, baseline.finish_times())
    print(f"no-defense baseline: weighted speedup "
          f"{base_metrics.weighted_speedup:.2f}, "
          f"row hit rate {baseline.row_hit_rate:.2f}")

    profile = VulnerabilityProfile.from_ground_truth(
        module_by_label(PROFILE_MODULE), banks=(1, 4, 10, 15),
        rows_per_bank=2048,
    ).scaled_to_worst_case(HC_FIRST)
    svard = Svard.build(profile)
    print(f"\nSvärd profile {PROFILE_MODULE}: worst case {HC_FIRST}, "
          f"mean overprotection {svard.overprotection_factor():.2f}x, "
          f"secure: {svard.verify_security_invariant()}")

    for name in ("PARA", "RRS"):
        print(f"\n{name} @ HC_first = {HC_FIRST}:")
        for config_name, thresholds in (
            ("No Svärd", None),
            (f"Svärd-{PROFILE_MODULE}", SvardThresholds(svard)),
        ):
            defense = DEFENSE_CLASSES[name](
                HC_FIRST, thresholds=thresholds,
                rows_per_bank=config.rows_per_bank, seed=0,
            )
            result = MemorySystem(
                config, build_traces(mix, config), defense=defense
            ).run()
            metrics = compute_metrics(alone, result.finish_times())
            normalized = metrics.normalized_to(base_metrics)
            print(f"  {config_name:>10}: weighted speedup "
                  f"{normalized.weighted_speedup:.3f} of baseline, "
                  f"max slowdown {normalized.max_slowdown:.2f}x "
                  f"(refreshes {defense.stats.victim_refreshes}, "
                  f"swaps {defense.stats.swaps})")


if __name__ == "__main__":
    main()
