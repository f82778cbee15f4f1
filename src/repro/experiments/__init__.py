"""Experiment harnesses: one module per paper figure/table.

Every harness module registers exactly one
:class:`~repro.experiments.api.Experiment` with the central registry
(:func:`repro.experiments.api.all_experiments`), and keeps a
module-level ``run(scale)`` returning a rich result object whose
``render()`` emits the paper-style text table.  The Experiment API
additionally yields a structured
:class:`~repro.experiments.api.ResultSet` artifact that the ``text``,
``json``, and ``html`` renderers consume -- see EXPERIMENTS.md.

:class:`repro.experiments.common.ExperimentScale` carries the scale
knobs; defaults are laptop-scale, and paper-scale values are
documented in EXPERIMENTS.md.

| Paper artifact | Module |
|---|---|
| Fig 3 (BER boxes + CV)          | :mod:`repro.experiments.fig3_ber_distribution` |
| Fig 4 (BER vs location)         | :mod:`repro.experiments.fig4_ber_location` |
| Fig 5 (HC_first histogram)      | :mod:`repro.experiments.fig5_hcfirst_distribution` |
| Fig 6 (HC_first vs location)    | :mod:`repro.experiments.fig6_hcfirst_location` |
| Fig 7 (RowPress tAggOn)         | :mod:`repro.experiments.fig7_rowpress` |
| Fig 8 (subarray silhouette)     | :mod:`repro.experiments.fig8_subarray_silhouette` |
| Fig 9 (spatial features vs F1)  | :mod:`repro.experiments.fig9_spatial_features` |
| Fig 10 (aging)                  | :mod:`repro.experiments.fig10_aging` |
| Fig 12 (Svärd performance)      | :mod:`repro.experiments.fig12_performance` |
| Fig 13 (adversarial patterns)   | :mod:`repro.experiments.fig13_adversarial` |
| Table 3 (strong features)       | :mod:`repro.experiments.table3_features` |
| Table 5 (module registry)       | :mod:`repro.experiments.table5_modules` |
| Section 6.4 (hardware cost)     | :mod:`repro.experiments.sec64_hardware_cost` |
| Bin-count ablation              | :mod:`repro.experiments.ablation_bins` |
"""

from repro.experiments.common import ExperimentScale

__all__ = ["ExperimentScale"]
