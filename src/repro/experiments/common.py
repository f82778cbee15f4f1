"""Shared experiment configuration and helpers."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.characterization.rowpress import T_AGG_ON_SWEEP_NS
from repro.characterization.runner import (
    BankProfile,
    CharacterizationConfig,
    CharacterizationRunner,
    ModuleCharacterization,
)
from repro.core.profile import VulnerabilityProfile
from repro.core.svard import Svard
from repro.defenses.base import Defense, SvardThresholds, ThresholdProvider
from repro.dram.geometry import REPRESENTATIVE_BANKS, DramGeometry
from repro.dram.timing import device_for
from repro.faults.modules import MODULES, module_by_label
from repro.orchestration import (
    OMIT_IF_NONE,
    OrchestrationContext,
    Task,
    TaskGroup,
    make_task,
    serial_context,
)
from repro.sim.config import SystemConfig
from repro.sim.engine import MemorySystem, Recording, SimulationResult
from repro.workloads.mixes import (
    WorkloadMix,
    build_alone_trace,
    build_traces,
    single_core_config,
)

#: Every module label, in Table 5 order.
ALL_MODULE_LABELS: Tuple[str, ...] = tuple(sorted(MODULES))

#: The baseline configuration name shared by the Svärd evaluations.
NO_SVARD = "No Svärd"

#: The defense epoch of every simulated experiment (ns).  An experiment
#: simulates a slice of a refresh window, so it compresses the epoch the
#: defenses pace and reset on from tREFW to 1 ms, keeping
#: quota-per-window semantics representative (EXPERIMENTS.md, "time
#: compression").
DEFENSE_EPOCH_NS = 1_000_000.0


def svard_configurations(scale: "ExperimentScale") -> Tuple[str, ...]:
    """Fig 12/13's configuration axis: No Svärd + one per profile.

    Task keys and reduce() lookups in both experiments are built from
    these names; keep this the single point of truth.
    """
    return (NO_SVARD,) + tuple(
        f"Svärd-{label}" for label in scale.svard_profiles
    )


def svard_thresholds(
    configuration: str, hc_first: int, scale: "ExperimentScale"
) -> Optional[ThresholdProvider]:
    """The threshold provider of one :func:`svard_configurations` name.

    ``None`` for No Svärd, which leaves a defense on the global worst
    case; otherwise Svärd built on the named module's profile scaled to
    ``hc_first``.
    """
    if configuration == NO_SVARD:
        return None
    label = configuration.removeprefix("Svärd-")
    return SvardThresholds(Svard.build(scaled_profile(label, hc_first, scale)))


@dataclass(frozen=True)
class ExperimentScale:
    """Scale knobs shared by the experiment harnesses.

    Defaults run every experiment on a laptop in minutes.  Paper scale
    is ``rows_per_bank`` = each module's real row count, ``n_mixes`` =
    120, and ``requests_per_core`` high enough to cover 200M
    instructions (see EXPERIMENTS.md for the mapping).
    """

    rows_per_bank: int = 2048
    banks: Tuple[int, ...] = tuple(REPRESENTATIVE_BANKS)
    modules: Tuple[str, ...] = ALL_MODULE_LABELS
    n_mixes: int = 2
    requests_per_core: int = 4000
    hc_first_values: Tuple[int, ...] = (4096, 2048, 1024, 512, 256, 128, 64)
    svard_profiles: Tuple[str, ...] = ("H1", "M0", "S0")
    #: The RowPress aggressor-on-time sweep (Fig 7); the paper's three
    #: points by default.  Recipes override this for denser sweeps
    #: beyond Fig 7's 36 ns / 0.5 us / 2 us.
    t_agg_on_sweep_ns: Tuple[float, ...] = T_AGG_ON_SWEEP_NS
    seed: int = 0
    #: Use each module's *real* row count (``ModuleSpec.rows_per_bank``)
    #: instead of the uniform ``rows_per_bank`` -- the paper-scale
    #: characterization geometry (runner flag ``--paper-rows``).
    paper_rows: bool = False
    #: Device-generation spec (``"DDR5-4800"``, ``"LPDDR4-3200"``, ...)
    #: resolved through :func:`repro.dram.timing.device_for` by
    #: :meth:`system_config`.  ``None`` keeps the paper's DDR4-3200 and
    #: -- via :data:`~repro.orchestration.OMIT_IF_NONE` -- leaves every
    #: pre-generation cache key and fingerprint untouched.
    device: Optional[str] = field(
        default=None, metadata={OMIT_IF_NONE: True}
    )

    def __post_init__(self) -> None:
        if self.rows_per_bank < 64:
            raise ValueError("rows_per_bank too small to be meaningful")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("n_mixes", "requests_per_core"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not self.banks:
            raise ValueError("banks must not be empty")
        banks_per_rank = DramGeometry().banks_per_rank
        for bank in self.banks:
            if not 0 <= bank < banks_per_rank:
                raise ValueError(
                    f"bank {bank} out of range [0, {banks_per_rank})"
                )
        for label in self.modules:
            module_by_label(label)
        for label in self.svard_profiles:
            module_by_label(label)
        # Task keys and cache fingerprints canonicalize floats exactly,
        # so 36 and 36.0 would name different entries; normalize here.
        sweep = tuple(float(t_on) for t_on in self.t_agg_on_sweep_ns)
        if not sweep:
            raise ValueError("t_agg_on_sweep_ns must not be empty")
        if any(t_on <= 0 for t_on in sweep):
            raise ValueError("t_agg_on_sweep_ns values must be positive")
        if len(set(sweep)) != len(sweep):
            raise ValueError(f"t_agg_on_sweep_ns contains duplicates: {sweep}")
        object.__setattr__(self, "t_agg_on_sweep_ns", sweep)
        if self.device is not None:
            device_for(self.device)  # fail fast on unknown specs

    def system_config(self, **overrides) -> SystemConfig:
        """A :class:`SystemConfig` carrying this scale's device timing.

        Performance experiments build their configs through this
        helper so ``--device`` reaches the simulator; explicit
        ``timing=`` overrides still win, and with no device set the
        result is exactly ``SystemConfig(**overrides)``.
        """
        if self.device is not None and "timing" not in overrides:
            overrides["timing"] = device_for(self.device)
        return SystemConfig(**overrides)

    def rows_for(self, label: str) -> int:
        """Bank row count for one module under this scale."""
        if self.paper_rows:
            return module_by_label(label).rows_per_bank
        return self.rows_per_bank

    def characterization_config(self, **overrides) -> CharacterizationConfig:
        defaults = dict(
            rows_per_bank=self.rows_per_bank,
            banks=self.banks,
            seed=self.seed,
        )
        defaults.update(overrides)
        return CharacterizationConfig(**defaults)


_CHARACTERIZATION_CACHE: Dict[tuple, ModuleCharacterization] = {}


def _characterize_bank_task(task: Task) -> BankProfile:
    """Orchestrated unit: Algorithm 1 over one (module, bank) pair."""
    label, config = task.params
    runner = CharacterizationRunner(module_by_label(label), config)
    return runner.characterize_bank(config.banks[task.key[-1]])


def _module_config(
    label: str, scale: ExperimentScale, t_agg_on_ns: float
) -> CharacterizationConfig:
    return scale.characterization_config(
        rows_per_bank=scale.rows_for(label), t_agg_on_ns=t_agg_on_ns
    )


def characterization_groups(
    labels: Sequence[str],
    scale: ExperimentScale,
    *,
    t_agg_on_ns: float = 36.0,
) -> List[TaskGroup]:
    """Task groups covering the labels' missing characterizations.

    One task per (module, bank).  Tasks are grouped by their exact
    :class:`CharacterizationConfig`, and the config *is* the cache
    fingerprint -- so disk entries are shared between any experiments
    (and any module subsets) that characterize under the same
    geometry.  Labels already in the in-process memo produce no tasks.
    Under ``scale.paper_rows`` modules with different real row counts
    land in different groups.
    """
    groups: Dict[CharacterizationConfig, List[Task]] = {}
    for label in labels:
        if _memo_key(label, scale, t_agg_on_ns) in _CHARACTERIZATION_CACHE:
            continue
        config = _module_config(label, scale, t_agg_on_ns)
        # tAggOn is part of the key so one experiment can merge groups
        # from several RowPress sweeps into a single outputs mapping
        # (Fig 7) without collisions.
        groups.setdefault(config, []).extend(
            make_task(
                ("characterize", label, t_agg_on_ns, "bank", index),
                _characterize_bank_task,
                (label, config),
                base_seed=scale.seed,
            )
            for index in range(len(config.banks))
        )
    return [
        TaskGroup(tasks=tuple(tasks), fingerprint=("characterize", config))
        for config, tasks in groups.items()
    ]


def absorb_characterizations(
    labels: Sequence[str],
    scale: ExperimentScale,
    outputs: Dict,
    *,
    t_agg_on_ns: float = 36.0,
) -> Dict[str, ModuleCharacterization]:
    """Fold orchestrated bank profiles into the in-process memo.

    ``outputs`` is the ``{task.key: BankProfile}`` mapping produced by
    running :func:`characterization_groups`; labels already memoized
    are returned from the memo without touching ``outputs``.
    """
    for label in labels:
        key = _memo_key(label, scale, t_agg_on_ns)
        if key in _CHARACTERIZATION_CACHE:
            continue
        _CHARACTERIZATION_CACHE[key] = ModuleCharacterization(
            module_label=label,
            t_agg_on_ns=t_agg_on_ns,
            banks={
                bank: outputs[("characterize", label, t_agg_on_ns, "bank", index)]
                for index, bank in enumerate(scale.banks)
            },
        )
    return {
        label: _CHARACTERIZATION_CACHE[_memo_key(label, scale, t_agg_on_ns)]
        for label in labels
    }


def characterize_modules(
    labels: Sequence[str],
    scale: ExperimentScale,
    *,
    t_agg_on_ns: float = 36.0,
    orchestration: Optional[OrchestrationContext] = None,
) -> Dict[str, ModuleCharacterization]:
    """Characterize several modules, one orchestrated task per bank.

    Bank tasks are independent (each draws from its own seed stream),
    so this fans the whole Table 5 registry out across workers and the
    on-disk cache while producing bit-identical results to the
    sequential :class:`CharacterizationRunner` loop.
    """
    orch = orchestration or serial_context()
    outputs = orch.run_groups(
        characterization_groups(labels, scale, t_agg_on_ns=t_agg_on_ns)
    )
    return absorb_characterizations(
        labels, scale, outputs, t_agg_on_ns=t_agg_on_ns
    )


def _memo_key(label: str, scale: ExperimentScale, t_agg_on_ns: float) -> tuple:
    return (
        label, scale.rows_for(label), scale.banks, scale.seed, t_agg_on_ns
    )


def characterize(
    label: str,
    scale: ExperimentScale,
    *,
    t_agg_on_ns: float = 36.0,
    orchestration: Optional[OrchestrationContext] = None,
) -> ModuleCharacterization:
    """Characterize one module (cached across experiments)."""
    return characterize_modules(
        [label], scale, t_agg_on_ns=t_agg_on_ns, orchestration=orchestration
    )[label]


#: Per-process memo for scaled vulnerability profiles.  Fig 12/13 and
#: the bins ablation all evaluate ``ground truth scaled to HC_first``
#: for the same keys; the profiles are pure functions of their key,
#: so memoizing can change timing but never results.  Pool workers
#: fill their own copy on first use.
_PROFILE_MEMO: Dict[tuple, VulnerabilityProfile] = {}


def scaled_profile(
    profile_label: str, hc_first: int, scale: ExperimentScale
) -> VulnerabilityProfile:
    """The module's ground-truth profile with its floor at ``hc_first``."""
    key = (
        profile_label, hc_first,
        scale.banks, scale.rows_for(profile_label), scale.seed,
    )
    if key not in _PROFILE_MEMO:
        _PROFILE_MEMO[key] = VulnerabilityProfile.from_ground_truth(
            module_by_label(profile_label),
            banks=scale.banks,
            rows_per_bank=scale.rows_for(profile_label),
            seed=scale.seed,
        ).scaled_to_worst_case(hc_first)
    return _PROFILE_MEMO[key]


#: Per-process memo of each mix's undefended :class:`Recording`, keyed
#: by ``(mix, config)``, which fix the traces and the engine, so a
#: recording is a pure function of its key.  Fig 12 runs a mix's tasks
#: together, so two entries are enough; each holds 16 bytes per hook
#: call, about 0.35 MB at 4,000 requests per core.
_RECORDINGS: "OrderedDict[tuple, Recording]" = OrderedDict()
_RECORDINGS_HELD = 2


def mix_recording(mix: WorkloadMix, config: SystemConfig) -> Recording:
    """The mix's undefended run and its hook calls (memoized)."""
    key = (mix, config)
    recording = _RECORDINGS.get(key)
    if recording is None:
        recording = _RECORDINGS[key] = Recording(
            config, partial(build_traces, mix, config)
        )
        if len(_RECORDINGS) > _RECORDINGS_HELD:
            _RECORDINGS.popitem(last=False)
    else:
        _RECORDINGS.move_to_end(key)
    return recording


def defended_run(
    mix: WorkloadMix, config: SystemConfig, defense: Defense
) -> SimulationResult:
    """``MemorySystem(config, build_traces(mix, config), defense=defense)
    .run()``, bit for bit, for a fresh defense.

    The defense first replays the mix's recording, so a defense that
    never acts costs only its hooks (see :meth:`Recording.run`).
    """
    return mix_recording(mix, config).run(defense)


def mix_baseline_task(task: Task) -> Dict[str, list]:
    """Orchestrated unit shared by the performance experiments: the
    alone (single-core) and shared no-defense finish times for one
    workload mix, against which every defended run is normalized."""
    mix, config = task.params
    alone_config = single_core_config(config)
    alone = [
        MemorySystem(alone_config, build_alone_trace(mix, core, alone_config))
        .run()
        .cores[0]
        .finish_ns
        for core in range(config.cores)
    ]
    shared = mix_recording(mix, config).result()
    return {"alone": alone, "shared": shared.finish_times()}


