"""Layer tracing for the benchmark: spans, hot-call aggregates, metrics.

The benchmark wraps each layer's public entry points from its own
files (nothing inside ``repro`` is edited).  Cold calls become spans
that record ``(name, start, end, parent, run id)``; hot per-call
boundaries (trace steps, ACT hooks, threshold lookups, bender probes)
are aggregated under their nearest enclosing span as a count plus
summed time, so a 576,000-step run does not store 576,000 records.
Everything stays in memory until :meth:`Tracer.dump`.

A span's *self* time is its duration minus the union of its child
spans' intervals minus the time of hot calls made directly inside it;
a hot call's self time is its duration minus the wrapped calls nested
in it.  Summing self times over a layer therefore never counts a
nested call of the same layer twice.

The tracer is single-threaded by design: a wrapped call made from any
thread other than the one that created the tracer passes straight
through unrecorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The layer table the benchmark reports against.  For each layer:
#: the per-layer metrics, the public calls that are timed, which
#: end-to-end metric a change in the layer should move, and on which
#: workload the layer does most of its work / should not move.
LAYERS: Tuple[Dict[str, Any], ...] = (
    {
        "layer": "workloads",
        "metrics": ["workloads.step_ns", "workloads.steps"],
        "timed": ["SyntheticTrace.next_step", "HydraAdversarialTrace.next_step",
                  "RrsAdversarialTrace.next_step"],
        "should_move": ["wall_s", "sim_requests_per_s"],
        "most_work_in": "fig12-quick (batched draws)",
        "should_not_move": "characterize; fig13-attack only through the "
                           "shared TraceStep record",
    },
    {
        "layer": "sim",
        "metrics": ["sim.request_ns", "sim.requests", "sim.activations",
                    "sim.row_hit_rate", "sim.simulated_ns"],
        "timed": ["MemorySystem.run"],
        "should_move": ["wall_s", "sim_requests_per_s"],
        "most_work_in": "fig13-attack, fig12-quick",
        "should_not_move": "characterize",
    },
    {
        "layer": "defenses",
        "metrics": ["defenses.act_ns", "defenses.acts",
                    "defenses.preventive_per_kact"],
        "timed": ["DEFENSE_CLASSES[...].on_activation"],
        "should_move": ["wall_s"],
        "most_work_in": "fig13-attack > fig12-quick",
        "should_not_move": "characterize",
    },
    {
        "layer": "core",
        "metrics": ["core.threshold_ns", "core.threshold_lookups",
                    "core.svard_build_ms"],
        "timed": ["SvardThresholds.threshold", "Svard.build"],
        "should_move": ["wall_s"],
        "most_work_in": "Svärd cells of fig12-quick and fig13-attack "
                        "(fig13-attack rebuilds Svärd in every task)",
        "should_not_move": "No-Svärd cells, characterize",
    },
    {
        "layer": "faults",
        "metrics": ["faults.field_ms"],
        "timed": ["ModuleSpec.generate_field"],
        "should_move": ["wall_s"],
        "most_work_in": "characterize",
        "should_not_move": "engine workloads (profiles memoized)",
    },
    {
        "layer": "characterization",
        "metrics": ["characterization.bank_ms", "characterization.banks"],
        "timed": ["CharacterizationRunner.characterize_bank"],
        "should_move": ["wall_s"],
        "most_work_in": "characterize",
        "should_not_move": "engine workloads",
    },
    {
        "layer": "analysis",
        "metrics": ["analysis.correlate_ms", "analysis.silhouette_ms"],
        "timed": ["correlate_features (as fig9 resolves it)",
                  "sweep_k (as reveng.subarray resolves it)"],
        "should_move": ["wall_s", "warm_s (correlate)"],
        "most_work_in": "characterize",
        "should_not_move": "engine workloads",
    },
    {
        "layer": "reveng",
        "metrics": ["reveng.infer_ms"],
        "timed": ["SubarrayReverseEngineer.infer"],
        "should_move": ["wall_s"],
        "most_work_in": "characterize (Fig 8)",
        "should_not_move": "engine workloads",
    },
    {
        "layer": "bender",
        "metrics": ["bender.disturb_us", "bender.disturb_calls"],
        "timed": ["TestPlatform.single_sided_disturbs"],
        "should_move": ["wall_s"],
        "most_work_in": "characterize (Fig 8; dram's device model runs "
                        "inside these calls)",
        "should_not_move": "engine workloads",
    },
    {
        "layer": "orchestration",
        "metrics": ["orchestration.cache_hit_us", "orchestration.cache_miss_us",
                    "orchestration.cache_store_us",
                    "orchestration.task_overhead_ms",
                    "orchestration.setup_hit_rate"],
        "timed": ["ResultCache.load", "ResultCache.store",
                  "OrchestrationContext.run_groups",
                  "execute_task_profiled", "SetupCache.context_for"],
        "should_move": ["warm_s (hits)", "wall_s (the rest)"],
        "most_work_in": "characterize (queue transport, short tasks)",
        "should_not_move": "serial engine workloads with few long tasks",
    },
    {
        "layer": "experiments",
        "metrics": ["experiments.reduce_ms", "experiments.render_ms"],
        "timed": ["Experiment.reduce", "ResultSet JSON + build_report"],
        "should_move": ["warm_s"],
        "most_work_in": "all workloads",
        "should_not_move": "-",
    },
)

#: Per-layer metric units, in reporting order.  Counts and ratios are
#: exact (they repeat bit for bit for a given seed); times are not.
LAYER_UNITS: Dict[str, str] = {
    "workloads.step_ns": "ns/step",
    "workloads.steps": "count",
    "sim.request_ns": "ns/request",
    "sim.requests": "count",
    "sim.activations": "count",
    "sim.row_hit_rate": "ratio",
    "sim.simulated_ns": "sim-ns",
    "defenses.act_ns": "ns/ACT",
    "defenses.acts": "count",
    "defenses.preventive_per_kact": "1/kACT",
    "core.threshold_ns": "ns/lookup",
    "core.threshold_lookups": "count",
    "core.svard_build_ms": "ms/build",
    "faults.field_ms": "ms/field",
    "characterization.bank_ms": "ms/bank",
    "characterization.banks": "count",
    "analysis.correlate_ms": "ms/call",
    "analysis.silhouette_ms": "ms/call",
    "reveng.infer_ms": "ms/call",
    "bender.disturb_us": "us/call",
    "bender.disturb_calls": "count",
    "orchestration.cache_hit_us": "us/call",
    "orchestration.cache_miss_us": "us/call",
    "orchestration.cache_store_us": "us/call",
    "orchestration.task_overhead_ms": "ms/task",
    "orchestration.setup_hit_rate": "ratio",
    "experiments.reduce_ms": "ms/call",
    "experiments.render_ms": "ms/call",
}

#: Per-call self times: ``metric -> (recorded span or hot-call name,
#: nanoseconds per reported unit)``.
PER_CALL_TIMES: Dict[str, Tuple[str, float]] = {
    "workloads.step_ns": ("workloads.step", 1),
    "defenses.act_ns": ("defenses.act", 1),
    "core.threshold_ns": ("core.threshold", 1),
    "core.svard_build_ms": ("core.svard_build", 1e6),
    "faults.field_ms": ("faults.field", 1e6),
    "characterization.bank_ms": ("characterization.bank", 1e6),
    "analysis.correlate_ms": ("analysis.correlate", 1e6),
    "analysis.silhouette_ms": ("analysis.sweep_k", 1e6),
    "reveng.infer_ms": ("reveng.infer", 1e6),
    "bender.disturb_us": ("bender.disturb", 1e3),
    "orchestration.cache_hit_us": ("orchestration.cache_hit", 1e3),
    "orchestration.cache_miss_us": ("orchestration.cache_miss", 1e3),
    "orchestration.cache_store_us": ("orchestration.cache_store", 1e3),
    "experiments.reduce_ms": ("experiments.reduce", 1e6),
    "experiments.render_ms": ("experiments.render", 1e6),
}

#: Call counts: ``metric -> recorded span or hot-call name``.
CALL_COUNTS: Dict[str, str] = {
    "workloads.steps": "workloads.step",
    "core.threshold_lookups": "core.threshold",
    "characterization.banks": "characterization.bank",
    "bender.disturb_calls": "bender.disturb",
}

#: The per-layer metrics that are exact counts rather than timings.
EXACT_LAYER_METRICS = frozenset(
    name for name, unit in LAYER_UNITS.items()
    if unit in ("count", "ratio", "sim-ns", "1/kACT")
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, run_id: str, clock: Callable[[], int] = time.perf_counter_ns):
        self.run_id = run_id
        self.clock = clock
        #: One record per span: ``[id, name, start, end, parent, key,
        #: direct_hot_ns]``; ``direct_hot_ns`` is the time of hot calls
        #: made directly inside the span.
        self.spans: List[list] = []
        #: ``(span id or None, name) -> [count, total_ns, nested_ns]``.
        self.aggregates: Dict[Tuple[Optional[int], str], List[int]] = {}
        #: Exact counters fed by exit hooks (requests, ACTs, ...).
        self.counters: Dict[str, float] = {}
        # Open frames, innermost last: ``[span id or None, nested_ns]``;
        # a hot frame has ``None`` and accumulates the time of wrapped
        # calls nested inside it.
        self._stack: List[list] = []
        self._owner = threading.get_ident()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _enclosing_span(self) -> Optional[int]:
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return None

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call_span(self, name: str, fn: Callable, args: tuple, kwargs: dict,
                  key: Any = None, on_exit: Optional[Callable] = None,
                  classify: Optional[Callable[[Any], str]] = None) -> Any:
        """Run ``fn`` inside a new span.

        ``classify(result)``, when given, renames the span once the
        result is known; ``on_exit(tracer, args, result)`` runs after
        the span closed, so its cost is not in the span.
        """
        if threading.get_ident() != self._owner:
            return fn(*args, **kwargs)
        span_id = len(self.spans)
        record = [span_id, name, 0, 0, self._enclosing_span(), key, 0]
        self.spans.append(record)
        frame = [span_id, 0]
        self._stack.append(frame)
        record[2] = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            record[3] = end
            record[6] = frame[1]
            if self._stack and self._stack[-1][0] is None:
                self._stack[-1][1] += end - record[2]
        if classify is not None:
            record[1] = classify(result)
        if on_exit is not None:
            on_exit(self, args, result)
        return result

    def span(self, name: str, fn: Callable, *args, **kwargs) -> Any:
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        return self.call_span(name, fn, args, kwargs)

    def hot_wrapper(self, name: str, fn: Callable) -> Callable:
        """A wrapper aggregating calls to ``fn`` under the enclosing span."""
        clock = self.clock
        stack = self._stack
        aggregates = self.aggregates
        owner = self._owner
        enclosing = self._enclosing_span
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if get_ident() != owner:
                return fn(*args, **kwargs)
            frame = [None, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    # Credited to the parent either way: a span keeps it
                    # as direct hot time, a hot frame as nested time.
                    stack[-1][1] += duration
                slot = (enclosing(), name)
                entry = aggregates.get(slot)
                if entry is None:
                    aggregates[slot] = [1, duration, frame[1]]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += frame[1]

        return wrapper

    def span_wrapper(self, name: str, fn: Callable,
                     on_exit: Optional[Callable] = None,
                     key_of: Optional[Callable] = None,
                     classify: Optional[Callable[[Any], str]] = None) -> Callable:
        """A wrapper recording one span per call of ``fn`` (see
        :meth:`call_span`); ``key_of(args)`` labels the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = key_of(args) if key_of is not None else None
            return tracer.call_span(name, fn, args, kwargs, key, on_exit, classify)

        return wrapper

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------

    def patch(self, owner: Any, attribute: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attribute`` with ``make(original)``.

        Class attributes keep their descriptor kind (a classmethod
        stays a classmethod).  A class must define the attribute itself,
        so a subclass never wraps its parent's method a second time.
        """
        if isinstance(owner, type):
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(make(raw.__func__))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(make(raw.__func__))
            else:
                replacement = make(raw)
        else:
            raw = getattr(owner, attribute)
            replacement = make(raw)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, raw))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    def install_layers(self, experiments: Sequence[Any]) -> None:
        """Wrap every layer's public entry points (see :data:`LAYERS`).

        ``experiments`` are the workload's experiment instances; their
        classes' ``reduce`` methods are wrapped.
        """
        from repro.bender.infrastructure import TestPlatform
        from repro.characterization.runner import CharacterizationRunner
        from repro.core.svard import Svard
        from repro.defenses import DEFENSE_CLASSES
        from repro.defenses.base import SvardThresholds
        from repro.faults.modules import ModuleSpec
        from repro.orchestration import OrchestrationContext, ResultCache, SetupCache
        from repro.reveng.subarray import SubarrayReverseEngineer
        from repro.sim.engine import MemorySystem
        from repro.workloads.adversarial import HydraAdversarialTrace, RrsAdversarialTrace
        from repro.workloads.synthetic import SyntheticTrace

        hot = self.hot_wrapper
        span = self.span_wrapper
        for trace_class in (SyntheticTrace, HydraAdversarialTrace, RrsAdversarialTrace):
            self.patch(trace_class, "next_step", lambda fn: hot("workloads.step", fn))
        self.patch(MemorySystem, "run",
                   lambda fn: span("sim.run", fn, on_exit=_count_simulation))
        for defense_class in sorted(set(DEFENSE_CLASSES.values()), key=lambda c: c.__name__):
            if "on_activation" in defense_class.__dict__:
                self.patch(defense_class, "on_activation",
                           lambda fn: hot("defenses.act", fn))
        self.patch(SvardThresholds, "threshold", lambda fn: hot("core.threshold", fn))
        self.patch(Svard, "build", lambda fn: span("core.svard_build", fn))
        self.patch(ModuleSpec, "generate_field", lambda fn: span("faults.field", fn))
        self.patch(CharacterizationRunner, "characterize_bank",
                   lambda fn: span("characterization.bank", fn))
        # Module attributes resolved by their callers at call time.
        fig9 = importlib.import_module("repro.experiments.fig9_spatial_features")
        self.patch(fig9, "correlate_features", lambda fn: span("analysis.correlate", fn))
        subarray = importlib.import_module("repro.reveng.subarray")
        self.patch(subarray, "sweep_k", lambda fn: span("analysis.sweep_k", fn))
        self.patch(SubarrayReverseEngineer, "infer", lambda fn: span("reveng.infer", fn))
        self.patch(TestPlatform, "single_sided_disturbs",
                   lambda fn: hot("bender.disturb", fn))
        self.patch(OrchestrationContext, "run_groups",
                   lambda fn: span("orchestration.run_groups", fn,
                                   on_exit=_count_submission))
        self.patch(ResultCache, "load", lambda fn: span(
            "orchestration.cache_load", fn,
            classify=lambda result: (
                "orchestration.cache_hit" if result[0] else "orchestration.cache_miss"
            ),
        ))
        self.patch(ResultCache, "store", lambda fn: span("orchestration.cache_store", fn))
        self.patch(SetupCache, "context_for", self._setup_wrapper)
        for module_name in ("repro.orchestration.backends.serial",
                            "repro.orchestration.worker"):
            module = importlib.import_module(module_name)
            self.patch(module, "execute_task_profiled",
                       lambda fn: span("orchestration.task", fn,
                                       key_of=lambda args: repr(args[0].key)))
        for experiment_class in {type(experiment) for experiment in experiments}:
            self.patch(experiment_class, "reduce",
                       lambda fn: span("experiments.reduce", fn))

    def _setup_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(cache, task):
            hits = cache.hits
            context = fn(cache, task)
            tracer.count("orchestration.setup_hits" if cache.hits > hits
                         else "orchestration.setup_misses")
            return context

        return wrapper

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        """Everything recorded, as one JSON-ready document."""
        return {
            "run_id": self.run_id,
            "spans": [
                {"id": s[0], "name": s[1], "start_ns": s[2], "end_ns": s[3],
                 "parent": s[4], "key": s[5], "direct_hot_ns": s[6],
                 "run_id": self.run_id}
                for s in self.spans
            ],
            "aggregates": [
                {"parent": parent, "name": name, "count": entry[0],
                 "total_ns": entry[1], "nested_ns": entry[2]}
                for (parent, name), entry in self.aggregates.items()
            ],
            "counters": dict(self.counters),
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.dump(), handle)


def _count_simulation(tracer: Tracer, args: tuple, result: Any) -> None:
    """Exact engine and defense counters of one finished simulation."""
    system = args[0]
    tracer.count("sim.runs")
    tracer.count("sim.requests", sum(core.completed_requests for core in result.cores))
    tracer.count("sim.activations", result.activations)
    tracer.count("sim.row_hits", result.row_hits)
    tracer.count("sim.row_misses", result.row_misses)
    tracer.count("sim.simulated_ns", result.total_ns)
    defense = system.defense
    if defense is not None:
        stats = defense.stats
        tracer.count("defenses.acts", stats.activations_observed)
        # Preventive DRAM activations, as the engine charges them: one
        # per refreshed victim or counter access, two per migration,
        # four per swap.
        tracer.count("defenses.preventive", stats.victim_refreshes
                     + 2 * stats.migrations + 4 * stats.swaps
                     + stats.counter_reads + stats.counter_writes)


def _count_submission(tracer: Tracer, args: tuple, result: Any) -> None:
    groups = args[1]
    tracer.count("orchestration.tasks_submitted",
                 sum(len(group.tasks) for group in groups))


# ----------------------------------------------------------------------
# Self-time arithmetic and per-layer metrics
# ----------------------------------------------------------------------


def union_length(intervals: Sequence[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``(start, end)``."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def span_self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, int]:
    """``span id -> self ns``: duration minus the union of child spans
    minus the hot calls made directly inside it."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start_ns"], span["end_ns"])
            )
    return {
        span["id"]: span["end_ns"] - span["start_ns"]
        - union_length(children.get(span["id"], ()))
        - span["direct_hot_ns"]
        for span in spans
    }


def layer_totals(dump: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """``name -> {count, total_ns, self_ns}`` over spans and hot calls."""
    totals: Dict[str, Dict[str, float]] = {}

    def add(name: str, count: int, total: int, self_ns: int) -> None:
        entry = totals.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
        entry["count"] += count
        entry["total_ns"] += total
        entry["self_ns"] += self_ns

    self_times = span_self_times(dump["spans"])
    for span in dump["spans"]:
        add(span["name"], 1, span["end_ns"] - span["start_ns"], self_times[span["id"]])
    for aggregate in dump["aggregates"]:
        add(aggregate["name"], aggregate["count"], aggregate["total_ns"],
            aggregate["total_ns"] - aggregate["nested_ns"])
    return totals


def task_overhead_ns(dump: Dict[str, Any]) -> Tuple[int, int]:
    """``(run_groups time outside task functions, tasks submitted)``.

    Task spans are attributed to the outermost ``run_groups`` span they
    sit in, so a nested submission is never counted twice.
    """
    by_id = {span["id"]: span for span in dump["spans"]}

    def outermost_submission(span: Dict[str, Any]) -> Optional[int]:
        found = None
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] == "orchestration.run_groups":
                found = parent
            parent = by_id[parent]["parent"]
        return found

    outer = [
        span for span in dump["spans"]
        if span["name"] == "orchestration.run_groups" and outermost_submission(span) is None
    ]
    inside = sum(
        span["end_ns"] - span["start_ns"]
        for span in dump["spans"]
        if span["name"] == "orchestration.task" and outermost_submission(span) is not None
    )
    outside = sum(span["end_ns"] - span["start_ns"] for span in outer) - inside
    return outside, int(dump["counters"].get("orchestration.tasks_submitted", 0))


def _per(numerator: float, denominator: float) -> float:
    """A ratio that reads 0 when the layer did no work on this workload."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(cold: Dict[str, Any], warm: Optional[Dict[str, Any]] = None) -> Dict[str, float]:
    """Every per-layer metric of :data:`LAYER_UNITS` from traced dumps.

    ``cold`` and ``warm`` are :meth:`Tracer.dump` documents of one
    traced cold run and its warm replay.  Counters and per-call times
    cover both (the warm replay executes no task, so engine counters
    come from the cold run alone); ``task_overhead_ms`` is the cold
    run's, because only there do tasks execute.
    """
    dumps = [cold] + ([warm] if warm is not None else [])
    totals: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    for dump in dumps:
        for name, entry in layer_totals(dump).items():
            into = totals.setdefault(name, {"count": 0, "total_ns": 0, "self_ns": 0})
            for field in into:
                into[field] += entry[field]
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0) + value

    def count(name: str) -> float:
        return totals.get(name, {}).get("count", 0)

    requests = counters.get("sim.requests", 0)
    acts = counters.get("defenses.acts", 0)
    hits = counters.get("orchestration.setup_hits", 0)
    setups = hits + counters.get("orchestration.setup_misses", 0)
    outside_ns, submitted = task_overhead_ns(cold)
    row_accesses = counters.get("sim.row_hits", 0) + counters.get("sim.row_misses", 0)
    metrics = {
        metric: _per(totals.get(name, {}).get("self_ns", 0), scale * count(name))
        for metric, (name, scale) in PER_CALL_TIMES.items()
    }
    metrics.update((metric, count(name)) for metric, name in CALL_COUNTS.items())
    metrics.update({
        "sim.request_ns": _per(totals.get("sim.run", {}).get("self_ns", 0), requests),
        "sim.requests": requests,
        "sim.activations": counters.get("sim.activations", 0),
        "sim.row_hit_rate": _per(counters.get("sim.row_hits", 0), row_accesses),
        "sim.simulated_ns": counters.get("sim.simulated_ns", 0),
        "defenses.acts": acts,
        "defenses.preventive_per_kact": _per(1000 * counters.get("defenses.preventive", 0), acts),
        "orchestration.task_overhead_ms": _per(outside_ns, 1e6 * submitted),
        "orchestration.setup_hit_rate": _per(hits, setups),
    })
    return {metric: metrics[metric] for metric in LAYER_UNITS}


def task_times_s(dump: Dict[str, Any]) -> Dict[str, float]:
    """``repr(task key) -> traced seconds`` of every executed task."""
    return {
        span["key"]: (span["end_ns"] - span["start_ns"]) / 1e9
        for span in dump["spans"]
        if span["name"] == "orchestration.task"
    }
