"""Tests of the benchmark harness itself (not of the program it measures)."""

from __future__ import annotations

import json
import pickle
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import run, stats, tracing  # noqa: E402
from perfbench.phase import run_workload  # noqa: E402
from perfbench.workloads import Workload  # noqa: E402
from repro.experiments.api import Experiment, ResultSet, ResultTable  # noqa: E402
from repro.experiments.common import ExperimentScale  # noqa: E402
from repro.orchestration import ResultCache, TaskGroup, make_task  # noqa: E402


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------


class ManualClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, amount: int) -> None:
        self.now += amount


def test_union_length_merges_overlaps():
    assert tracing.union_length([(0, 5), (3, 8), (10, 12)]) == 10
    assert tracing.union_length([(2, 4), (0, 10)]) == 10
    assert tracing.union_length([]) == 0


def test_nested_calls_of_one_layer_are_not_double_counted():
    clock = ManualClock()
    tracer = tracing.Tracer("test", clock=clock)
    disturb = tracer.hot_wrapper("bender.disturb", lambda: clock.advance(1))

    def inner():
        clock.advance(1)
        disturb()
        clock.advance(2)

    def outer():
        clock.advance(2)
        tracer.span("analysis.inner", inner)
        clock.advance(4)

    tracer.span("analysis.outer", outer)
    totals = tracing.layer_totals(tracer.dump())
    assert totals["analysis.outer"]["self_ns"] == 6
    assert totals["analysis.inner"]["self_ns"] == 3
    assert totals["bender.disturb"] == {"count": 1, "total_ns": 1, "self_ns": 1}
    layer_self = sum(
        entry["self_ns"] for name, entry in totals.items() if name.startswith("analysis.")
    )
    # The layer's self time is the outer span minus the other layer's
    # call: the inner span's 4 units are not counted a second time.
    assert layer_self == 10 - 1


def test_hot_calls_nested_in_hot_calls_are_excluded_from_self_time():
    clock = ManualClock()
    tracer = tracing.Tracer("test", clock=clock)
    lookup = tracer.hot_wrapper("core.threshold", lambda: clock.advance(2))

    def act():
        clock.advance(1)
        lookup()
        clock.advance(2)

    act = tracer.hot_wrapper("defenses.act", act)

    def simulate():
        for _ in range(3):
            clock.advance(5)
            act()

    tracer.span("sim.run", simulate)
    totals = tracing.layer_totals(tracer.dump())
    assert totals["sim.run"]["self_ns"] == 15
    assert totals["defenses.act"] == {"count": 3, "total_ns": 15, "self_ns": 9}
    assert totals["core.threshold"] == {"count": 3, "total_ns": 6, "self_ns": 6}


def test_span_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        {"id": 0, "start_ns": 0, "end_ns": 100, "parent": None, "direct_hot_ns": 5},
        {"id": 1, "start_ns": 10, "end_ns": 40, "parent": 0, "direct_hot_ns": 0},
        {"id": 2, "start_ns": 30, "end_ns": 50, "parent": 0, "direct_hot_ns": 0},
    ]
    assert tracing.span_self_times(spans) == {0: 100 - 40 - 5, 1: 30, 2: 20}


def test_task_overhead_counts_nested_submissions_once():
    clock = ManualClock()
    tracer = tracing.Tracer("test", clock=clock)

    def task():
        clock.advance(10)

    def inner_submission():
        clock.advance(1)
        tracer.span("orchestration.task", task)

    def submission():
        clock.advance(2)
        tracer.span("orchestration.task", task)
        tracer.span("orchestration.run_groups", inner_submission)

    tracer.span("orchestration.run_groups", submission)
    tracer.count("orchestration.tasks_submitted", 2)
    assert tracing.task_overhead_ns(tracer.dump()) == (3, 2)


def test_span_classify_and_exit_hook_see_the_result():
    tracer = tracing.Tracer("test", clock=ManualClock())
    seen = []
    tracer.call_span("orchestration.cache_load", lambda: (True, 1), (), {},
                     classify=lambda result: "orchestration.cache_hit" if result[0] else "x",
                     on_exit=lambda t, args, result: seen.append(result))
    assert [span["name"] for span in tracer.dump()["spans"]] == ["orchestration.cache_hit"]
    assert seen == [(True, 1)]


def test_installed_layer_wrappers_are_removed_again():
    from repro.core.svard import Svard
    from repro.orchestration import OrchestrationContext
    from repro.sim.engine import MemorySystem
    from repro.workloads.synthetic import SyntheticTrace

    def current():
        return (MemorySystem.__dict__["run"], SyntheticTrace.__dict__["next_step"],
                OrchestrationContext.__dict__["run_groups"], Svard.__dict__["build"],
                TinyExperiment.__dict__["reduce"])

    originals = current()
    tracer = tracing.Tracer("test")
    tracer.install_layers([TinyExperiment()])
    assert all(now is not before for now, before in zip(current(), originals))
    assert isinstance(Svard.__dict__["build"], classmethod)
    tracer.uninstall()
    assert current() == originals


def test_every_layer_metric_has_a_unit_and_a_layer():
    listed = [name for layer in tracing.LAYERS for name in layer["metrics"]]
    assert sorted(listed) == sorted(tracing.LAYER_UNITS)
    dump = tracing.Tracer("empty").dump()
    assert set(tracing.layer_metrics(dump, dump)) == set(tracing.LAYER_UNITS)


# ----------------------------------------------------------------------
# The tail-percentile rule
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(10, None), (20, (50, 10)), (21, (50, 11)), (99, (50, 50)),
     (100, (90, 90)), (200, (95, 190)), (1000, (99, 990)), (10000, (99.9, 9990))],
)
def test_tail_percentile_needs_ten_samples_beyond_it(count, expected):
    samples = list(range(count, 0, -1))  # unsorted on purpose
    assert stats.tail_percentile(samples) == expected


def test_summarize_reports_median_tail_and_count():
    summary = stats.summarize([3.0, 1.0, 2.0])
    assert summary["median"] == 2.0
    assert summary["tail"] is None
    assert summary["n"] == 3


# ----------------------------------------------------------------------
# Failure counting
# ----------------------------------------------------------------------


def _tiny_task(task):
    value, raises = task.params
    if raises:
        raise RuntimeError(f"injected failure in task {value}")
    return [float(value), value * 0.5]


class TinyExperiment(Experiment):
    """Four cheap tasks; the ones named in ``raising`` raise."""

    name = "perfbench-tiny"

    def __init__(self, raising=()) -> None:
        self.raising = tuple(raising)

    def build_tasks(self, scale, orch):
        return [TaskGroup(
            tasks=tuple(
                make_task((self.name, index), _tiny_task, (index, index in self.raising))
                for index in range(4)
            ),
            fingerprint=("perfbench-tiny", scale.seed),
        )]

    def reduce(self, scale, outputs):
        return [outputs[(self.name, index)] for index in range(4)]

    def result_set(self, result):
        return ResultSet(
            experiment=self.name, title="tiny",
            tables=(ResultTable("values", ("a", "b"), tuple(tuple(r) for r in result)),),
        )


@dataclass(frozen=True)
class TinyWorkload(Workload):
    raising: tuple = ()

    def experiment_objects(self):
        return [TinyExperiment(self.raising)]


def tiny_workload(raising=()) -> TinyWorkload:
    return TinyWorkload(
        name="tiny", why="harness test", experiments=("perfbench-tiny",),
        backend="serial", scale=lambda seed: ExperimentScale(seed=seed),
        task_pair=lambda key: ("S0", 64) if key[1] == 3 else None,
        raising=raising,
    )


def key(index: int) -> str:
    return repr(("perfbench-tiny", index))


def test_a_raising_task_fails_itself_and_the_tasks_it_kept_from_running(tmp_path):
    cold = run_workload(tiny_workload(raising=(2,)), 0, tmp_path / "cache", tmp_path / "out")
    (summary,) = cold["experiments"]
    assert "injected failure in task 2" in summary["error"]
    assert run.failed_tasks(cold, [], None, []) == {key(2), key(3)}
    assert len(run.tasks_of(cold)) == 4


def test_a_tampered_warm_cache_entry_fails_only_its_task(tmp_path):
    workload = tiny_workload()
    cold = run_workload(workload, 0, tmp_path / "cache", tmp_path / "out-cold")
    assert run.failed_tasks(cold, [], None, []) == set()

    cache = ResultCache(tmp_path / "cache")
    path = cache.path_for(cache.entry_key(("perfbench-tiny", 1), ("perfbench-tiny", 0)))
    entry = pickle.loads(path.read_bytes())
    entry["payload"] = [1.0, 0.75]
    path.write_bytes(pickle.dumps(entry))

    warm = run_workload(workload, 0, tmp_path / "cache", tmp_path / "out-warm")
    assert warm["experiments"][0]["resultset_sha256"] != cold["experiments"][0]["resultset_sha256"]
    assert run.failed_tasks(cold, [warm], None, []) == {key(1)}
    clean = run_workload(workload, 0, tmp_path / "fresh", tmp_path / "out-fresh")
    assert run.failed_tasks(clean, [], cold, []) == set()
    assert json.loads((tmp_path / "out-warm" / "perfbench-tiny.json").read_text())


def test_unattributed_resultset_difference_fails_the_experiment(tmp_path):
    cold = run_workload(tiny_workload(), 0, tmp_path / "cache", tmp_path / "out")
    warm = json.loads(json.dumps(cold))
    warm["experiments"][0]["resultset_sha256"] = "0" * 64
    assert run.failed_tasks(cold, [warm], None, []) == {key(i) for i in range(4)}


def test_tasks_using_a_broken_svard_pair_fail(tmp_path):
    cold = run_workload(tiny_workload(), 0, tmp_path / "cache", tmp_path / "out")
    assert run.failed_tasks(cold, [], None, [["S0", 64]]) == {key(3)}
    assert run.failed_tasks(cold, [], None, [["S0", 128]]) == set()


def test_accounting_counts_a_conformance_violation_and_a_crashed_phase(tmp_path):
    cold = run_workload(tiny_workload(), 0, tmp_path / "cache", tmp_path / "out")
    check = {"svard_failing_pairs": [],
             "conformance": {"task": key(0), "violations": 2,
                             "digest": cold["task_digests"][key(0)]}}
    result = run.account({"check": check, "repeats": [
        {"cold": cold, "warms": [cold, None]}, {"cold": None, "warms": [None, None]},
    ]}, trace=False)
    # Two repeats of four tasks plus the conformance replay; a crashed
    # warm replay fails every task of its cold run.
    assert result["attempted"] == 9
    assert result["failed"] == 4 + 4 + 1
    assert any("2 violations" in line for line in result["failures"])


# ----------------------------------------------------------------------
# Compare mode
# ----------------------------------------------------------------------


def test_compare_lists_every_differing_exact_value(tmp_path, capsys):
    first = {"exact": {"sim_requests": 10, "layers": {"sim.activations": 5, "core.x": 1},
                       "tables_sha256": "aa"},
             "end_to_end": {"wall_s": {"median": 1.0}}}
    second = {"exact": {"sim_requests": 10, "layers": {"sim.activations": 6},
                        "tables_sha256": "bb", "outcome.new": 1.5},
              "end_to_end": {"wall_s": {"median": 2.0}}}
    assert stats.compare_exact(first, second) == [
        "layers.core.x: 1 -> (missing)",
        "layers.sim.activations: 5 -> 6",
        "outcome.new: (missing) -> 1.5",
        "tables_sha256: 'aa' -> 'bb'",
    ]
    paths = []
    for name, document in (("a", first), ("b", second), ("c", first)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(document))
    assert run.main(["--compare", str(paths[0]), str(paths[1])]) == 1
    assert "4 of 4 exact values differ" in capsys.readouterr().out
    assert run.main(["--compare", str(paths[0]), str(paths[2])]) == 0
    assert "every exact value identical" in capsys.readouterr().out
