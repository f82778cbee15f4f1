"""One phase of a benchmark repeat, run in a fresh interpreter.

``run.py`` starts this script once per phase:

* ``cold`` runs the workload against an empty cache directory and
  renders its outputs (one ResultSet JSON per experiment plus one HTML
  report; the clock stops once they are rendered, before they are
  written to ``--out-dir``);
* ``warm`` replays the same workload against the cache the cold phase
  filled, in a new interpreter, producing the same outputs;
* ``check`` runs the correctness checks that need no timing: the Svärd
  security invariant of every (profile, HC_first) pair the workload
  builds, and one engine cell replayed through the JEDEC checker.

Usage (normally only through ``run.py``)::

    python perfbench/phase.py --phase cold --workload fig12-quick \\
        --seed 0 --cache-dir DIR --out-dir DIR --result FILE \\
        --spawned-at T [--trace-to FILE]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this interpreter, so set-up time covers interpreter start,
imports, the experiment registry and task-list construction, up to
the first task submitted.  The phase writes one JSON document to
``--result``; with ``--trace-to`` the layer wrappers are installed and
the recorded spans are written there when the phase ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import workloads as workload_defs  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def digest(value: Any) -> str:
    """sha256 of a value's pickle: equal digests, equal task results."""
    return hashlib.sha256(pickle.dumps(value, protocol=4)).hexdigest()


def json_digest(document: Any) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True).encode("utf-8")
    ).hexdigest()


def comparable(result_set) -> Dict[str, Any]:
    """A ResultSet's JSON form without ``meta.provenance``."""
    document = result_set.to_json_dict()
    document["meta"] = {
        key: value for key, value in document["meta"].items() if key != "provenance"
    }
    return document


def recording_context(cache, backend):
    """An orchestration context that remembers what went through it.

    It stamps the first submission (the end of set-up), records every
    submitted task with its group's fingerprint (so cache entries can
    be looked up afterwards) and every completed task, and keeps each
    result for digesting after the timed region.
    """
    from repro.orchestration import OrchestrationContext

    class RecordingContext(OrchestrationContext):
        def __init__(self) -> None:
            super().__init__(cache=cache, backend=backend, progress=self._completed)
            self.first_submit: Optional[float] = None
            self.results: Dict[Any, Any] = {}
            self.entries: List[tuple] = []
            self.completed: set = set()

        def _completed(self, done: int, total: int, key) -> None:
            self.completed.add(key)

        def run_groups(self, groups):
            if self.first_submit is None:
                self.first_submit = time.monotonic()
            groups = list(groups)
            self.entries.extend(
                (task.key, group.fingerprint) for group in groups for task in group.tasks
            )
            results = super().run_groups(groups)
            self.results.update(results)
            return results

    return RecordingContext()


def count_requests(counter: List[int]) -> Callable[[], None]:
    """Count simulated requests (one cheap hook per simulation).

    Returns the function that removes the hook again.
    """
    from repro.sim.engine import MemorySystem

    original = MemorySystem.run

    def run(system, **kwargs):
        result = original(system, **kwargs)
        counter[0] += sum(core.completed_requests for core in result.cores)
        return result

    MemorySystem.run = run

    def undo() -> None:
        MemorySystem.run = original

    return undo


def run_workload(workload, seed: int, cache_dir: Path, out_dir: Path,
                 tracer=None) -> Dict[str, Any]:
    """Run (or replay) every experiment of ``workload`` and render it.

    A raising experiment does not stop the others: its tasks that
    produced no result count as failed.  Returns the timings, task
    digests and per-experiment outcome of this phase.
    """
    from repro.experiments.report import build_report
    from repro.orchestration import ResultCache

    scale = workload.scale(seed)
    experiments = workload.experiment_objects()
    requests = [0]
    if tracer is not None:
        tracer.install_layers(experiments)
        unhook = tracer.uninstall
    else:
        unhook = count_requests(requests)
    cache = ResultCache(cache_dir)
    context = recording_context(cache, workload_defs.make_backend(workload, cache_dir))
    summaries: List[Dict[str, Any]] = []
    result_sets = []
    try:
        for experiment in experiments:
            first_entry = len(context.entries)
            error = None
            try:
                result_sets.append(experiment.run_result_set(scale, context))
            except Exception:  # counted as failed tasks, reported below
                error = traceback.format_exc(limit=8)
            tasks = [key for key, _ in context.entries[first_entry:]]
            summaries.append({
                "experiment": experiment.name,
                "tasks": [repr(key) for key in tasks],
                "not_completed": [repr(key) for key in tasks if key not in context.completed],
                "error": error,
                "resultset_sha256": None,
            })

        def render() -> Dict[str, str]:
            rendered = {
                f"{result_set.experiment}.json": json.dumps(
                    result_set.to_json_dict(), indent=2, sort_keys=True
                )
                for result_set in result_sets
            }
            if result_sets:
                rendered["report.html"] = build_report(result_sets)
            return rendered

        if tracer is not None:
            rendered = tracer.span("experiments.render", render)
        else:
            rendered = render()
        done = time.monotonic()
        peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        context.close()
        unhook()

    # Written after the clock stopped: small-file write latency on a
    # shared host varies by tens of milliseconds, more than a whole warm
    # replay of an engine workload takes.
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in rendered.items():
        (out_dir / name).write_text(text, encoding="utf-8")

    by_experiment = {summary["experiment"]: summary for summary in summaries}
    tables: Dict[str, Any] = {}
    for result_set in result_sets:
        document = comparable(result_set)
        by_experiment[result_set.experiment]["resultset_sha256"] = json_digest(document)
        tables[result_set.experiment] = {
            "scalars": document["scalars"],
            **{table["name"]: table for table in document["tables"]},
        }
    # The orchestration layer's own timing stamps, to cross-check a
    # traced run's task spans against.
    stamps = {}
    for key, fingerprint in context.entries if tracer is not None else ():
        provenance = cache.load_provenance(cache.entry_key(key, fingerprint))
        if isinstance(provenance, dict) and "run_s" in provenance:
            stamps[repr(key)] = provenance["run_s"] + provenance.get("setup_s", 0.0)
    outcomes = workload.outcomes(tables) if len(tables) == len(experiments) else {}
    task_pairs = {}
    for key, _ in context.entries:
        pair = workload.task_pair(key)
        if pair is not None:
            task_pairs[repr(key)] = list(pair)
    return {
        "first_submit": context.first_submit,
        "done": done,
        "peak_rss_kib": peak_rss_kib,
        "sim_requests": requests[0] if tracer is None else int(
            tracer.counters.get("sim.requests", 0)
        ),
        "experiments": summaries,
        "task_digests": {repr(key): digest(value) for key, value in context.results.items()},
        "task_pairs": task_pairs,
        "run_stamps_s": stamps,
        "tables_sha256": json_digest(tables),
        "outcomes": outcomes,
    }


def run_checks(workload, seed: int) -> Dict[str, Any]:
    """The untimed correctness checks of one run."""
    import numpy
    import scipy

    # Imported here too so that, in a fresh checkout, the measured
    # phases find every module they load already byte-compiled.
    import repro.experiments.report  # noqa: F401

    scale = workload.scale(seed)
    failing = workload_defs.svard_failures(workload, scale)
    replay = workload_defs.conformance_replay(workload, scale)
    if replay is not None:
        replay["digest"] = digest(replay.pop("value"))
    return {
        "host": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "svard_pairs": [list(pair) for pair in workload.svard_pairs(scale)],
        "svard_failing_pairs": [list(pair) for pair in failing],
        "conformance": replay,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--phase", choices=("cold", "warm", "check"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", type=Path)
    parser.add_argument("--out-dir", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-to", type=Path)
    parser.add_argument("--run-id", default="")
    args = parser.parse_args(argv)

    workload = workload_defs.workload_named(args.workload)
    if args.phase == "check":
        document = run_checks(workload, args.seed)
    else:
        tracer = Tracer(args.run_id) if args.trace_to is not None else None
        document = run_workload(workload, args.seed, args.cache_dir, args.out_dir, tracer)
        if document["first_submit"] is not None:
            document["setup_s"] = document["first_submit"] - args.spawned_at
            document["wall_s"] = document["done"] - document["first_submit"]
        if tracer is not None:
            tracer.write(args.trace_to)
    document["phase"] = args.phase
    args.result.write_text(json.dumps(document), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
