"""Generic experiment CLI, driven by the Experiment registry.

Usage::

    python -m repro.experiments.runner list              # what exists
    python -m repro.experiments.runner run               # everything
    python -m repro.experiments.runner run fig5 fig12    # a subset
    python -m repro.experiments.runner run fig12 --jobs 4 --progress
    python -m repro.experiments.runner run fig12 --format json --out results/

    python -m repro.experiments.runner recipe list       # checked-in sweeps
    python -m repro.experiments.runner recipe run fig12-paper-grid \\
        --backend queue --out results/
    python -m repro.experiments.runner worker            # drain the queue

    python -m repro.experiments.runner recipe run report-smoke \\
        --out results/ --report                          # + report.html
    python -m repro.experiments.runner report results/ \\
        --out report.html                                # stitch a tree

(The ``run`` verb is optional: ``runner fig12 --jobs 4`` still works.
``--help-all`` dumps every subcommand's flags in one go; the same dump
is checked into EXPERIMENTS.md and kept in sync by the test suite.)

Experiments self-register with :func:`repro.experiments.api.register`;
the runner holds no per-figure code.  Each experiment may declare
``quick_overrides`` -- reduced-grid scale defaults that keep the full
suite interactive; explicit scale flags and ``--full`` win over them.

Execution is pluggable (``--backend serial|process|queue``):
``process`` fans tasks out over ``--jobs`` local worker processes;
``queue`` publishes them into a file-based job queue
(``--queue-dir``, default ``<cache-dir>/queue``) that any number of
``runner worker`` processes -- including on other hosts sharing the
filesystem -- drain cooperatively.  Completed tasks persist in the
on-disk cache (``--cache-dir``, default ``.repro_cache/``) so re-runs
and interrupted sweeps resume instantly; ``--no-cache`` forces fresh
computation.  See ORCHESTRATION.md and EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from repro.experiments.api import (
    ExperimentError,
    all_experiments,
    display_table,
)
from repro.dram.timing import device_for
from repro.experiments.common import DEFENSE_EPOCH_NS, ExperimentScale
from repro.experiments.recipes import (
    RecipeError,
    all_recipes,
    get_recipe,
)
from repro.experiments.render import (
    atomic_write_text,
    get_renderer,
    renderer_names,
)
from repro.experiments.sweep import (
    recipe_out_dir as _recipe_out_dir,
    stamp_provenance as _stamp_provenance,
    stats_snapshot as _stats_snapshot,
    write_recipe_report as _write_recipe_report,
)
from repro.orchestration import (
    BACKEND_NAMES,
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_STALE_AFTER,
    BackendError,
    OrchestrationContext,
    QueueWorker,
    ResultCache,
    create_backend,
    default_cache_dir,
    default_queue_dir,
    profile_cache,
    queue_status,
    render_profile,
    render_status,
)
from repro.orchestration.backends import DEFAULT_LEASE_TIMEOUT
from repro.orchestration.jobqueue import JobQueue
from repro.orchestration.worker import stderr_log

#: CLI flag dests that map 1:1 onto ``ExperimentScale`` field names.
_SCALE_FLAGS = (
    "seed",
    "n_mixes",
    "requests_per_core",
    "rows_per_bank",
    "banks",
    "modules",
    "t_agg_on_sweep_ns",
    "paper_rows",
    "device",
)


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the process backend (default: 1, serial)",
    )
    parser.add_argument(
        "--backend", default=None, choices=BACKEND_NAMES,
        help="execution backend (default: serial, or process when "
             "--jobs > 1); `queue` drains through a shared job-queue "
             "directory that `runner worker` processes also serve",
    )
    parser.add_argument(
        "--queue-dir", default=None, metavar="DIR",
        help="job-queue directory for --backend queue "
             "(default: <cache-dir>/queue)",
    )
    parser.add_argument(
        "--queue-wait", action="store_true",
        help="with --backend queue: do not execute tasks in this "
             "process; wait for workers to drain the queue",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None, metavar="K",
        help="with --backend queue or process: batch K tasks per "
             "queue envelope / pool submission (default: auto-sized "
             "from the grid; small sweeps stay unchunked). Results "
             "are bit-identical at any K",
    )
    parser.add_argument(
        "--lease-timeout", type=float, default=None, metavar="S",
        help="with --backend queue: reclaim leases of presumed-dead "
             "workers after S seconds (default: 600; a live heartbeat "
             "naming the lease always defers reclaim)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="on-disk result cache location (default: $REPRO_CACHE_DIR "
             "or .repro_cache/)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="compute everything fresh; do not read or write the cache",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print per-task progress to stderr",
    )


def _add_render_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", dest="format_name", default="text", metavar="FMT",
        choices=renderer_names(),
        help=f"output renderer, one of {renderer_names()} (default: text)",
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="write rendered artifacts into DIR instead of stdout",
    )


def _validate_execution_flags(parser, args) -> None:
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.jobs > 1 and args.backend in ("serial", "queue"):
        # Accepting the flag and running single-threaded would look
        # like 8-way parallelism that silently never happened.
        parser.error(
            f"--jobs has no effect on the {args.backend} backend; "
            "drop it (queue scaling comes from `runner worker` count)"
        )
    if args.no_cache and args.cache_dir is not None:
        parser.error("--no-cache and --cache-dir are mutually exclusive")
    if args.no_cache and args.backend == "queue":
        parser.error("--backend queue publishes results through the "
                     "cache; drop --no-cache")
    if args.queue_dir is not None and args.backend != "queue":
        parser.error("--queue-dir requires --backend queue")
    if args.queue_wait and args.backend != "queue":
        parser.error("--queue-wait requires --backend queue")
    if args.lease_timeout is not None and args.backend != "queue":
        parser.error("--lease-timeout requires --backend queue")
    if args.lease_timeout is not None and args.lease_timeout <= 0:
        parser.error("--lease-timeout must be positive")
    if args.chunk_size is not None:
        if args.backend not in ("queue", "process"):
            parser.error("--chunk-size requires --backend queue or "
                         "--backend process")
        if args.chunk_size < 1:
            parser.error("--chunk-size must be at least 1")


def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner run",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "names", nargs="*", metavar="EXPERIMENT",
        help="experiments to run (default: every registered experiment; "
             "see the `list` subcommand)",
    )
    _add_execution_flags(parser)
    _add_render_flags(parser)
    parser.add_argument(
        "--full", action="store_true",
        help="ignore per-experiment quick-grid presets; run the full "
             "default scale",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="override ExperimentScale.seed",
    )
    parser.add_argument(
        "--n-mixes", type=int, default=None, metavar="N",
        help="override ExperimentScale.n_mixes (paper scale: 120)",
    )
    parser.add_argument(
        "--requests-per-core", type=int, default=None, metavar="N",
        help="override ExperimentScale.requests_per_core",
    )
    parser.add_argument(
        "--rows-per-bank", type=int, default=None, metavar="N",
        help="override ExperimentScale.rows_per_bank",
    )
    parser.add_argument(
        "--banks", default=None, metavar="B0,B1,...",
        help="override ExperimentScale.banks (comma-separated indices)",
    )
    parser.add_argument(
        "--modules", default=None, metavar="M0,M1,...",
        help="override ExperimentScale.modules (comma-separated labels)",
    )
    parser.add_argument(
        "--t-agg-on", dest="t_agg_on_sweep_ns", default=None,
        metavar="NS0,NS1,...",
        help="override ExperimentScale.t_agg_on_sweep_ns, the RowPress "
             "tAggOn sweep points in ns (fig7; default 36,500,2000)",
    )
    parser.add_argument(
        "--paper-rows", action="store_true", default=None,
        help="characterize each module at its real ModuleSpec row count "
             "instead of the uniform --rows-per-bank",
    )
    parser.add_argument(
        "--device", default=None, metavar="SPEC",
        help="override ExperimentScale.device: run the performance "
             "experiments on a device-generation preset (DDR4-3200, "
             "LPDDR4-3200, DDR5-4800, ...; default: the paper's "
             "DDR4-3200)",
    )
    return parser


def _parse_run_args(argv) -> argparse.Namespace:
    parser = _run_parser()
    args = parser.parse_args(argv)
    _validate_execution_flags(parser, args)
    if args.banks is not None:
        try:
            args.banks = tuple(int(part) for part in args.banks.split(","))
        except ValueError:
            parser.error(
                f"--banks must be comma-separated integers, got {args.banks!r}"
            )
        if len(set(args.banks)) != len(args.banks):
            parser.error(f"--banks contains duplicates: {args.banks}")
    if args.modules is not None:
        args.modules = tuple(args.modules.split(","))
        if len(set(args.modules)) != len(args.modules):
            parser.error(f"--modules contains duplicates: {args.modules}")
    if args.t_agg_on_sweep_ns is not None:
        try:
            args.t_agg_on_sweep_ns = tuple(
                float(part) for part in args.t_agg_on_sweep_ns.split(",")
            )
        except ValueError:
            parser.error(
                "--t-agg-on must be comma-separated numbers, got "
                f"{args.t_agg_on_sweep_ns!r}"
            )
    if args.device is not None:
        try:
            device_for(args.device)
        except ValueError as error:
            parser.error(str(error))
    return args


def _progress_line(done: int, total: int, key) -> None:
    label = "/".join(str(part) for part in key)
    end = "\n" if done == total else "\r"
    print(f"  [{done}/{total}] {label:<60.60}", end=end, file=sys.stderr,
          flush=True)


def build_context(args: argparse.Namespace) -> OrchestrationContext:
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    backend = None
    if args.backend is not None:
        queue_dir = args.queue_dir
        if queue_dir is None and args.backend == "queue":
            queue_dir = default_queue_dir(cache.directory)
        backend = create_backend(
            args.backend,
            jobs=args.jobs,
            queue_dir=queue_dir,
            participate=not args.queue_wait,
            lease_timeout=(
                args.lease_timeout
                if args.lease_timeout is not None
                else DEFAULT_LEASE_TIMEOUT
            ),
            chunk_size=args.chunk_size,
        )
    return OrchestrationContext(
        jobs=args.jobs,
        cache=cache,
        progress=_progress_line if args.progress else None,
        backend=backend,
    )


def _print_orchestration_stats(orch: OrchestrationContext) -> None:
    if not orch.stats.submitted:
        return
    where = (
        f"cache at {orch.cache.directory}"
        if orch.cache is not None
        else "cache disabled"
    )
    print(
        f"[orchestration] {orch.stats.submitted} tasks: "
        f"{orch.stats.hits} cache hits, "
        f"{orch.stats.executed} executed "
        f"(backend: {orch.backend.describe()}, {where})",
        file=sys.stderr,
    )


def _emit_result_set(
    result_set, renderer, format_name: str, out_dir: Optional[Path],
    json_documents: List[dict], html_sections: List,
) -> None:
    """Render one ResultSet to stdout or ``out_dir``.

    Shared by ``run`` and ``recipe run``.  In json- and html-to-stdout
    modes the ResultSets are collected and flushed as **one** document
    after the loop (14 concatenated HTML pages are not a loadable
    page).
    """
    if out_dir is not None:
        paths = renderer.write(result_set, out_dir)
        for path in paths:
            print(f"wrote {path}")
        if not paths:
            print(
                f"{result_set.experiment}: nothing to write for format "
                f"{format_name!r}"
            )
    elif format_name == "text":
        print("=" * 72)
        print(result_set.render_text())
        print()
    elif format_name == "json":
        json_documents.append(result_set.to_json_dict())
    elif format_name == "html":
        html_sections.append(result_set)
    else:
        print(renderer.render(result_set))


def _flush_html_stdout(html_sections: List) -> None:
    # One self-contained page stitching every requested experiment,
    # mirroring _flush_json_stdout's single-document guarantee.
    if not html_sections:
        return
    from repro.experiments.report import build_report

    if len(html_sections) == 1:
        section = html_sections[0]
        print(build_report(
            [section],
            title=section.title,
            subtitle=f"experiment: {section.experiment}",
        ), end="")
    else:
        print(build_report(html_sections), end="")


def _flush_json_stdout(json_documents: List[dict], requested: int) -> None:
    # In json-to-stdout mode, stdout is always one parseable document.
    # The shape follows the *request*: a bare object when a single
    # result was requested and succeeded, an array otherwise --
    # including the empty array when failures left no results.
    document = (
        json_documents[0]
        if requested == 1 and json_documents
        else json_documents
    )
    print(json.dumps(document, indent=2, sort_keys=True))


def _scale_for(experiment, base: ExperimentScale, explicit: frozenset,
               full: bool) -> ExperimentScale:
    """The base scale plus the experiment's quick-grid presets.

    Explicit CLI overrides (e.g. ``--n-mixes 120`` for the paper grid)
    and ``--full`` win over the presets.
    """
    if full:
        return base
    trimmed = {
        field: value
        for field, value in experiment.quick_overrides.items()
        if field not in explicit
    }
    return replace(base, **trimmed)


def _list_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner list",
        description="List every registered experiment.",
    )
    parser.add_argument(
        "--format", dest="format_name", default="text",
        choices=("text", "json"),
        help="listing format: a fixed-width table or machine-readable "
             "JSON (default: text)",
    )
    return parser


def _cmd_list(argv) -> int:
    args = _list_parser().parse_args(argv)
    experiments = all_experiments()
    if args.format_name == "json":
        print(json.dumps(
            {
                name: {
                    "paper_ref": experiment.paper_ref,
                    "description": experiment.description,
                    "quick_overrides": {
                        key: list(value) if isinstance(value, tuple) else value
                        for key, value in experiment.quick_overrides.items()
                    },
                }
                for name, experiment in experiments.items()
            },
            indent=2,
        ))
        return 0
    rows = [
        (
            name,
            experiment.paper_ref,
            experiment.description,
            ", ".join(sorted(experiment.quick_overrides)) or "-",
        )
        for name, experiment in experiments.items()
    ]
    print(display_table(
        ("experiment", "paper", "description", "quick-grid fields"), rows
    ))
    return 0


def _cmd_run(argv) -> int:
    args = _parse_run_args(argv)
    experiments = all_experiments()
    names = args.names or list(experiments)
    unknown = [name for name in names if name not in experiments]
    if unknown:
        print(
            f"unknown experiment {unknown[0]!r}; known: {list(experiments)}",
            file=sys.stderr,
        )
        return 1

    overrides = {
        field: getattr(args, field)
        for field in _SCALE_FLAGS
        if getattr(args, field) is not None
    }
    try:
        base_scale = replace(ExperimentScale(), **overrides)
    except (KeyError, ValueError) as error:
        # ExperimentScale validates module labels and minimum sizes.
        print(f"invalid scale: {error}", file=sys.stderr)
        return 1
    explicit = frozenset(overrides)

    renderer = get_renderer(args.format_name)
    out_dir: Optional[Path] = Path(args.out) if args.out else None

    json_documents: List[dict] = []
    html_sections: List = []
    failed: List[str] = []
    json_stdout = args.format_name == "json" and out_dir is None

    with build_context(args) as orch:
        for name in names:
            experiment = experiments[name]
            scale = _scale_for(experiment, base_scale, explicit, args.full)
            before = _stats_snapshot(orch)
            try:
                result_set = experiment.run_result_set(scale, orch)
            except BackendError as error:
                # Backend failures (misconfiguration, a task that died
                # on a worker) abort the whole run: later experiments
                # would hit the same wall.
                print(f"error: {error}", file=sys.stderr)
                return 1
            except ExperimentError as error:
                # A selection invalid for one experiment should not
                # abort the rest of a multi-experiment run.
                print(f"error: {name}: {error}", file=sys.stderr)
                failed.append(name)
                continue
            _stamp_provenance(result_set, orch, before)
            _emit_result_set(
                result_set, renderer, args.format_name, out_dir,
                json_documents, html_sections,
            )
        if json_stdout:
            _flush_json_stdout(json_documents, len(names))
        _flush_html_stdout(html_sections)
        if failed:
            print(
                f"{len(failed)} experiment(s) failed: {', '.join(failed)}",
                file=sys.stderr,
            )
        _print_orchestration_stats(orch)
    return 1 if failed else 0


# ----------------------------------------------------------------------
# `worker`: attach this process to a job-queue directory
# ----------------------------------------------------------------------


def _worker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner worker",
        description="Claim and execute tasks from a shared job-queue "
                    "directory until killed (or idle past --idle-timeout). "
                    "Run as many of these as you have cores/hosts; results "
                    "land in the shared result cache.",
    )
    parser.add_argument(
        "--queue-dir", default=None, metavar="DIR",
        help="job-queue directory (default: <cache-dir>/queue)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="shared result cache (default: $REPRO_CACHE_DIR or "
             ".repro_cache/); must be the same directory the submitter "
             "uses",
    )
    parser.add_argument(
        "--poll-interval", type=float, default=0.2, metavar="S",
        help="seconds between queue scans when idle (default: 0.2)",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=None, metavar="S",
        help="exit after S seconds without claiming a task "
             "(default: run until killed)",
    )
    parser.add_argument(
        "--max-tasks", type=int, default=None, metavar="N",
        help="exit after claiming N tasks (default: unlimited)",
    )
    parser.add_argument(
        "--lease-timeout", type=float, default=None, metavar="S",
        help="also reclaim peers' leases older than S seconds "
             "(default: leave reclaim to submitters)",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float,
        default=DEFAULT_HEARTBEAT_INTERVAL, metavar="S",
        help="seconds between heartbeat-file refreshes under "
             "<queue-dir>/workers/ (default: 5; 0 disables the "
             "heartbeat)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-task log lines on stderr",
    )
    return parser


def _cmd_worker(argv) -> int:
    import signal

    parser = _worker_parser()
    args = parser.parse_args(argv)
    if args.heartbeat_interval < 0:
        parser.error("--heartbeat-interval must be >= 0 (0 disables)")
    # SIGTERM (the polite kill) should release the current lease and
    # retire the heartbeat file, exactly like Ctrl-C; raising
    # SystemExit routes it through those cleanup paths.  SIGKILL still
    # leaves a stale lease + heartbeat behind by design -- reclaim and
    # `queue status` exist for that.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cache = ResultCache(args.cache_dir)
    queue_dir = (
        Path(args.queue_dir)
        if args.queue_dir is not None
        else default_queue_dir(cache.directory)
    )
    worker = QueueWorker(
        JobQueue(queue_dir),
        cache,
        poll_interval=args.poll_interval,
        idle_timeout=args.idle_timeout,
        max_tasks=args.max_tasks,
        lease_timeout=args.lease_timeout,
        heartbeat_interval=args.heartbeat_interval or None,
        log=None if args.quiet else stderr_log,
    )
    terminated_code = None
    try:
        stats = worker.run()
    except KeyboardInterrupt:
        stats = worker.stats
        stderr_log("interrupted; exiting (any held lease was released)")
    except SystemExit as exit_request:
        stats = worker.stats
        stderr_log("terminated; exiting (any held lease was released)")
        # Preserve the signal convention (143 = SIGTERM): a supervisor
        # must be able to tell "killed mid-sweep" from "drained and
        # exited cleanly".
        terminated_code = (
            exit_request.code if isinstance(exit_request.code, int) else 143
        )
    print(
        f"[worker] done: {stats.claimed} claimed, {stats.completed} "
        f"completed, {stats.failed} failed, {stats.refused} refused",
        file=sys.stderr,
    )
    if terminated_code is not None:
        return terminated_code
    return 1 if stats.failed else 0


# ----------------------------------------------------------------------
# `queue`: observe a live sweep (status snapshots)
# ----------------------------------------------------------------------


def _queue_status_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner queue status",
        description="One-shot snapshot of a live sweep's job queue: "
                    "pending/leased/failed task counts, results already "
                    "in the cache, live vs stale workers (from their "
                    "heartbeat files), per-worker activity, failure "
                    "records, and rough throughput.  Read-only; run it "
                    "as often as you like (e.g. under `watch`).",
    )
    parser.add_argument(
        "cache_dir", nargs="?", default=None, metavar="CACHE_DIR",
        help="the sweep's shared cache directory (default: "
             "$REPRO_CACHE_DIR or .repro_cache/)",
    )
    parser.add_argument(
        "--queue-dir", default=None, metavar="DIR",
        help="job-queue directory (default: <CACHE_DIR>/queue)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the snapshot as one JSON document (includes full "
             "failure tracebacks) instead of the human-readable table",
    )
    parser.add_argument(
        "--stale-after", type=float, default=DEFAULT_STALE_AFTER,
        metavar="S",
        help="show a worker as stale once its heartbeat is older than "
             "S seconds (default: 30)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="also aggregate the per-task timing stamps in the result "
             "cache (setup/run/store seconds, result sizes, chunk "
             "sizes) into a per-experiment table; see also `runner "
             "profile CACHE_DIR`",
    )
    return parser


def _cmd_queue_status(argv) -> int:
    parser = _queue_status_parser()
    args = parser.parse_args(argv)
    if args.stale_after <= 0:
        parser.error("--stale-after must be positive")
    cache_dir = (
        Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    )
    if not cache_dir.exists():
        print(
            f"error: no such cache directory: {cache_dir} (pass the "
            "directory the sweep's --cache-dir points at as CACHE_DIR)",
            file=sys.stderr,
        )
        return 1
    status = queue_status(
        cache_dir, args.queue_dir, stale_after=args.stale_after,
        profile=args.profile,
    )
    try:
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
        else:
            print(render_status(status))
        sys.stdout.flush()
    except BrokenPipeError:
        # `queue status | head` is a perfectly good way to watch a
        # sweep; a closed pipe is not an error worth a traceback.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
    return 0


def _cmd_queue(argv) -> int:
    if argv and argv[0] == "status":
        return _cmd_queue_status(argv[1:])
    print(
        "usage: python -m repro.experiments.runner queue status "
        "[CACHE_DIR] [--queue-dir DIR] [--json] [--stale-after S] "
        "[--profile]",
        file=sys.stderr,
    )
    return 2


# ----------------------------------------------------------------------
# `profile`: aggregate per-task timing stamps from a result cache
# ----------------------------------------------------------------------


def _profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner profile",
        description="Aggregate the per-task timing stamps "
                    "(setup/run/store seconds, result sizes, chunk "
                    "sizes) that every executed task leaves in its "
                    "cache entry's provenance, grouped per experiment "
                    "with p50/p95 run times and the share of wall "
                    "time spent outside task functions.  Read-only; "
                    "entries predating the profiling layer simply "
                    "don't count.",
    )
    parser.add_argument(
        "cache_dir", nargs="?", default=None, metavar="CACHE_DIR",
        help="the sweep's result cache directory (default: "
             "$REPRO_CACHE_DIR or .repro_cache/)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the aggregation as one JSON document instead of "
             "the human-readable table",
    )
    return parser


def _cmd_profile(argv) -> int:
    parser = _profile_parser()
    args = parser.parse_args(argv)
    cache_dir = (
        Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    )
    if not cache_dir.exists():
        print(
            f"error: no such cache directory: {cache_dir} (pass the "
            "directory the sweep's --cache-dir points at as CACHE_DIR)",
            file=sys.stderr,
        )
        return 1
    profile = profile_cache(cache_dir)
    if args.json:
        print(json.dumps(profile, indent=2, sort_keys=True))
    else:
        print(render_profile(profile))
    return 0


# ----------------------------------------------------------------------
# `check-timing`: run a configuration and replay its command stream
# against the JEDEC conformance checker
# ----------------------------------------------------------------------


def _check_timing_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner check-timing",
        description="Run one simulation with command logging on and "
                    "replay the implied DDR4 command stream against "
                    "the declarative JEDEC timing rulebook (tRCD, "
                    "tRAS, tRP, tRC, tRRD_S, tFAW, tRFC, tREFI), an "
                    "oracle independent of the engine's scheduler.  "
                    "Workloads are synthetic suite traces by default; "
                    "--trace replays ramulator/DRAMsim-style request "
                    "files (plain or gzip, streamed).  Exit code 1 "
                    "when any violation is found.",
    )
    parser.add_argument(
        "--trace", action="append", default=None, metavar="FILE",
        help="request trace file (`<addr> <R|W> [cycle]` lines, plain "
             "or .gz); give one file shared by every core or repeat "
             "the flag once per core (default: synthetic traces)",
    )
    parser.add_argument(
        "--suite", default=None, metavar="NAME",
        help="synthetic suite profile when no --trace is given "
             "(default: ycsb; see repro.workloads.suites)",
    )
    parser.add_argument(
        "--defense", default=None, metavar="NAME",
        help="attach a RowHammer defense (AQUA, BlockHammer, Hydra, "
             "PARA, RRS; default: none)",
    )
    parser.add_argument(
        "--hc-first", type=int, default=None, metavar="N",
        help="HC_first threshold for --defense (default: 1024)",
    )
    parser.add_argument(
        "--cores", type=int, default=2, metavar="N",
        help="simulated cores (default: 2)",
    )
    parser.add_argument(
        "--requests-per-core", type=int, default=2000, metavar="N",
        help="requests per core (default: 2000)",
    )
    parser.add_argument(
        "--rows-per-bank", type=int, default=4096, metavar="N",
        help="rows per bank (default: 4096)",
    )
    parser.add_argument(
        "--speed", type=int, default=3200, metavar="MTS",
        help="DDR4 speed grade for the timing rulebook and the engine "
             "(2400, 2666, 2933, 3200; default: 3200)",
    )
    parser.add_argument(
        "--device", default=None, metavar="SPEC",
        help="device-generation preset for the timing rulebook and the "
             "engine (DDR4-3200, LPDDR4-3200, DDR5-4800, ...); "
             "overrides --speed and checks against that generation's "
             "JEDEC rules",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload seed (default: 0)",
    )
    parser.add_argument(
        "--clock-ns", type=float, default=None, metavar="NS",
        help="with --trace: nanoseconds per trace cycle stamp; cycle "
             "deltas become arrival gaps (default: stamps ignored)",
    )
    parser.add_argument(
        "--gap-ns", type=float, default=None, metavar="NS",
        help="with --trace: arrival gap for lines without usable "
             "cycle stamps (default: 0, back-to-back)",
    )
    parser.add_argument(
        "--max-violations", type=int, default=20, metavar="N",
        help="violations listed in the text report (default: 20; the "
             "JSON report always carries all of them)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON document (simulation counters + the full "
             "violation report) instead of the text summary",
    )
    return parser


def _cmd_check_timing(argv) -> int:
    from repro.defenses import DEFENSE_CLASSES
    from repro.sim.config import SystemConfig
    from repro.sim.conformance import check_run
    from repro.sim.engine import MemorySystem
    from repro.workloads import (
        TraceParseError,
        readers_for_cores,
        synthetic_traces,
    )

    parser = _check_timing_parser()
    args = parser.parse_args(argv)
    if args.cores < 1:
        parser.error("--cores must be positive")
    if args.requests_per_core < 1:
        parser.error("--requests-per-core must be positive")
    if args.hc_first is not None and args.hc_first < 1:
        parser.error("--hc-first must be positive")
    if args.hc_first is not None and args.defense is None:
        parser.error("--hc-first requires --defense")
    if args.clock_ns is not None and args.trace is None:
        parser.error("--clock-ns requires --trace")
    if args.gap_ns is not None and args.trace is None:
        parser.error("--gap-ns requires --trace")
    if args.suite is not None and args.trace is not None:
        parser.error("--suite applies only without --trace")
    suite = "ycsb" if args.suite is None else args.suite
    try:
        timing = device_for(
            args.device if args.device is not None else args.speed
        )
    except ValueError as error:
        parser.error(str(error))
    device_label = (
        args.device if args.device is not None else f"DDR4-{args.speed}"
    )
    defense_name = args.defense
    if defense_name is not None and defense_name not in DEFENSE_CLASSES:
        parser.error(
            f"unknown defense {defense_name!r}; known: "
            f"{', '.join(sorted(DEFENSE_CLASSES))}"
        )

    config = SystemConfig(
        cores=args.cores,
        rows_per_bank=args.rows_per_bank,
        requests_per_core=args.requests_per_core,
        timing=timing,
        defense_epoch_ns=DEFENSE_EPOCH_NS if defense_name else None,
    )
    if args.trace is not None:
        try:
            traces = readers_for_cores(
                args.trace, config.cores,
                total_banks=config.total_banks,
                rows_per_bank=config.rows_per_bank,
                columns_per_row=config.columns_per_row,
                clock_ns=args.clock_ns,
                default_gap_ns=0.0 if args.gap_ns is None else args.gap_ns,
            )
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        try:
            traces = synthetic_traces(
                [suite] * config.cores, config, args.seed * 1000
            )
        except KeyError as error:
            parser.error(str(error.args[0]))

    defense = None
    if defense_name is not None:
        hc_first = 1024 if args.hc_first is None else args.hc_first
        defense = DEFENSE_CLASSES[defense_name](
            hc_first, rows_per_bank=config.rows_per_bank, seed=args.seed
        )

    system = MemorySystem(config, traces, defense=defense, seed=args.seed)
    try:
        result, report = check_run(system)
    except TraceParseError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    workload = (
        f"trace files: {', '.join(args.trace)}"
        if args.trace is not None
        else f"synthetic suite {suite!r}"
    )
    if args.json:
        document = {
            "workload": workload,
            "speed_mts": config.timing.data_rate_mts,
            "defense": defense_name,
            "cores": config.cores,
            "requests": config.requests_per_core * config.cores,
            "total_ns": result.total_ns,
            "activations": result.activations,
            "refreshes_issued": result.refreshes_issued,
            "row_hit_rate": result.row_hit_rate,
            "conformance": report.to_json_dict(),
        }
        if args.device is not None:
            # Key only present for --device runs: the DDR4 --speed
            # document stays byte-identical to the pre-generation one
            # (conformance-smoke byte-diffs it against a golden).
            document["device"] = args.device
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(
            f"simulated {config.requests_per_core * config.cores} requests "
            f"on {config.cores} core(s), {device_label}, "
            f"defense: {defense_name or 'none'} ({workload})"
        )
        print(
            f"  {result.activations} activations, "
            f"{result.refreshes_issued} refreshes, "
            f"row hit rate {result.row_hit_rate:.3f}, "
            f"finished at {result.total_ns:.0f}ns"
        )
        print(report.render_text(max_violations=args.max_violations))
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# `recipe`: declarative sweep manifests
# ----------------------------------------------------------------------


def _recipe_list_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner recipe list",
        description="List every checked-in sweep recipe.",
    )
    parser.add_argument(
        "--format", dest="format_name", default="text",
        choices=("text", "json"),
        help="listing format: a fixed-width table or the full manifests "
             "as JSON (default: text)",
    )
    return parser


def _cmd_recipe_list(argv) -> int:
    args = _recipe_list_parser().parse_args(argv)
    recipes = all_recipes()
    if args.format_name == "json":
        print(json.dumps(
            {name: recipe.to_manifest() for name, recipe in recipes.items()},
            indent=2,
        ))
        return 0
    rows = [
        (
            name,
            f"v{recipe.version}",
            recipe.paper_ref,
            ", ".join(recipe.experiments),
            f"{len(recipe.seeds)} seed{'s' if len(recipe.seeds) != 1 else ''}",
            recipe.description,
        )
        for name, recipe in recipes.items()
    ]
    print(display_table(
        ("recipe", "ver", "paper", "experiments", "seed matrix",
         "description"),
        rows,
    ))
    return 0


def _recipe_show_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner recipe show",
        description="Print one recipe's manifest as JSON (stdout), plus "
                    "its seed matrix and per-seed artifact layout "
                    "(stderr, so stdout stays parseable).",
    )
    parser.add_argument(
        "name", metavar="RECIPE",
        help="a registered recipe name (see `recipe list`) or a path "
             "to a manifest .json",
    )
    return parser


def _cmd_recipe_show(argv) -> int:
    args = _recipe_show_parser().parse_args(argv)
    try:
        recipe = get_recipe(args.name)
    except RecipeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(recipe.to_manifest(), indent=2))
    # The human-facing half goes to stderr so `recipe show X | jq`
    # keeps working on the manifest alone.
    seeds = ", ".join(str(seed) for seed in recipe.seeds)
    plural = "s" if len(recipe.seeds) != 1 else ""
    print(
        f"\nseed matrix: {seeds} ({len(recipe.seeds)} seed{plural})",
        file=sys.stderr,
    )
    print(
        "artifact layout under `recipe run "
        f"{recipe.name} --out DIR [--format FMT]`:",
        file=sys.stderr,
    )
    experiments = ",".join(recipe.experiments)
    for seed in recipe.seeds:
        for device in recipe.devices or (None,):
            relative = _recipe_out_dir(Path("DIR"), recipe, seed, device=device)
            print(
                f"  {relative}/{{{experiments}}}.<fmt>", file=sys.stderr,
            )
    print(
        "  DIR/report.html            (with --report: aggregated "
        "across the seed matrix)",
        file=sys.stderr,
    )
    return 0


def _recipe_run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner recipe run",
        description="Run a declarative sweep recipe on any backend. "
                    "Re-running resumes purely from cache state.",
    )
    parser.add_argument(
        "name", metavar="RECIPE",
        help="a registered recipe name (see `recipe list`) or a path "
             "to a manifest .json",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="apply the recipe's smoke_overrides (tiny scale, used by "
             "`make recipes-smoke` to cross-check backends)",
    )
    parser.add_argument(
        "--report", action="store_true",
        help="also write a self-contained <out>/report.html stitching "
             "every cell together, aggregated (mean/stddev/min-max) "
             "across the seed matrix; requires --out",
    )
    _add_execution_flags(parser)
    _add_render_flags(parser)
    return parser


def _cmd_recipe_run(argv) -> int:
    parser = _recipe_run_parser()
    args = parser.parse_args(argv)
    _validate_execution_flags(parser, args)
    if args.report and args.out is None:
        parser.error("--report requires --out (the report lands at "
                     "<out>/report.html)")

    try:
        recipe = get_recipe(args.name)
        recipe.validate_experiments()
        runs = recipe.runs(smoke=args.smoke)
    except RecipeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    renderer = get_renderer(args.format_name)
    out_dir: Optional[Path] = Path(args.out) if args.out else None

    experiments = all_experiments()
    json_documents: List[dict] = []
    html_sections: List = []
    json_stdout = args.format_name == "json" and out_dir is None
    failed: List[str] = []
    completed: List[tuple] = []  # (experiment, seed, device, ResultSet)

    with build_context(args) as orch:
        for experiment_name, seed, scale in runs:
            cell = f"{experiment_name}@seed{seed}"
            if scale.device is not None:
                cell = f"{cell}/{scale.device}"
            print(f"[recipe {recipe.name} v{recipe.version}] {cell}",
                  file=sys.stderr)
            before = _stats_snapshot(orch)
            try:
                result_set = experiments[experiment_name].run_result_set(
                    scale, orch
                )
            except BackendError as error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            except ExperimentError as error:
                print(f"error: {cell}: {error}", file=sys.stderr)
                failed.append(cell)
                continue
            if scale.device is not None:
                result_set.title = f"{result_set.title} [{scale.device}]"
            result_set.meta["recipe"] = {
                "name": recipe.name,
                "version": recipe.version,
                "seed": seed,
                "smoke": args.smoke,
            }
            _stamp_provenance(result_set, orch, before)
            if args.report:
                # Only the report consumes these; retaining a whole
                # paper-scale grid in memory otherwise is waste.
                completed.append((experiment_name, seed, scale.device, result_set))
            _emit_result_set(
                result_set,
                renderer,
                args.format_name,
                None if out_dir is None
                else _recipe_out_dir(out_dir, recipe, seed, device=scale.device),
                json_documents, html_sections,
            )
        if json_stdout:
            _flush_json_stdout(json_documents, len(runs))
        _flush_html_stdout(html_sections)
        if failed:
            print(
                f"{len(failed)} recipe cell(s) failed: {', '.join(failed)}",
                file=sys.stderr,
            )
        _print_orchestration_stats(orch)

    if args.report and completed:
        from repro.experiments.aggregate import AggregationError

        try:
            path = _write_recipe_report(
                recipe, args.smoke, completed, out_dir
            )
        except AggregationError as error:
            # The per-seed artifacts are all on disk by now; losing
            # the report must not look like losing the sweep.
            print(
                f"error: report aggregation failed: {error}\n"
                f"(per-seed artifacts under {out_dir} are intact; "
                f"`runner report {out_dir} --no-aggregate` renders "
                "them unaggregated)",
                file=sys.stderr,
            )
            return 1
        print(f"wrote {path}")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# `report`: stitch an artifact tree into one self-contained HTML page
# ----------------------------------------------------------------------


def _report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.runner report",
        description="Stitch ResultSet JSON artifacts (a run's --out "
                    "tree, a recipe tree with seed*/ subdirectories, or "
                    "a single artifact file) into one self-contained "
                    "HTML report; seed-partitioned artifacts are "
                    "aggregated with mean/stddev/min-max error bands. "
                    "See REPORTS.md.",
    )
    parser.add_argument(
        "artifacts", metavar="ARTIFACTS",
        help="directory to scan recursively for ResultSet .json "
             "artifacts (written by --format json), or one such file",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="output HTML path (default: <ARTIFACTS>/report.html, or "
             "next to a single artifact file)",
    )
    parser.add_argument(
        "--title", default=None, metavar="TEXT",
        help="report page title (default: derived from the artifact "
             "directory name)",
    )
    parser.add_argument(
        "--no-aggregate", action="store_true",
        help="render each seed's artifacts as separate sections "
             "instead of aggregating across seed*/ directories",
    )
    return parser


def _cmd_report(argv) -> int:
    from repro.experiments.aggregate import (
        AggregationError,
        collect_report_sections,
    )
    from repro.experiments.report import build_report

    args = _report_parser().parse_args(argv)
    root = Path(args.artifacts)
    if not root.exists():
        print(f"error: no such artifact path: {root}", file=sys.stderr)
        return 1
    try:
        sections = collect_report_sections(
            root, aggregate=not args.no_aggregate
        )
    except AggregationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if not sections:
        print(
            f"error: no ResultSet artifacts under {root} (write them "
            "with `runner run ... --format json --out DIR` or `runner "
            "recipe run ... --format json --out DIR`)",
            file=sys.stderr,
        )
        return 1
    title = args.title or (
        f"Svärd reproduction report: "
        f"{root.name if root.is_dir() else root.stem}"
    )
    html = build_report(
        sections,
        title=title,
        subtitle=f"stitched from {root}",
    )
    out = (
        Path(args.out)
        if args.out is not None
        else (root if root.is_dir() else root.parent) / "report.html"
    )
    atomic_write_text(out, html)
    print(f"wrote {out} ({len(sections)} sections)")
    return 0


def _cmd_recipe(argv) -> int:
    if argv and argv[0] == "list":
        return _cmd_recipe_list(argv[1:])
    if argv and argv[0] == "show":
        return _cmd_recipe_show(argv[1:])
    if argv and argv[0] == "run":
        return _cmd_recipe_run(argv[1:])
    print(
        "usage: python -m repro.experiments.runner recipe {list,show,run} ...",
        file=sys.stderr,
    )
    return 2


_TOP_LEVEL_HELP = """\
usage: python -m repro.experiments.runner {list,run,recipe,worker,queue,profile,report,check-timing} ...

subcommands:
  list    enumerate every registered experiment (--format text|json)
  run     run experiments and render their artifacts (the default:
          bare experiment names imply `run`)
  check-timing
          run one simulation with DDR4 command logging on and replay
          the stream against the JEDEC conformance rulebook
          (synthetic suites or --trace request files, plain or .gz);
          exit 1 on any timing violation
  recipe  declarative sweep manifests: `recipe list`, `recipe show
          NAME`, `recipe run NAME [--smoke] [--report]` -- the
          checked-in paper-scale grids, runnable on any backend
  worker  attach this process to a job-queue directory and execute
          tasks published by `--backend queue` submitters
  queue   observe a live sweep: `queue status [CACHE_DIR] [--json]
          [--profile]` summarizes tasks, leases, failures, and
          live/stale workers from their heartbeat files
  profile aggregate the per-task timing stamps a sweep left in its
          result cache: per-experiment p50/p95 run times, setup and
          store overhead share, result sizes, chunk sizes
  report  stitch ResultSet JSON artifact trees (including seed*/
          matrices, aggregated with error bands) into one
          self-contained HTML page

`python -m repro.experiments.runner run --help` shows the run flags;
`--help-all` dumps every subcommand's help in one document (the copy
in EXPERIMENTS.md is kept in sync by the test suite).  See
EXPERIMENTS.md for the Experiment API and output formats, REPORTS.md
for the report pipeline, and ORCHESTRATION.md for backends, the
queue/worker model, and the cache.
"""


#: Every subcommand's parser builder, in ``--help-all`` order.
PARSERS = (
    _list_parser,
    _run_parser,
    _recipe_list_parser,
    _recipe_show_parser,
    _recipe_run_parser,
    _worker_parser,
    _queue_status_parser,
    _profile_parser,
    _report_parser,
    _check_timing_parser,
)


def help_all_text() -> str:
    """Every subcommand's ``--help``, as one deterministic document.

    This is the ``--help-all`` payload and the generated CLI
    reference checked into EXPERIMENTS.md
    (``pytest tests/test_report.py --update-golden`` refreshes it).
    The terminal width is pinned so the output does not depend on the
    invoking terminal.
    """
    import os

    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "78"
    try:
        sections = [_TOP_LEVEL_HELP]
        for build in PARSERS:
            sections.append("=" * 72 + "\n")
            sections.append(build().format_help())
    finally:
        if saved is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = saved
    return "\n".join(sections)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("-h", "--help"):
        print(_TOP_LEVEL_HELP, end="")
        return 0
    if argv and argv[0] == "--help-all":
        print(help_all_text(), end="")
        return 0
    if argv and argv[0] == "list":
        return _cmd_list(argv[1:])
    if argv and argv[0] == "recipe":
        return _cmd_recipe(argv[1:])
    if argv and argv[0] == "worker":
        return _cmd_worker(argv[1:])
    if argv and argv[0] == "queue":
        return _cmd_queue(argv[1:])
    if argv and argv[0] == "profile":
        return _cmd_profile(argv[1:])
    if argv and argv[0] == "report":
        return _cmd_report(argv[1:])
    if argv and argv[0] == "check-timing":
        return _cmd_check_timing(argv[1:])
    if argv and argv[0] == "run":
        argv = argv[1:]
    # Bare experiment names (the pre-registry CLI) imply `run`.
    return _cmd_run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
