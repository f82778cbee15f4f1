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

Every subcommand is one :class:`Command` in :data:`COMMANDS`, the
table ``main``, ``--help-all`` and the usage lines read.

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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, List, Optional, Tuple

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

_PROG = "python -m repro.experiments.runner"

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


def _comma_list(convert, what: str):
    """An argparse ``type=``: ``"a,b"`` -> a tuple of distinct values."""
    def parse(text: str) -> tuple:
        try:
            values = tuple(convert(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be comma-separated {what}, got {text!r}"
            )
        if len(set(values)) != len(values):
            raise argparse.ArgumentTypeError(f"contains duplicates: {values}")
        return values
    return parse


def _device_spec(text: str) -> str:
    """An argparse ``type=``: a device spec ``device_for`` resolves."""
    try:
        device_for(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))
    return text


def _run_flags(parser: argparse.ArgumentParser) -> None:
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
        "--banks", type=_comma_list(int, "integers"), default=None,
        metavar="B0,B1,...",
        help="override ExperimentScale.banks (comma-separated indices)",
    )
    parser.add_argument(
        "--modules", type=_comma_list(str, "labels"), default=None,
        metavar="M0,M1,...",
        help="override ExperimentScale.modules (comma-separated labels)",
    )
    parser.add_argument(
        "--t-agg-on", dest="t_agg_on_sweep_ns",
        type=_comma_list(float, "numbers"), default=None,
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
        "--device", type=_device_spec, default=None, metavar="SPEC",
        help="override ExperimentScale.device: run the performance "
             "experiments on a device-generation preset (DDR4-3200, "
             "LPDDR4-3200, DDR5-4800, ...; default: the paper's "
             "DDR4-3200)",
    )


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


@dataclass(frozen=True)
class _Cell:
    """One experiment run of ``run`` or ``recipe run``.

    The fields from ``banner`` on are what ``recipe run`` adds: its
    stderr line, the ``[device]`` title suffix, ``meta.recipe`` and
    whether ``--report`` keeps the ResultSet.
    """

    experiment: str
    scale: ExperimentScale
    label: str  # names the cell in its error line and failure summary
    out_dir: Optional[Path]  # None renders to stdout
    banner: Optional[str] = None
    title_suffix: str = ""
    recipe: Optional[dict] = None
    keep: bool = False


def _run_cells(
    args, cells: List[_Cell], noun: str
) -> Tuple[int, List[tuple]]:
    """Run, stamp and emit every cell on one orchestration context.

    The one loop behind ``run`` and ``recipe run``.  A backend failure
    aborts the rest; an experiment error fails only its cell.  In
    json- and html-to-stdout modes stdout is **one** document, printed
    after the loop (14 concatenated HTML pages are not a loadable
    page).  Returns the exit code and ``(experiment, seed, device,
    ResultSet)`` for every kept cell -- none after a backend abort.
    """
    experiments = all_experiments()
    renderer = get_renderer(args.format_name)
    collected: List = []  # JSON documents or HTML sections for stdout
    failed: List[str] = []
    kept: List[tuple] = []
    with build_context(args) as orch:
        for cell in cells:
            if cell.banner is not None:
                print(cell.banner, file=sys.stderr)
            before = _stats_snapshot(orch)
            try:
                result_set = experiments[cell.experiment].run_result_set(
                    cell.scale, orch
                )
            except BackendError as error:
                # Backend failures (misconfiguration, a task that died
                # on a worker) abort the whole run: later cells would
                # hit the same wall.
                print(f"error: {error}", file=sys.stderr)
                return 1, []
            except ExperimentError as error:
                # A selection invalid for one experiment should not
                # abort the rest of a multi-experiment run.
                print(f"error: {cell.label}: {error}", file=sys.stderr)
                failed.append(cell.label)
                continue
            result_set.title += cell.title_suffix
            if cell.recipe is not None:
                result_set.meta["recipe"] = cell.recipe
            _stamp_provenance(result_set, orch, before)
            if cell.keep:
                # Only the report consumes these; retaining a whole
                # paper-scale grid in memory otherwise is waste.
                kept.append((
                    cell.experiment, cell.scale.seed, cell.scale.device,
                    result_set,
                ))
            if cell.out_dir is not None:
                paths = renderer.write(result_set, cell.out_dir)
                for path in paths:
                    print(f"wrote {path}")
                if not paths:
                    print(f"{result_set.experiment}: nothing to write for "
                          f"format {args.format_name!r}")
            elif args.format_name == "text":
                print("=" * 72)
                print(result_set.render_text())
                print()
            elif args.format_name == "json":
                collected.append(result_set.to_json_dict())
            elif args.format_name == "html":
                collected.append(result_set)
            else:
                print(renderer.render(result_set))
        if args.format_name == "json" and not args.out:
            # The shape follows the *request*: a bare object when a
            # single cell was requested and succeeded, an array
            # otherwise -- including the empty array when failures
            # left no results.
            document = (
                collected[0] if len(cells) == 1 and collected else collected
            )
            print(json.dumps(document, indent=2, sort_keys=True))
        elif collected:
            # One self-contained page stitching every section.
            from repro.experiments.report import build_report

            labels = {}
            if len(collected) == 1:
                labels = dict(
                    title=collected[0].title,
                    subtitle=f"experiment: {collected[0].experiment}",
                )
            print(build_report(collected, **labels), end="")
        if failed:
            print(f"{len(failed)} {noun} failed: {', '.join(failed)}",
                  file=sys.stderr)
        if orch.stats.submitted:
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
    return (1 if failed else 0), kept


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


def _list_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", dest="format_name", default="text",
        choices=("text", "json"),
        help="listing format: a fixed-width table or machine-readable "
             "JSON (default: text)",
    )


def _cmd_list(parser, args) -> int:
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


def _cmd_run(parser, args) -> int:
    _validate_execution_flags(parser, args)
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
        # ExperimentScale validates module labels, sizes and banks.
        print(f"invalid scale: {error}", file=sys.stderr)
        return 1
    explicit = frozenset(overrides)
    out_dir = Path(args.out) if args.out else None
    cells = [
        _Cell(
            name,
            _scale_for(experiments[name], base_scale, explicit, args.full),
            name,
            out_dir,
        )
        for name in names
    ]
    return _run_cells(args, cells, "experiment(s)")[0]


# ----------------------------------------------------------------------
# `worker`: attach this process to a job-queue directory
# ----------------------------------------------------------------------


def _worker_flags(parser: argparse.ArgumentParser) -> None:
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


def _cmd_worker(parser, args) -> int:
    import signal

    # `not > 0` also rejects NaN; 0 would re-list the queue directory
    # in a busy loop.
    if not args.poll_interval > 0:
        parser.error("--poll-interval must be positive")
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
# `queue status` and `profile`: read-only views of a sweep's cache
# ----------------------------------------------------------------------


def _existing_cache_dir(cache_dir: Optional[str]) -> Optional[Path]:
    """The CACHE_DIR argument, or None after an error if it is missing."""
    path = Path(cache_dir) if cache_dir else default_cache_dir()
    if path.exists():
        return path
    print(
        f"error: no such cache directory: {path} (pass the "
        "directory the sweep's --cache-dir points at as CACHE_DIR)",
        file=sys.stderr,
    )
    return None


def _print_document(document: dict, as_json: bool, render) -> int:
    """Print one JSON document or its rendered table; exit code 0."""
    try:
        if as_json:
            print(json.dumps(document, indent=2, sort_keys=True))
        else:
            print(render(document))
        sys.stdout.flush()
    except BrokenPipeError:
        # `queue status | head` is a perfectly good way to watch a
        # sweep; a closed pipe is not an error worth a traceback.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
    return 0


def _queue_status_flags(parser: argparse.ArgumentParser) -> None:
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


def _cmd_queue_status(parser, args) -> int:
    if args.stale_after <= 0:
        parser.error("--stale-after must be positive")
    cache_dir = _existing_cache_dir(args.cache_dir)
    if cache_dir is None:
        return 1
    status = queue_status(
        cache_dir, args.queue_dir, stale_after=args.stale_after,
        profile=args.profile,
    )
    return _print_document(status, args.json, render_status)


def _profile_flags(parser: argparse.ArgumentParser) -> None:
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


def _cmd_profile(parser, args) -> int:
    cache_dir = _existing_cache_dir(args.cache_dir)
    if cache_dir is None:
        return 1
    return _print_document(profile_cache(cache_dir), args.json, render_profile)


# ----------------------------------------------------------------------
# `check-timing`: run a configuration and replay its command stream
# against the JEDEC conformance checker
# ----------------------------------------------------------------------


def _check_timing_flags(parser: argparse.ArgumentParser) -> None:
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


def _cmd_check_timing(parser, args) -> int:
    from repro.defenses import DEFENSE_CLASSES
    from repro.sim.config import SystemConfig
    from repro.sim.conformance import check_run
    from repro.sim.engine import MemorySystem
    from repro.workloads import (
        TraceParseError,
        readers_for_cores,
        synthetic_traces,
    )

    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.max_violations < 0:
        parser.error("--max-violations must be >= 0")
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

    try:
        # SystemConfig owns the cores, size and geometry rules.
        config = SystemConfig(
            cores=args.cores,
            rows_per_bank=args.rows_per_bank,
            requests_per_core=args.requests_per_core,
            timing=timing,
            defense_epoch_ns=DEFENSE_EPOCH_NS if defense_name else None,
        )
    except ValueError as error:
        parser.error(str(error))
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


def _recipe_list_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", dest="format_name", default="text",
        choices=("text", "json"),
        help="listing format: a fixed-width table or the full manifests "
             "as JSON (default: text)",
    )


def _cmd_recipe_list(parser, args) -> int:
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


def _add_recipe_name(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "name", metavar="RECIPE",
        help="a registered recipe name (see `recipe list`) or a path "
             "to a manifest .json",
    )


def _cmd_recipe_show(parser, args) -> int:
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


def _recipe_run_flags(parser: argparse.ArgumentParser) -> None:
    _add_recipe_name(parser)
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


def _cmd_recipe_run(parser, args) -> int:
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

    out_dir = Path(args.out) if args.out else None
    cells = []
    for experiment_name, seed, scale in runs:
        label = f"{experiment_name}@seed{seed}"
        suffix = ""
        if scale.device is not None:
            label = f"{label}/{scale.device}"
            suffix = f" [{scale.device}]"
        cells.append(_Cell(
            experiment_name,
            scale,
            label,
            None if out_dir is None
            else _recipe_out_dir(out_dir, recipe, seed, device=scale.device),
            banner=f"[recipe {recipe.name} v{recipe.version}] {label}",
            title_suffix=suffix,
            recipe=dict(name=recipe.name, version=recipe.version,
                        seed=seed, smoke=args.smoke),
            keep=args.report,
        ))
    code, completed = _run_cells(args, cells, "recipe cell(s)")

    if completed:
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
    return code


# ----------------------------------------------------------------------
# `report`: stitch an artifact tree into one self-contained HTML page
# ----------------------------------------------------------------------


def _report_flags(parser: argparse.ArgumentParser) -> None:
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


def _cmd_report(parser, args) -> int:
    from repro.experiments.aggregate import (
        AggregationError,
        collect_report_sections,
    )
    from repro.experiments.report import build_report

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


# ----------------------------------------------------------------------
# The command table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One leaf subcommand of the runner CLI."""

    #: The words after the program name, e.g. ``("recipe", "run")``.
    words: Tuple[str, ...]
    #: The ``--help`` description.
    description: str
    add_flags: Callable[[argparse.ArgumentParser], None]
    #: Called as ``handler(parser, args)``; returns the exit code.
    handler: Callable[[argparse.ArgumentParser, argparse.Namespace], int]

    def parser(self) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(
            prog=" ".join((_PROG,) + self.words),
            description=self.description,
        )
        self.add_flags(parser)
        return parser


#: Every subcommand, keyed by its words, in ``--help-all`` order.
COMMANDS = {command.words: command for command in (
    Command(("list",), "List every registered experiment.",
            _list_flags, _cmd_list),
    Command(("run",), "Regenerate the paper's figures and tables.",
            _run_flags, _cmd_run),
    Command(("recipe", "list"), "List every checked-in sweep recipe.",
            _recipe_list_flags, _cmd_recipe_list),
    Command(("recipe", "show"),
            "Print one recipe's manifest as JSON (stdout), plus its seed "
            "matrix and per-seed artifact layout (stderr, so stdout stays "
            "parseable).",
            _add_recipe_name, _cmd_recipe_show),
    Command(("recipe", "run"),
            "Run a declarative sweep recipe on any backend. Re-running "
            "resumes purely from cache state.",
            _recipe_run_flags, _cmd_recipe_run),
    Command(("worker",),
            "Claim and execute tasks from a shared job-queue directory "
            "until killed (or idle past --idle-timeout). Run as many of "
            "these as you have cores/hosts; results land in the shared "
            "result cache.",
            _worker_flags, _cmd_worker),
    Command(("queue", "status"),
            "One-shot snapshot of a live sweep's job queue: pending/leased/"
            "failed task counts, results already in the cache, live vs "
            "stale workers (from their heartbeat files), per-worker "
            "activity, failure records, and rough throughput.  Read-only; "
            "run it as often as you like (e.g. under `watch`).",
            _queue_status_flags, _cmd_queue_status),
    Command(("profile",),
            "Aggregate the per-task timing stamps (setup/run/store "
            "seconds, result sizes, chunk sizes) that every executed task "
            "leaves in its cache entry's provenance, grouped per "
            "experiment with p50/p95 run times and the share of wall time "
            "spent outside task functions.  Read-only; entries predating "
            "the profiling layer simply don't count.",
            _profile_flags, _cmd_profile),
    Command(("report",),
            "Stitch ResultSet JSON artifacts (a run's --out tree, a recipe "
            "tree with seed*/ subdirectories, or a single artifact file) "
            "into one self-contained HTML report; seed-partitioned "
            "artifacts are aggregated with mean/stddev/min-max error "
            "bands. See REPORTS.md.",
            _report_flags, _cmd_report),
    Command(("check-timing",),
            "Run one simulation with command logging on and replay the "
            "implied DDR4 command stream against the declarative JEDEC "
            "timing rulebook (tRCD, tRAS, tRP, tRC, tRRD_S, tFAW, tRFC, "
            "tREFI), an oracle independent of the engine's scheduler.  "
            "Workloads are synthetic suite traces by default; --trace "
            "replays ramulator/DRAMsim-style request files (plain or "
            "gzip, streamed).  Exit code 1 when any violation is found.",
            _check_timing_flags, _cmd_check_timing),
)}


def _usage(group: Tuple[str, ...] = ()) -> str:
    """The usage line of the top level or of a verb group.

    ``queue``'s line is written out: it names its one verb's flags.
    """
    if group == ("queue",):
        return (f"usage: {_PROG} queue status [CACHE_DIR] [--queue-dir DIR] "
                "[--json] [--stale-after S] [--profile]")
    verbs = dict.fromkeys(
        words[len(group)]
        for words in COMMANDS
        if words[:len(group)] == group and len(words) > len(group)
    )
    return f"usage: {' '.join((_PROG,) + group)} {{{','.join(verbs)}}} ..."


_TOP_LEVEL_HELP = _usage() + """

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
        for command in COMMANDS.values():
            sections.append("=" * 72 + "\n")
            sections.append(command.parser().format_help())
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
    words = next(
        (words for words in COMMANDS if tuple(argv[:len(words)]) == words),
        None,
    )
    if words is None and argv and argv[0] in {
        group[0] for group in COMMANDS if len(group) > 1
    }:
        # A verb group (`recipe`, `queue`) without a known verb.
        print(_usage((argv[0],)), file=sys.stderr)
        return 2
    if words is None:
        # Bare experiment names (the pre-registry CLI) imply `run`.
        words, argv = ("run",), ["run", *argv]
    command = COMMANDS[words]
    parser = command.parser()
    return command.handler(parser, parser.parse_args(argv[len(words):]))


if __name__ == "__main__":
    raise SystemExit(main())
