"""The unified Experiment API: registry, ResultSet artifacts, renderers.

Every paper figure/table harness is a registered :class:`Experiment`.
An experiment declares *what* to compute (``build_tasks`` decomposes
the sweep into orchestrated :class:`~repro.orchestration.TaskGroup`\\ s)
and *how* to assemble the outputs (``reduce`` returns the harness's
rich result object); ``result_set`` then converts that rich result
into a :class:`ResultSet` -- a structured, JSON-round-trippable
artifact that any registered renderer (``text``, ``json``, ``html``;
see :mod:`repro.experiments.render`) can consume.

The split keeps three consumers happy at once:

* the CLI (``python -m repro.experiments.runner``) runs experiments by
  name and renders in any format;
* tests and downstream analysis keep the rich result objects
  (``Fig12Result.improvement(...)`` etc.) returned by ``reduce``;
* artifacts on disk are typed tables + scalars, not strings.

Registering a new experiment::

    @register
    class MyExperiment(Experiment):
        name = "myexp"
        description = "one-line summary"
        paper_ref = "Fig. 99"

        def build_tasks(self, scale, orch):
            return [TaskGroup(tasks, fingerprint=("myexp", scale))]

        def reduce(self, scale, outputs):
            return MyRichResult(...)

        def result_set(self, result):
            return ResultSet(experiment=self.name, ...)

See EXPERIMENTS.md for the full walkthrough.
"""

from __future__ import annotations

import importlib
import pkgutil
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.orchestration import OrchestrationContext, TaskGroup, serial_context

class ExperimentError(RuntimeError):
    """A user-facing configuration problem (bad selection, bad scale).

    Experiments raise this for conditions the CLI should report as a
    clean one-line error; genuine defects keep their natural exception
    types (and tracebacks).
    """


#: Cell/scalar values allowed in a ResultSet (JSON-representable).
Scalar = Union[str, int, float, bool, None]

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _check_scalar(value: Any, where: str) -> Scalar:
    if not isinstance(value, _SCALAR_TYPES):
        raise TypeError(
            f"{where}: {value!r} is not a JSON scalar "
            "(str/int/float/bool/None)"
        )
    return value


def is_number(value: Any) -> bool:
    """True for int/float data values (bool is a flag, not a number)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def format_scalar(value: Any) -> str:
    """The one display formatting for cell/scalar values.

    Shared by the aggregation layout, the HTML report, and the SVG
    plotter's ticks/tooltips so the same value never renders two
    different ways on one page: ``None`` is a dash, integral floats
    drop the point, other floats get 4 significant digits.
    """
    if value is None:
        return "-"
    if isinstance(value, float) and not isinstance(value, bool):
        if value.is_integer() and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.4g}"
    return str(value)


# ----------------------------------------------------------------------
# ResultSet: the structured artifact
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ResultTable:
    """One typed table of rows: the machine-readable data."""

    name: str
    headers: Tuple[str, ...]
    rows: Tuple[Tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "headers", tuple(self.headers))
        rows = tuple(tuple(row) for row in self.rows)
        for row in rows:
            if len(row) != len(self.headers):
                raise ValueError(
                    f"table {self.name!r}: row {row!r} does not match "
                    f"headers {self.headers!r}"
                )
            for cell in row:
                _check_scalar(cell, f"table {self.name!r}")
        object.__setattr__(self, "rows", rows)

    def column(self, header: str) -> List[Scalar]:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]


@dataclass(frozen=True)
class PlotSpec:
    """A declarative chart over one table (drawn by the SVG plotter).

    ``kind`` is one of ``line``, ``bar``, ``scatter``.  ``x`` and ``y``
    name columns of ``table``; ``series`` optionally names a column to
    group rows into one plotted series per distinct value.

    ``ybands`` optionally attaches an error band to a ``y`` column:
    each entry is ``(y_column, low_column, high_column)``, all naming
    columns of ``table``.  The seed-matrix aggregation layer
    (:mod:`repro.experiments.aggregate`) emits these so the SVG
    plotter can shade min--max envelopes around mean lines.
    """

    name: str
    kind: str
    table: str
    x: str
    y: Tuple[str, ...]
    series: Optional[str] = None
    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    logx: bool = False
    logy: bool = False
    ybands: Tuple[Tuple[str, str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("line", "bar", "scatter"):
            raise ValueError(f"unknown plot kind {self.kind!r}")
        ys = (self.y,) if isinstance(self.y, str) else tuple(self.y)
        object.__setattr__(self, "y", ys)
        bands = tuple(tuple(band) for band in self.ybands)
        for band in bands:
            if len(band) != 3 or not all(isinstance(c, str) for c in band):
                raise ValueError(
                    f"plot {self.name!r}: ybands entries must be "
                    f"(y, low, high) column-name triples, got {band!r}"
                )
        object.__setattr__(self, "ybands", bands)

    def band_for(self, y_column: str) -> Optional[Tuple[str, str]]:
        """The ``(low, high)`` band columns for ``y_column``, if any."""
        for y, low, high in self.ybands:
            if y == y_column:
                return (low, high)
        return None


def split_series(table: "ResultTable", spec: "PlotSpec") -> Dict[str, list]:
    """Group a table's rows into plotted series per the spec.

    One series per distinct value of the ``spec.series`` column, in
    first-seen order, or a single unnamed series when the spec names
    no series column.
    """
    if spec.series is None:
        return {"": list(table.rows)}
    index = table.headers.index(spec.series)
    series: Dict[str, list] = {}
    for row in table.rows:
        series.setdefault(str(row[index]), []).append(row)
    return series


@dataclass(frozen=True)
class TextBlock:
    """Verbatim text in the rendered layout (includes its own newlines)."""

    text: str


@dataclass(frozen=True)
class TableBlock:
    """A preformatted fixed-width table in the rendered layout.

    Cells are display strings (units, precision, and suffixes already
    applied); the corresponding *typed* values live in
    ``ResultSet.tables``.  Keeping presentation separate from data is
    what lets the text renderer reproduce the paper-style tables
    byte-for-byte while the json/csv renderers consume typed rows.
    """

    headers: Tuple[str, ...]
    rows: Tuple[Tuple[str, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "headers", tuple(self.headers))
        rows = tuple(tuple(str(c) for c in row) for row in self.rows)
        for row in rows:
            if len(row) != len(self.headers):
                raise ValueError(
                    f"display row {row!r} does not match headers "
                    f"{self.headers!r}"
                )
        object.__setattr__(self, "rows", rows)


Block = Union[TextBlock, TableBlock]


def display_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]]
) -> str:
    """Render a fixed-width text table (the paper-style output)."""
    columns = [list(column) for column in zip(headers, *rows)]
    widths = [max(len(cell) for cell in column) for column in columns]

    def line(cells):
        return "  ".join(
            cell.ljust(width) for cell, width in zip(cells, widths)
        )

    separator = "  ".join("-" * width for width in widths)
    return "\n".join([line(headers), separator, *[line(row) for row in rows]])


@dataclass
class ResultSet:
    """The structured output artifact of one experiment run.

    * ``tables`` / ``scalars`` -- typed data (JSON scalars only).
    * ``layout`` -- the presentation program replayed by the text
      renderer: text blocks are emitted verbatim, table blocks through
      :func:`display_table`.
    * ``plots`` -- declarative chart specs for the SVG plotter.
    * ``meta`` -- run context (experiment scale echo etc.), JSON-safe.

    ``to_json_dict``/``from_json_dict`` round-trip exactly (verified by
    the API test suite), so a ResultSet written with ``--format json``
    can be reloaded and re-rendered later.
    """

    experiment: str
    title: str
    scalars: Dict[str, Scalar] = field(default_factory=dict)
    tables: Tuple[ResultTable, ...] = ()
    layout: Tuple[Block, ...] = ()
    plots: Tuple[PlotSpec, ...] = ()
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.tables = tuple(self.tables)
        self.layout = tuple(self.layout)
        self.plots = tuple(self.plots)
        names = [t.name for t in self.tables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate table names in {self.experiment}")
        for key, value in self.scalars.items():
            _check_scalar(value, f"scalar {key!r}")

    def table(self, name: str) -> ResultTable:
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(f"{self.experiment} has no table {name!r}")

    def render_text(self) -> str:
        """The paper-style fixed-width text output."""
        parts = []
        for block in self.layout:
            if isinstance(block, TextBlock):
                parts.append(block.text)
            else:
                parts.append(display_table(block.headers, block.rows))
        return "".join(parts)

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "title": self.title,
            "scalars": dict(self.scalars),
            "tables": [
                {
                    "name": t.name,
                    "headers": list(t.headers),
                    "rows": [list(row) for row in t.rows],
                }
                for t in self.tables
            ],
            "layout": [
                {"kind": "text", "text": b.text}
                if isinstance(b, TextBlock)
                else {
                    "kind": "table",
                    "headers": list(b.headers),
                    "rows": [list(row) for row in b.rows],
                }
                for b in self.layout
            ],
            "plots": [
                {
                    "name": p.name,
                    "kind": p.kind,
                    "table": p.table,
                    "x": p.x,
                    "y": list(p.y),
                    "series": p.series,
                    "title": p.title,
                    "xlabel": p.xlabel,
                    "ylabel": p.ylabel,
                    "logx": p.logx,
                    "logy": p.logy,
                    # Emitted only when present so pre-band artifacts
                    # (and their goldens) keep their exact shape.
                    **(
                        {"ybands": [list(band) for band in p.ybands]}
                        if p.ybands
                        else {}
                    ),
                }
                for p in self.plots
            ],
            "meta": json_safe(self.meta),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "ResultSet":
        return cls(
            experiment=data["experiment"],
            title=data["title"],
            scalars=dict(data.get("scalars", {})),
            tables=tuple(
                ResultTable(
                    name=t["name"],
                    headers=tuple(t["headers"]),
                    rows=tuple(tuple(row) for row in t["rows"]),
                )
                for t in data.get("tables", [])
            ),
            layout=tuple(
                TextBlock(text=b["text"])
                if b["kind"] == "text"
                else TableBlock(
                    headers=tuple(b["headers"]),
                    rows=tuple(tuple(row) for row in b["rows"]),
                )
                for b in data.get("layout", [])
            ),
            plots=tuple(
                PlotSpec(
                    name=p["name"],
                    kind=p["kind"],
                    table=p["table"],
                    x=p["x"],
                    y=tuple(p["y"]),
                    series=p.get("series"),
                    title=p.get("title", ""),
                    xlabel=p.get("xlabel", ""),
                    ylabel=p.get("ylabel", ""),
                    logx=p.get("logx", False),
                    logy=p.get("logy", False),
                    ybands=tuple(
                        tuple(band) for band in p.get("ybands", ())
                    ),
                )
                for p in data.get("plots", [])
            ),
            meta=dict(data.get("meta", {})),
        )


def json_safe(value: Any) -> Any:
    """Recursively convert tuples/dataclass-free structures for JSON.

    Tuples become lists (matching what ``json.loads`` produces, so a
    ResultSet whose ``meta`` went through :func:`json_safe` compares
    equal after a round-trip); scalars pass through; anything else is
    rejected.
    """
    if isinstance(value, _SCALAR_TYPES):
        return value
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    raise TypeError(f"{value!r} is not JSON-safe")


# ----------------------------------------------------------------------
# The Experiment protocol and registry
# ----------------------------------------------------------------------


class Experiment(ABC):
    """One paper figure/table as a declarative, orchestrated unit.

    Subclasses set the class attributes and implement the three hooks.
    The base ``run``/``run_result_set`` drive the common lifecycle:
    submit every task group through the orchestration context (process
    pool + on-disk cache), then reduce the outputs.
    """

    #: Registry key and CLI name, e.g. ``"fig12"``.
    name: str = ""
    #: One-line summary shown by ``runner list``.
    description: str = ""
    #: Where in the paper the artifact lives, e.g. ``"Fig. 12"``.
    paper_ref: str = ""
    #: ``ExperimentScale`` field overrides the runner applies by
    #: default so the full suite stays interactive; explicit CLI flags
    #: and ``--full`` win over these.
    quick_overrides: Mapping[str, Any] = {}

    def build_tasks(
        self, scale: "ExperimentScale", orch: OrchestrationContext
    ) -> Sequence[TaskGroup]:
        """Decompose the run into orchestrated task groups (may be empty)."""
        return []

    @abstractmethod
    def reduce(self, scale: "ExperimentScale", outputs: Dict) -> Any:
        """Assemble the rich result object from ``{task.key: result}``."""

    @abstractmethod
    def result_set(self, result: Any) -> ResultSet:
        """Convert the rich result into the structured artifact."""

    # ------------------------------------------------------------------

    def run(
        self,
        scale: Optional["ExperimentScale"] = None,
        orchestration: Optional[OrchestrationContext] = None,
    ) -> Any:
        """Execute the experiment; returns the rich result object.

        All task groups go through one batched submission
        (:meth:`OrchestrationContext.run_groups`): fingerprints scope
        the cache per group, while every cache miss -- across all
        groups, e.g. fig8's one-group-per-module or the per-geometry
        characterization groups under ``--paper-rows`` -- fans out over
        the ``--jobs`` pool together.
        """
        from repro.experiments.common import ExperimentScale

        scale = scale if scale is not None else ExperimentScale()
        orch = orchestration or serial_context()
        outputs = orch.run_groups(list(self.build_tasks(scale, orch)))
        return self.reduce(scale, outputs)

    def run_result_set(
        self,
        scale: Optional["ExperimentScale"] = None,
        orchestration: Optional[OrchestrationContext] = None,
    ) -> ResultSet:
        """Execute and convert; stamps the scale echo into ``meta``."""
        import dataclasses

        from repro.experiments.common import ExperimentScale
        from repro.orchestration import OMIT_IF_NONE

        scale = scale if scale is not None else ExperimentScale()
        result_set = self.result_set(self.run(scale, orchestration))
        # Mirror canonicalize()'s OMIT_IF_NONE rule so optional
        # dimensions (scale.device) never perturb the artifact bytes
        # or displayed scale hash of runs that leave them unset.
        echo = {
            f.name: getattr(scale, f.name)
            for f in dataclasses.fields(scale)
            if not (
                f.metadata.get(OMIT_IF_NONE)
                and getattr(scale, f.name) is None
            )
        }
        result_set.meta.setdefault("scale", json_safe(echo))
        result_set.meta.setdefault("paper_ref", self.paper_ref)
        return result_set


_REGISTRY: Dict[str, Experiment] = {}


def register(cls):
    """Class decorator: instantiate and add to the central registry."""
    instance = cls()
    if not instance.name:
        raise ValueError(f"{cls.__name__} must set a non-empty name")
    existing = _REGISTRY.get(instance.name)
    if existing is not None and type(existing) is not cls:
        raise ValueError(
            f"experiment name {instance.name!r} already registered "
            f"by {type(existing).__name__}"
        )
    _REGISTRY[instance.name] = instance
    return cls


def get_experiment(name: str) -> Experiment:
    load_all()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def all_experiments() -> Dict[str, Experiment]:
    """``{name: experiment}`` for every registered experiment, sorted."""
    load_all()
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}


#: Module-name prefixes that identify harness modules within
#: ``repro.experiments`` (one registered experiment per module).
HARNESS_PREFIXES = ("fig", "table", "ablation", "sec64", "attack")

_LOADED = False


def harness_module_names() -> List[str]:
    """Discover harness modules under :mod:`repro.experiments`."""
    import repro.experiments as pkg

    return sorted(
        f"repro.experiments.{info.name}"
        for info in pkgutil.iter_modules(pkg.__path__)
        if info.name.startswith(HARNESS_PREFIXES)
    )


def load_all() -> None:
    """Import every harness module so its experiment registers."""
    global _LOADED
    if _LOADED:
        return
    for module_name in harness_module_names():
        importlib.import_module(module_name)
    _LOADED = True
