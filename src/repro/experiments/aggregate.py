"""Multi-seed aggregation of ResultSet artifacts.

A recipe run over a seed matrix leaves one artifact tree per seed
(``<out>/seed0/fig12.json``, ``<out>/seed1/fig12.json``, ...; see
EXPERIMENTS.md).  This module turns those per-seed ResultSets into
**one** ResultSet with variance statistics:

* tables are aligned row-by-row across seeds; every numeric column
  whose values differ between seeds is replaced by four columns --
  ``<name>_mean``, ``<name>_stddev`` (population), ``<name>_min``,
  ``<name>_max`` -- while identical columns (keys and axes such as
  ``defense`` or ``hc_first``) pass through unchanged;
* scalars aggregate the same way (``n_mixes`` stays a plain number,
  a seed-dependent headline becomes ``<name>_mean`` etc.);
* every PlotSpec is rewritten to plot the mean column and gains a
  ``ybands`` min--max envelope, which the SVG plotter shades behind
  the mean line;
* the layout is regenerated generically (aggregated artifacts get
  uniform stats tables rather than each harness's bespoke text), so
  the existing text/CSV/LaTeX renderers all show the stats columns.

Because the output is an ordinary :class:`ResultSet`, everything
downstream -- ``--format text|csv|latex|html``, the HTML report, the
JSON round-trip -- works on aggregates with no special cases.

The entry points are :meth:`ResultSetAggregate.from_result_sets` (in
memory, used by ``recipe run --report``) and
:func:`collect_report_sections` (walks an artifact tree on disk, used
by ``runner report``).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.api import (
    PlotSpec,
    ResultSet,
    ResultTable,
    TableBlock,
    TextBlock,
    format_scalar,
    is_number,
)

__all__ = [
    "AggregationError",
    "ResultSetAggregate",
    "collect_report_sections",
    "discover_result_sets",
]

#: The four statistics appended per aggregated column, in order.
STAT_SUFFIXES = ("mean", "stddev", "min", "max")

#: Path components recognized as seed partitions of a recipe tree.
_SEED_DIR = re.compile(r"^seed(-?\d+)$")


class AggregationError(ValueError):
    """Artifacts cannot be aligned (user-facing, one-line)."""


_is_number = is_number


def _stats(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """(mean, population stddev, min, max) of the non-None samples."""
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return (mean, math.sqrt(variance), min(values), max(values))


@dataclass(frozen=True)
class ResultSetAggregate:
    """One experiment's ResultSets across a seed matrix, aligned.

    ``members`` are ordered by seed; ``seeds`` is parallel to it
    (``None`` when a member's seed could not be determined).
    """

    experiment: str
    members: Tuple[ResultSet, ...]
    seeds: Tuple[Optional[int], ...]

    @classmethod
    def from_result_sets(
        cls,
        members: Sequence[ResultSet],
        seeds: Optional[Sequence[Optional[int]]] = None,
    ) -> "ResultSetAggregate":
        members = tuple(members)
        if not members:
            raise AggregationError("nothing to aggregate")
        names = {m.experiment for m in members}
        if len(names) != 1:
            raise AggregationError(
                f"cannot aggregate across experiments: {sorted(names)}"
            )
        if seeds is None:
            seeds = [_member_seed(m) for m in members]
        seeds = tuple(seeds)
        if len(seeds) != len(members):
            raise AggregationError("seeds and members differ in length")
        order = sorted(
            range(len(members)),
            key=lambda i: (seeds[i] is None, seeds[i]),
        )
        return cls(
            experiment=members[0].experiment,
            members=tuple(members[i] for i in order),
            seeds=tuple(seeds[i] for i in order),
        )

    # ------------------------------------------------------------------

    def to_result_set(self) -> ResultSet:
        """The aggregated artifact (see the module docstring)."""
        first = self.members[0]
        reference_names = tuple(t.name for t in first.tables)
        for member, seed in zip(self.members[1:], self.seeds[1:]):
            names = tuple(t.name for t in member.tables)
            if names != reference_names:
                # Keying alignment on the first member alone would
                # silently drop tables the first seed lacks.
                raise AggregationError(
                    f"{self.experiment}: table sets differ across "
                    f"seeds: {reference_names} vs {names} (seed "
                    f"{seed}); artifacts come from different code "
                    "versions"
                )
        # Align (and validate) each table across seeds exactly once.
        aligned = {
            table.name: self._aligned_tables(table.name)
            for table in first.tables
        }
        varying = self._varying_columns(aligned)
        tables = tuple(
            self._aggregate_table(name, aligned[name], varying[name])
            for name in aligned
        )
        aggregated = {
            (table_name, column)
            for table_name, columns in varying.items()
            for column in columns
        }
        scalars = self._aggregate_scalars()
        plots = tuple(
            self._rewrite_plot(plot, aggregated) for plot in first.plots
        )
        result = ResultSet(
            experiment=self.experiment,
            title=first.title,
            scalars=scalars,
            tables=tables,
            plots=tuple(p for p in plots if p is not None),
            meta=self._merge_meta(),
        )
        result.layout = _generic_layout(result, len(self.members))
        return result

    # ------------------------------------------------------------------
    # Table alignment
    # ------------------------------------------------------------------

    def _aligned_tables(self, name: str) -> List[ResultTable]:
        tables = []
        for member, seed in zip(self.members, self.seeds):
            try:
                tables.append(member.table(name))
            except KeyError:
                raise AggregationError(
                    f"{self.experiment}: seed {seed} artifact has no "
                    f"table {name!r}"
                ) from None
        reference = tables[0]
        for table, seed in zip(tables[1:], self.seeds[1:]):
            if table.headers != reference.headers:
                raise AggregationError(
                    f"{self.experiment}.{name}: headers differ across "
                    f"seeds: {reference.headers} vs {table.headers} "
                    f"(seed {seed})"
                )
            if len(table.rows) != len(reference.rows):
                raise AggregationError(
                    f"{self.experiment}.{name}: row counts differ "
                    f"across seeds ({len(reference.rows)} vs "
                    f"{len(table.rows)}, seed {seed}); artifacts were "
                    "produced at different scales"
                )
        return tables

    def _varying_columns(
        self, aligned: Dict[str, List[ResultTable]]
    ) -> Dict[str, List[str]]:
        """``{table: [column, ...]}`` of seed-dependent columns."""
        varying: Dict[str, List[str]] = {}
        for name, tables in aligned.items():
            columns = []
            for index, header in enumerate(tables[0].headers):
                cells = [
                    (row[index] for row in member.rows)
                    for member in tables
                ]
                if any(len(set(values)) > 1 for values in zip(*cells)):
                    columns.append(header)
            varying[name] = columns
        return varying

    def _aggregate_table(
        self,
        name: str,
        aligned: List[ResultTable],
        varying_columns: Sequence[str],
    ) -> ResultTable:
        reference = aligned[0]
        varying = set(varying_columns)

        headers: List[str] = []
        for header in reference.headers:
            if header in varying:
                headers.extend(
                    f"{header}_{suffix}" for suffix in STAT_SUFFIXES
                )
            else:
                headers.append(header)

        rows = []
        for row_index in range(len(reference.rows)):
            row: List = []
            for column_index, header in enumerate(reference.headers):
                values = [
                    member.rows[row_index][column_index]
                    for member in aligned
                ]
                if header not in varying:
                    row.append(values[0])
                    continue
                samples = [v for v in values if v is not None]
                if not all(_is_number(v) for v in samples):
                    if len(set(values)) == 1:
                        # A constant non-numeric cell inside a column
                        # that varies in *other* rows (e.g. an "n/a"
                        # sentinel): it aligns fine, it just has no
                        # spread -- carry it in the mean slot.
                        row.extend((values[0], None, None, None))
                        continue
                    raise AggregationError(
                        f"{self.experiment}.{name}: column {header!r} "
                        f"differs across seeds but is not numeric "
                        f"(row {row_index}: {values!r}); artifacts do "
                        "not align"
                    )
                row.extend(_stats(samples) if samples else (None,) * 4)
            rows.append(tuple(row))
        return ResultTable(
            name=name, headers=tuple(headers), rows=tuple(rows)
        )

    # ------------------------------------------------------------------
    # Scalars, plots, meta
    # ------------------------------------------------------------------

    def _aggregate_scalars(self) -> Dict[str, Any]:
        keys = {frozenset(m.scalars) for m in self.members}
        if len(keys) != 1:
            names = sorted(set.union(*(set(k) for k in keys)))
            raise AggregationError(
                f"{self.experiment}: scalar keys differ across seeds "
                f"(union: {names})"
            )
        scalars: Dict[str, Any] = {}
        for key in self.members[0].scalars:
            values = [m.scalars[key] for m in self.members]
            if len(set(values)) == 1:
                scalars[key] = values[0]
                continue
            samples = [v for v in values if v is not None]
            if not all(_is_number(v) for v in samples):
                raise AggregationError(
                    f"{self.experiment}: scalar {key!r} differs across "
                    f"seeds but is not numeric: {values!r}"
                )
            stats = _stats(samples) if samples else (None,) * 4
            for suffix, value in zip(STAT_SUFFIXES, stats):
                scalars[f"{key}_{suffix}"] = value
        return scalars

    def _rewrite_plot(
        self, plot: PlotSpec, aggregated: set
    ) -> Optional[PlotSpec]:
        """Point the spec at mean columns; attach min--max bands."""
        if (plot.table, plot.x) in aggregated:
            # The x axis itself is seed-dependent (no stable domain to
            # plot against); drop the chart rather than draw nonsense.
            return None
        series = plot.series
        if series is not None and (plot.table, series) in aggregated:
            series = None
        ys, ybands = [], []
        for y in plot.y:
            if (plot.table, y) in aggregated:
                ys.append(f"{y}_mean")
                ybands.append((f"{y}_mean", f"{y}_min", f"{y}_max"))
            else:
                ys.append(y)
        return replace(
            plot, y=tuple(ys), series=series, ybands=tuple(ybands)
        )

    def _merge_meta(self) -> Dict[str, Any]:
        merged = _merge_values([m.meta for m in self.members])
        if not isinstance(merged, dict):
            merged = {"per_seed": merged}
        # _merge_values returns the first member's dict *itself* when
        # all metas are equal; copy before stamping or the input
        # ResultSet grows aggregate provenance.
        merged = dict(merged)
        merged["aggregate"] = {
            "n_seeds": len(self.members),
            "seeds": list(self.seeds),
            "stddev": "population",
        }
        return merged


def _merge_values(values: List[Any]) -> Any:
    """Collapse equal values; merge dicts per key; list the rest."""
    if all(value == values[0] for value in values[1:]):
        return values[0]
    if all(isinstance(value, dict) for value in values):
        keys: List[str] = []
        for value in values:
            keys.extend(k for k in value if k not in keys)
        return {
            key: _merge_values([value.get(key) for value in values])
            for key in keys
        }
    return list(values)


def _member_seed(member: ResultSet) -> Optional[int]:
    for path in (("recipe", "seed"), ("scale", "seed")):
        value: Any = member.meta
        for key in path:
            value = value.get(key) if isinstance(value, dict) else None
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    return None


_display = format_scalar


def _generic_layout(result: ResultSet, n_seeds: int) -> tuple:
    """A uniform presentation program for an aggregated artifact."""
    blocks: List = [
        TextBlock(
            f"{result.title}\n"
            f"(aggregated over {n_seeds} seed"
            f"{'s' if n_seeds != 1 else ''}; stddev is population)\n"
        )
    ]
    if result.scalars:
        blocks.append(TextBlock("\nscalars:\n"))
        blocks.append(TableBlock(
            headers=("scalar", "value"),
            rows=[
                (key, _display(value))
                for key, value in sorted(result.scalars.items())
            ],
        ))
    for table in result.tables:
        blocks.append(TextBlock(f"\n{table.name}:\n"))
        blocks.append(TableBlock(
            headers=table.headers,
            rows=[
                tuple(_display(cell) for cell in row)
                for row in table.rows
            ],
        ))
    return tuple(blocks)


# ----------------------------------------------------------------------
# Artifact-tree discovery
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArtifactRef:
    """One ResultSet JSON artifact found under a report root."""

    path: Path
    result_set: ResultSet
    #: Seed parsed from the first ``seed<N>`` path component, falling
    #: back to the artifact's own meta; ``None`` when neither exists.
    seed: Optional[int]
    #: Grouping key: the relative path with seed components masked,
    #: so ``seed0/fig12.json`` and ``seed1/fig12.json`` aggregate
    #: while equal-named artifacts under unrelated parents do not.
    group: Tuple[str, ...]


def _load_result_set(path: Path) -> Optional[ResultSet]:
    """The artifact at ``path``; None for *valid* non-ResultSet JSON.

    Unreadable/corrupt JSON, and JSON that looks like a ResultSet but
    fails to deserialize, raise :class:`AggregationError` -- silently
    skipping a truncated seed artifact would render a "multi-seed"
    report that quietly lost a seed (no stddev, no warning).  Other
    well-formed JSON (recipe manifests, bench output) skips silently.
    """
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
        raise AggregationError(
            f"cannot read {path}: {error} (corrupt artifact? remove "
            "or regenerate it, or point `runner report` elsewhere)"
        )
    if not isinstance(data, dict):
        return None
    if "experiment" not in data or "title" not in data:
        return None  # a recipe manifest, bench output, ... -- skip
    try:
        return ResultSet.from_json_dict(data)
    except (KeyError, TypeError, ValueError) as error:
        raise AggregationError(
            f"{path} looks like a ResultSet artifact but does not "
            f"deserialize: {error}"
        )


def discover_result_sets(root: Path) -> List[ArtifactRef]:
    """Every ResultSet JSON under ``root`` (or ``root`` itself)."""
    root = Path(root)
    paths = (
        [root] if root.is_file() else sorted(root.rglob("*.json"))
    )
    refs = []
    for path in paths:
        result_set = _load_result_set(path)
        if result_set is None:
            continue
        relative = (
            path.relative_to(root).parts if path != root else (path.name,)
        )
        seed = None
        group = []
        for part in relative:
            match = _SEED_DIR.match(part)
            if match and seed is None:
                seed = int(match.group(1))
                group.append("<seed>")
            else:
                group.append(part)
        if seed is None:
            seed = _member_seed(result_set)
        refs.append(ArtifactRef(
            path=path,
            result_set=result_set,
            seed=seed,
            group=tuple(group),
        ))
    return refs


def collect_report_sections(
    root: Path, *, aggregate: bool = True
) -> List[ResultSet]:
    """Report-ready sections for an artifact tree.

    Artifacts that share a group (same place in the tree, seed
    directories masked) are aggregated into one section when
    ``aggregate`` is on; everything else passes through unchanged, in
    path order.
    """
    refs = discover_result_sets(root)
    groups: Dict[Tuple[str, ...], List[ArtifactRef]] = {}
    for ref in refs:
        groups.setdefault(ref.group, []).append(ref)
    sections = []
    for members in groups.values():
        if aggregate and len(members) > 1:
            sections.append(ResultSetAggregate.from_result_sets(
                [m.result_set for m in members],
                [m.seed for m in members],
            ).to_result_set())
        else:
            sections.extend(m.result_set for m in members)
    return sections
