"""A pure-python SVG plotter for declarative :class:`PlotSpec`\\ s.

This module renders the three spec kinds -- ``line``, ``bar``,
``scatter`` -- straight to SVG text with nothing beyond the standard
library, so the HTML paper report (:mod:`repro.experiments.report`)
stays fully self-contained.

Design notes:

* Absent data is not zero: line and scatter runs skip None cells,
  and a category missing from a series draws no bar.
* Error bands: when a spec carries ``ybands`` entries (emitted by the
  seed-matrix aggregation layer), a shaded low--high envelope is
  drawn behind each mean line/point run.
* Colors follow a fixed eight-slot categorical palette (validated
  for adjacent-pair colorblind separation on a light surface); series
  beyond eight reuse the hues with dash patterns as the secondary
  encoding rather than inventing new colors.
* Every mark carries an SVG ``<title>`` child, so hovering in any
  browser shows the exact (series, x, y) values with no JavaScript.
"""

from __future__ import annotations

import math
from html import escape
from typing import List, Optional, Sequence, Tuple

from repro.experiments.api import (
    PlotSpec,
    ResultSet,
    ResultTable,
    format_scalar,
    is_number,
    split_series,
)

__all__ = ["SvgPlotError", "render_plot"]


class SvgPlotError(ValueError):
    """The spec cannot be drawn (missing columns, empty/invalid data)."""


#: Fixed categorical order (light-surface steps; see REPORTS.md).
PALETTE: Tuple[str, ...] = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)

#: Dash patterns cycled when more than eight series share one chart
#: (hue + dash = composite encoding, never new hues).
DASHES: Tuple[Optional[str], ...] = (None, "6 3", "2 3")

_TEXT = "#0b0b0b"
_TEXT_MUTED = "#52514e"
_AXIS = "#b5b4ae"
_GRID = "#ececea"
_SURFACE = "#fcfcfb"

_WIDTH = 640
_HEIGHT = 340
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 52
_LEGEND_WIDTH = 190
_LEGEND_LINE = 16


_is_number = is_number
_fmt = format_scalar


def _tick_label(tick: float, step: float) -> str:
    """Tick text with precision derived from the tick spacing.

    A fixed significant-digit rule would collapse narrow
    high-magnitude domains (e.g. ticks 101234.2 and 101234.4 both as
    "1.012e+05") -- exactly what aggregated mean columns produce.
    ``_nice_ticks`` steps are 1/2/5 x 10^k, so ``ceil(-log10(step))``
    decimals always resolve adjacent ticks.
    """
    if step <= 0 or not math.isfinite(step):
        return _fmt(tick)
    decimals = max(0, math.ceil(-math.log10(step)))
    if decimals == 0:
        return str(int(round(tick)))
    return f"{tick:.{min(decimals, 12)}f}"


def _nice_ticks(lo: float, hi: float, target: int = 5) -> List[float]:
    """Round tick positions covering [lo, hi] on a 1/2/5 grid."""
    if hi <= lo:
        return [lo]
    span = hi - lo
    raw_step = span / max(target - 1, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw_step))
    for factor in (1.0, 2.0, 5.0, 10.0):
        step = factor * magnitude
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    tick = first
    while tick <= hi + step * 1e-9:
        ticks.append(0.0 if abs(tick) < step * 1e-9 else tick)
        tick += step
    return ticks or [lo]


def _log_ticks(lo: float, hi: float) -> List[float]:
    """Decade ticks across [lo, hi]; 1-2-5 mantissas on narrow ranges."""
    decades = range(
        math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1
    )
    ticks = [10.0 ** d for d in decades]
    if len([t for t in ticks if lo <= t <= hi]) < 2:
        ticks = sorted(
            m * 10.0 ** d for d in decades for m in (1.0, 2.0, 5.0)
        )
    return [t for t in ticks if lo * (1 - 1e-9) <= t <= hi * (1 + 1e-9)]


class _Scale:
    """Maps data values onto a pixel interval, linear or log."""

    def __init__(
        self, lo: float, hi: float, px_lo: float, px_hi: float, log: bool
    ) -> None:
        if log:
            if lo <= 0:
                raise SvgPlotError(
                    f"log scale requires positive values, got minimum {lo}"
                )
            lo, hi = math.log10(lo), math.log10(hi)
        if hi <= lo:  # degenerate domain (single distinct value)
            pad = abs(lo) * 0.05 or 0.5
            lo, hi = lo - pad, hi + pad
        self.lo, self.hi, self.px_lo, self.px_hi = lo, hi, px_lo, px_hi
        self.log = log

    def __call__(self, value: float) -> float:
        v = math.log10(value) if self.log else float(value)
        fraction = (v - self.lo) / (self.hi - self.lo)
        return self.px_lo + fraction * (self.px_hi - self.px_lo)

    def domain(self) -> Tuple[float, float]:
        if self.log:
            return (10.0 ** self.lo, 10.0 ** self.hi)
        return (self.lo, self.hi)


_split_series = split_series


def _column_index(table: ResultTable, column: str, spec: PlotSpec) -> int:
    try:
        return table.headers.index(column)
    except ValueError:
        raise SvgPlotError(
            f"plot {spec.name!r}: table {table.name!r} has no column "
            f"{column!r} (headers: {list(table.headers)})"
        ) from None


def _series_label(label: str, y_column: str, spec: PlotSpec) -> str:
    if len(spec.y) == 1:
        return label or y_column
    return f"{label} {y_column}" if label else y_column


def _style(slot: int) -> Tuple[str, Optional[str]]:
    color = PALETTE[slot % len(PALETTE)]
    dash = DASHES[(slot // len(PALETTE)) % len(DASHES)]
    return color, dash


def render_plot(
    result_set: ResultSet,
    spec: PlotSpec,
    *,
    width: int = _WIDTH,
    height: int = _HEIGHT,
) -> str:
    """One PlotSpec as a standalone ``<svg>`` element (a string)."""
    table = result_set.table(spec.table)
    if not table.rows:
        raise SvgPlotError(
            f"plot {spec.name!r}: table {spec.table!r} has no rows"
        )
    if spec.kind == "bar":
        return _BarChart(result_set, spec, table, width, height).render()
    return _XYChart(result_set, spec, table, width, height).render()


class _Chart:
    """Shared frame: surface, title, axes, grid, legend, assembly."""

    def __init__(self, result_set, spec, table, width, height) -> None:
        self.result_set = result_set
        self.spec = spec
        self.table = table
        self.plot_w = width
        self.height = height
        self.left = _MARGIN_LEFT
        self.right = width - _MARGIN_RIGHT
        self.top = _MARGIN_TOP
        self.bottom = height - _MARGIN_BOTTOM
        self.series = _split_series(table, spec)
        self.legend_entries: List[Tuple[str, str, Optional[str]]] = []
        self.body: List[str] = []

    # -- frame pieces --------------------------------------------------

    def _title(self) -> str:
        text = escape(self.spec.title or self.result_set.title)
        return (
            f'<text x="{self.left}" y="18" fill="{_TEXT}" '
            f'font-size="12" font-weight="600">{text}</text>'
        )

    def _axis_labels(self) -> List[str]:
        xlabel = escape(self.spec.xlabel or self.spec.x)
        ylabel = escape(self.spec.ylabel or ", ".join(self.spec.y))
        mid_x = (self.left + self.right) / 2
        mid_y = (self.top + self.bottom) / 2
        return [
            f'<text x="{mid_x:.1f}" y="{self.height - 10}" '
            f'fill="{_TEXT_MUTED}" font-size="11" '
            f'text-anchor="middle">{xlabel}</text>',
            f'<text x="14" y="{mid_y:.1f}" fill="{_TEXT_MUTED}" '
            f'font-size="11" text-anchor="middle" '
            f'transform="rotate(-90 14 {mid_y:.1f})">{ylabel}</text>',
        ]

    def _frame(self) -> str:
        return (
            f'<path d="M {self.left} {self.top} V {self.bottom} '
            f'H {self.right}" fill="none" stroke="{_AXIS}" '
            f'stroke-width="1"/>'
        )

    @staticmethod
    def _labels(ticks: Sequence[float], log: bool) -> List[str]:
        """Step-aware labels for linear ticks, compact for decades."""
        if log or len(ticks) < 2:
            return [_fmt(tick) for tick in ticks]
        step = min(b - a for a, b in zip(ticks, ticks[1:]))
        return [_tick_label(tick, step) for tick in ticks]

    def _y_grid(self, scale: _Scale, ticks: Sequence[float]) -> None:
        for tick, label in zip(ticks, self._labels(ticks, scale.log)):
            py = scale(tick)
            self.body.append(
                f'<line x1="{self.left}" y1="{py:.1f}" '
                f'x2="{self.right}" y2="{py:.1f}" stroke="{_GRID}" '
                f'stroke-width="1"/>'
            )
            self.body.append(
                f'<text x="{self.left - 6}" y="{py + 3.5:.1f}" '
                f'fill="{_TEXT_MUTED}" font-size="10" '
                f'text-anchor="end">{escape(label)}</text>'
            )

    def _x_tick(self, px: float, label: str) -> None:
        self.body.append(
            f'<line x1="{px:.1f}" y1="{self.bottom}" x2="{px:.1f}" '
            f'y2="{self.bottom + 4}" stroke="{_AXIS}" stroke-width="1"/>'
        )
        self.body.append(
            f'<text x="{px:.1f}" y="{self.bottom + 16}" '
            f'fill="{_TEXT_MUTED}" font-size="10" '
            f'text-anchor="middle">{escape(label)}</text>'
        )

    def _legend(self) -> List[str]:
        if len(self.legend_entries) < 2:
            return []
        parts = []
        x = self.plot_w + 8
        y = self.top + 4
        for label, color, dash in self.legend_entries:
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            parts.append(
                f'<line x1="{x}" y1="{y}" x2="{x + 18}" y2="{y}" '
                f'stroke="{color}" stroke-width="3"{dash_attr}/>'
            )
            parts.append(
                f'<text x="{x + 24}" y="{y + 3.5}" fill="{_TEXT}" '
                f'font-size="10">{escape(label)}</text>'
            )
            y += _LEGEND_LINE
        return parts

    def _assemble(self) -> str:
        legend = self._legend()
        total_w = self.plot_w + (_LEGEND_WIDTH if legend else 0)
        needed_h = (
            self.top + 4 + len(self.legend_entries) * _LEGEND_LINE + 8
            if legend
            else 0
        )
        total_h = max(self.height, needed_h)
        pieces = [
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{total_w}" height="{total_h}" '
            f'viewBox="0 0 {total_w} {total_h}" role="img" '
            f'font-family="system-ui, sans-serif">',
            f'<rect width="{total_w}" height="{total_h}" '
            f'fill="{_SURFACE}"/>',
            self._title(),
            *self.body,
            self._frame(),
            *self._axis_labels(),
            *legend,
            "</svg>",
        ]
        return "\n".join(pieces)

    def _tooltip(self, label: str, x_value, y_value) -> str:
        text = escape(
            f"{label + ': ' if label else ''}"
            f"{self.spec.x}={_fmt(x_value)}, {_fmt(y_value)}"
        )
        return f"<title>{text}</title>"


class _XYChart(_Chart):
    """``line`` and ``scatter`` kinds; numeric or categorical x."""

    def render(self) -> str:
        spec, table = self.spec, self.table
        x_index = _column_index(table, spec.x, spec)
        x_values = [row[x_index] for row in table.rows]
        categorical = not all(
            _is_number(v) for v in x_values if v is not None
        )
        if categorical and spec.logx:
            raise SvgPlotError(
                f"plot {spec.name!r}: logx needs a numeric x column"
            )
        categories: List = []
        if categorical:
            for value in x_values:
                # None x cells are skipped by _collect_runs; giving
                # them a tick would draw a phantom empty category.
                if value is not None and value not in categories:
                    categories.append(value)

        runs = self._collect_runs(x_index, categories)
        if not any(points for _, _, points, _ in runs):
            raise SvgPlotError(
                f"plot {spec.name!r}: no drawable points (all cells None?)"
            )

        x_scale, y_scale = self._scales(runs, categorical, categories)
        y_ticks = (
            _log_ticks(*y_scale.domain())
            if spec.logy
            else _nice_ticks(*y_scale.domain())
        )
        self._y_grid(y_scale, y_ticks)
        if categorical:
            for position, category in enumerate(categories):
                self._x_tick(x_scale(position), _fmt(category))
        else:
            lo, hi = x_scale.domain()
            ticks = _log_ticks(lo, hi) if spec.logx else _nice_ticks(lo, hi)
            for tick, label in zip(ticks, self._labels(ticks, spec.logx)):
                self._x_tick(x_scale(tick), label)

        for slot, (label, y_column, points, band) in enumerate(runs):
            color, dash = _style(slot)
            self.legend_entries.append((label, color, dash))
            self._draw_band(band, x_scale, y_scale, color)
            self._draw_run(label, points, x_scale, y_scale, color, dash)
        return self._assemble()

    # ------------------------------------------------------------------

    def _collect_runs(self, x_index: int, categories: List):
        """``(label, y_column, [(x, y, raw_x)], [(x, lo, hi)])`` per run."""
        spec, table = self.spec, self.table
        runs = []
        for label, rows in self.series.items():
            for y_column in spec.y:
                y_index = _column_index(table, y_column, spec)
                band_columns = spec.band_for(y_column)
                points, band = [], []
                for row in rows:
                    raw_x, y = row[x_index], row[y_index]
                    if raw_x is None or y is None:
                        continue  # missing data points, not zeros
                    if not _is_number(y):
                        raise SvgPlotError(
                            f"plot {spec.name!r}: non-numeric y value "
                            f"{y!r} in column {y_column!r}"
                        )
                    x = categories.index(raw_x) if categories else raw_x
                    points.append((x, y, raw_x))
                    if band_columns is not None:
                        low = row[_column_index(table, band_columns[0], spec)]
                        high = row[_column_index(table, band_columns[1], spec)]
                        if low is not None and high is not None:
                            band.append((x, low, high))
                runs.append(
                    (_series_label(label, y_column, spec), y_column,
                     points, band)
                )
        return runs

    def _scales(self, runs, categorical, categories):
        spec = self.spec
        ys = [y for _, _, points, _ in runs for _, y, _ in points]
        ys += [v for _, _, _, band in runs for _, lo, hi in band
               for v in (lo, hi)]
        if categorical:
            x_scale = _Scale(
                -0.5, len(categories) - 0.5, self.left, self.right, False
            )
        else:
            xs = [x for _, _, points, _ in runs for x, _, _ in points]
            x_scale = _Scale(
                min(xs), max(xs), self.left, self.right, spec.logx
            )
        y_scale = _Scale(
            min(ys), max(ys), self.bottom, self.top, spec.logy
        )
        return x_scale, y_scale

    def _draw_band(self, band, x_scale, y_scale, color) -> None:
        if len(band) < 2:
            return
        upper = [(x_scale(x), y_scale(hi)) for x, _, hi in band]
        lower = [(x_scale(x), y_scale(lo)) for x, lo, _ in reversed(band)]
        points = " ".join(f"{px:.1f},{py:.1f}" for px, py in upper + lower)
        self.body.append(
            f'<polygon points="{points}" fill="{color}" '
            f'fill-opacity="0.14" stroke="none"/>'
        )

    def _draw_run(self, label, points, x_scale, y_scale, color, dash):
        if not points:
            return
        coordinates = [
            (x_scale(x), y_scale(y), raw_x, y) for x, y, raw_x in points
        ]
        if self.spec.kind == "line" and len(coordinates) > 1:
            path = " ".join(
                f"{px:.1f},{py:.1f}" for px, py, _, _ in coordinates
            )
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            self.body.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                f'stroke-width="2" stroke-linejoin="round"{dash_attr}/>'
            )
        radius = 3 if self.spec.kind == "line" else 4
        for px, py, raw_x, y in coordinates:
            self.body.append(
                f'<circle cx="{px:.1f}" cy="{py:.1f}" r="{radius}" '
                f'fill="{color}" stroke="{_SURFACE}" stroke-width="1">'
                f"{self._tooltip(label, raw_x, y)}</circle>"
            )


class _BarChart(_Chart):
    """Grouped bars: categories on x, one bar group per series/y."""

    def render(self) -> str:
        spec, table = self.spec, self.table
        x_index = _column_index(table, spec.x, spec)
        categories: List = []
        for rows in self.series.values():
            for row in rows:
                if row[x_index] is not None and row[x_index] not in categories:
                    categories.append(row[x_index])

        groups = []  # (label, y_column, {category: row})
        for label, rows in self.series.items():
            for y_column in spec.y:
                y_index = _column_index(table, y_column, spec)
                by_category = {
                    row[x_index]: row
                    for row in rows
                    if row[x_index] is not None
                    and row[y_index] is not None
                }
                groups.append(
                    (_series_label(label, y_column, spec), y_column,
                     by_category)
                )
        values = [
            row[_column_index(table, y_column, spec)]
            for _, y_column, by in groups
            for row in by.values()
        ]
        # Whisker endpoints must fit inside the scale domain too.
        for _, y_column, by in groups:
            band_columns = spec.band_for(y_column)
            if band_columns is None:
                continue
            values += [
                row[_column_index(table, column, spec)]
                for row in by.values()
                for column in band_columns
                if row[_column_index(table, column, spec)] is not None
            ]
        if not values:
            raise SvgPlotError(
                f"plot {spec.name!r}: no drawable bars (all cells None?)"
            )
        for value in values:
            if not _is_number(value):
                raise SvgPlotError(
                    f"plot {spec.name!r}: non-numeric bar value {value!r}"
                )

        if spec.logy:
            # Log bars have no zero: anchor them at the axis floor,
            # half a decade below the smallest value.
            if min(values) <= 0:
                raise SvgPlotError(
                    f"plot {spec.name!r}: logy bars need positive values"
                )
            y_scale = _Scale(
                min(values) / math.sqrt(10.0), max(values),
                self.bottom, self.top, True,
            )
            y_ticks = _log_ticks(*y_scale.domain())
        else:
            y_scale = _Scale(
                min(0.0, min(values)), max(0.0, max(values)),
                self.bottom, self.top, False,
            )
            y_ticks = _nice_ticks(*y_scale.domain())
        self._y_grid(y_scale, y_ticks)

        slot_width = (self.right - self.left) / max(len(categories), 1)
        bar_width = max(
            (slot_width * 0.8 - 2 * (len(groups) - 1)) / max(len(groups), 1),
            2.0,
        )
        baseline = self.bottom if spec.logy else y_scale(0.0)
        for slot, (label, y_column, by_category) in enumerate(groups):
            color, _ = _style(slot)
            self.legend_entries.append((label, color, None))
            y_index = _column_index(table, y_column, spec)
            band_columns = spec.band_for(y_column)
            for position, category in enumerate(categories):
                row = by_category.get(category)
                if row is None:
                    continue  # absent category: no bar, not a zero bar
                value = row[y_index]
                group_left = (
                    self.left + position * slot_width + slot_width * 0.1
                )
                px = group_left + slot * (bar_width + 2)
                py = y_scale(value)
                top, bottom = min(py, baseline), max(py, baseline)
                bar_height = max(bottom - top, 1.0)
                self.body.append(
                    f'<rect x="{px:.1f}" y="{top:.1f}" '
                    f'width="{bar_width:.1f}" height="{bar_height:.1f}" '
                    f'rx="2" fill="{color}">'
                    f"{self._tooltip(label, category, value)}</rect>"
                )
                self._whisker(row, band_columns, px + bar_width / 2,
                              y_scale)
        for position, category in enumerate(categories):
            self._x_tick(
                self.left + (position + 0.5) * slot_width, _fmt(category)
            )
        return self._assemble()

    def _whisker(self, row, band_columns, px, y_scale) -> None:
        """A low--high error whisker at one bar's center."""
        if band_columns is None:
            return
        low = row[_column_index(self.table, band_columns[0], self.spec)]
        high = row[_column_index(self.table, band_columns[1], self.spec)]
        if low is None or high is None or low == high:
            return
        y_low, y_high = y_scale(low), y_scale(high)
        for py in (y_low, y_high):
            self.body.append(
                f'<line x1="{px - 3:.1f}" y1="{py:.1f}" '
                f'x2="{px + 3:.1f}" y2="{py:.1f}" stroke="{_TEXT}" '
                f'stroke-width="1.5"/>'
            )
        self.body.append(
            f'<line x1="{px:.1f}" y1="{y_low:.1f}" x2="{px:.1f}" '
            f'y2="{y_high:.1f}" stroke="{_TEXT}" stroke-width="1.5"/>'
        )
