"""The self-contained HTML paper report.

:func:`build_report` stitches any number of ResultSets -- a single
run, a whole recipe artifact tree, or a multi-seed aggregate -- into
**one** HTML page: a table of contents, per-experiment sections with
scalar summary cards, the layout-aware presentation tables, inline
SVG charts rendered from the declarative PlotSpecs (pure python; see
:mod:`repro.experiments.svgplot`), and a provenance line per section
(recipe name/version, seeds, scale fingerprint, backend, cache hit
stats, and -- when the sweep stamped per-task timings -- a one-line
profile summary).

The page is **self-contained by construction**: one file, all CSS in
a ``<style>`` block, charts as inline SVG, no scripts, no external
URLs.  ``make report-smoke`` asserts these properties against
html.parser.

Entry points::

    runner report <artifact-dir> --out report.html   # stitch a tree
    runner recipe run NAME --out DIR --report        # + report.html
    runner run fig12 --format html                   # single page

See REPORTS.md for the pipeline walkthrough.
"""

from __future__ import annotations

from html import escape
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.api import (
    PlotSpec,
    ResultSet,
    TableBlock,
    TextBlock,
    format_scalar,
)
from repro.experiments.svgplot import render_plot
from repro.orchestration.hashing import stable_hash

__all__ = ["build_report"]

_CSS = """\
:root { color-scheme: light; }
body {
  margin: 0; background: #f4f3f1; color: #0b0b0b;
  font: 15px/1.5 system-ui, sans-serif;
}
main { max-width: 980px; margin: 0 auto; padding: 24px 20px 64px; }
header.page h1 { font-size: 24px; margin: 8px 0 4px; }
header.page p.sub { color: #52514e; margin: 0 0 16px; }
nav.toc {
  background: #fcfcfb; border: 1px solid #e3e2de; border-radius: 8px;
  padding: 12px 16px; margin-bottom: 24px;
}
nav.toc ol { margin: 4px 0 0; padding-left: 22px; }
nav.toc a { color: #1c5cab; text-decoration: none; }
nav.toc a:hover { text-decoration: underline; }
section.experiment {
  background: #fcfcfb; border: 1px solid #e3e2de; border-radius: 8px;
  padding: 20px 24px; margin-bottom: 24px;
}
section.experiment h2 { font-size: 19px; margin: 0 0 2px; }
.chips { margin: 0 0 10px; }
.chip {
  display: inline-block; font-size: 12px; color: #52514e;
  background: #f0efec; border-radius: 999px; padding: 1px 10px;
  margin-right: 6px;
}
dl.provenance {
  display: grid; grid-template-columns: max-content 1fr;
  gap: 2px 14px; font-size: 12.5px; color: #52514e;
  border-left: 3px solid #e3e2de; padding-left: 12px; margin: 10px 0;
}
dl.provenance dt { font-weight: 600; }
dl.provenance dd { margin: 0; font-family: ui-monospace, monospace; }
.cards { display: flex; flex-wrap: wrap; gap: 10px; margin: 14px 0; }
.card {
  background: #f7f6f4; border: 1px solid #e9e8e4; border-radius: 8px;
  padding: 8px 14px; min-width: 110px;
}
.card .value {
  font-size: 19px; font-weight: 650; font-variant-numeric: tabular-nums;
}
.card .label { font-size: 11.5px; color: #52514e; }
table.result {
  border-collapse: collapse; font-size: 13px; margin: 12px 0;
  font-variant-numeric: tabular-nums;
}
table.result caption {
  caption-side: top; text-align: left; font-size: 12px;
  color: #52514e; padding-bottom: 4px;
}
table.result th {
  text-align: left; border-bottom: 2px solid #d8d7d2;
  padding: 3px 12px 3px 0; font-weight: 600;
}
table.result td {
  border-bottom: 1px solid #ececea; padding: 3px 12px 3px 0;
}
table.result tr:hover td { background: #f0efec; }
pre.note {
  font: 12.5px/1.45 ui-monospace, monospace; color: #0b0b0b;
  white-space: pre-wrap; margin: 10px 0;
}
figure.plot { margin: 16px 0; overflow-x: auto; }
figure.plot figcaption { font-size: 12px; color: #52514e; }
p.plot-error { color: #9d3c00; font-size: 13px; }
footer { color: #52514e; font-size: 12.5px; text-align: center; }
"""


# ----------------------------------------------------------------------
# Charts
# ----------------------------------------------------------------------


def _plot_html(result_set: ResultSet, spec: PlotSpec) -> str:
    """One chart as a ``<figure>`` of inline SVG; never raises.

    A spec the SVG plotter refuses becomes an error paragraph, so one
    bad chart cannot sink the whole page.
    """
    caption = escape(spec.title or f"{result_set.experiment}:{spec.name}")
    try:
        body = render_plot(result_set, spec)
    except Exception as error:  # noqa: BLE001 -- degrade, never raise
        return (
            f'<p class="plot-error">plot {escape(spec.name)!s} could not '
            f"be rendered ({escape(str(error))})</p>"
        )
    return (
        f'<figure class="plot">{body}'
        f"<figcaption>{caption}</figcaption></figure>"
    )


# ----------------------------------------------------------------------
# Section pieces
# ----------------------------------------------------------------------


_format_value = format_scalar


def _format_merged(value: Any) -> str:
    """A provenance value that may be a per-seed list after aggregation.

    ``aggregate._merge_values`` turns seed-dependent provenance fields
    into per-seed lists (e.g. cache hits ``[0, 4]``); render counts as
    ``0+4`` and anything else joined, never a Python list repr.
    """
    if isinstance(value, list):
        if all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in value):
            return "+".join(_format_value(v) for v in value)
        parts = []
        for v in value:
            if _format_value(v) not in parts:
                parts.append(_format_value(v))
        return ", ".join(parts)
    return _format_value(value)


def _format_worker_count(count: Any) -> str:
    """A worker's result count, possibly per-seed after aggregation.

    A worker that computed results for only some seeds merges into a
    list with ``None`` holes (``[5, None]``); render those as 0 so the
    row keeps the ``N+M`` per-seed convention (``×5+0``) instead of
    leaking a comma into the comma-separated worker list.
    """
    if isinstance(count, list):
        return "+".join(
            "0" if value is None else _format_value(value)
            for value in count
        )
    return _format_value(count)


def _format_profile_number(value: Any, spec: str, scale: float = 1.0) -> str:
    """A profile leaf that may be a per-seed list after aggregation.

    ``aggregate._merge_values`` merges the per-seed profile dicts key
    by key, so any leaf can be a scalar, a per-seed list, or carry
    ``None`` holes (a seed run entirely from cache stamps nothing);
    render lists with the ``N+M`` per-seed convention.
    """
    if isinstance(value, list):
        return "+".join(
            _format_profile_number(v, spec, scale) for v in value
        )
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return "?"
    return format(value * scale, spec)


def _format_profile(profile: Any) -> str:
    """One compact line for a provenance profile summary.

    ``profile`` is :func:`repro.orchestration.status.summarize_profiles`
    output -- or, after seed aggregation, the key-wise merge of those
    (or a per-seed list, when some seeds lack the key entirely).
    """
    if isinstance(profile, list):
        return "; ".join(
            _format_profile(member)
            for member in profile
            if isinstance(member, dict)
        )
    parts = [f"{_format_merged(profile.get('tasks'))} tasks"]
    run = profile.get("run_s")
    if isinstance(run, dict):
        parts.append(
            f"run p50 {_format_profile_number(run.get('p50'), '.3f')}s "
            f"p95 {_format_profile_number(run.get('p95'), '.3f')}s"
        )
    share = profile.get("overhead_share")
    if share is not None:
        parts.append(
            f"overhead {_format_profile_number(share, '.1f', 100.0)}%"
        )
    chunk = profile.get("chunk_size")
    if isinstance(chunk, dict):
        parts.append(
            f"chunk mean {_format_profile_number(chunk.get('mean'), '.1f')}"
        )
    return ", ".join(parts)


def _provenance(result_set: ResultSet) -> List[tuple]:
    """Ordered (label, value) rows for the section provenance block."""
    meta = result_set.meta
    rows: List[tuple] = []
    recipe = meta.get("recipe")
    if isinstance(recipe, dict):
        rows.append((
            "recipe",
            f"{recipe.get('name')} v{recipe.get('version')}"
            + (" (smoke)" if recipe.get("smoke") else ""),
        ))
    aggregate = meta.get("aggregate")
    if isinstance(aggregate, dict):
        seeds = ", ".join(str(s) for s in aggregate.get("seeds", []))
        rows.append((
            "seeds",
            f"{seeds} ({aggregate.get('n_seeds')} seeds, "
            f"{aggregate.get('stddev')} stddev)",
        ))
    scale = meta.get("scale")
    if isinstance(scale, dict):
        if not isinstance(aggregate, dict):
            rows.append(("seed", _format_value(scale.get("seed"))))
        rows.append(("scale", stable_hash(scale)[:12]))
        # Only device-axis cells carry the key (OMIT_IF_NONE leaves it
        # out of DDR4-default scale echoes), so plain DDR4 reports --
        # and their golden structure -- are unchanged.
        device = scale.get("device")
        if device:
            rows.append(("device", _format_value(device)))
    provenance = meta.get("provenance")
    if isinstance(provenance, dict):
        backend = provenance.get("backend")
        if backend is not None:
            rows.append(("backend", _format_merged(backend)))
        tasks = provenance.get("tasks")
        if isinstance(tasks, dict):
            rows.append((
                "tasks",
                f"{_format_merged(tasks.get('submitted'))} submitted / "
                f"{_format_merged(tasks.get('cache_hits'))} cache hits / "
                f"{_format_merged(tasks.get('executed'))} executed",
            ))
        workers = provenance.get("workers")
        if isinstance(workers, list):
            # Some seed members lack the workers key entirely (older
            # artifacts, --no-cache runs), so _merge_values left a
            # per-seed list of dict-or-None; refold it into one dict
            # of per-seed count lists rather than dropping the
            # attribution the other seeds do carry.
            members = workers
            names: List[str] = []
            for member in members:
                if isinstance(member, dict):
                    names.extend(w for w in member if w not in names)
            workers = {
                worker: [
                    member.get(worker) if isinstance(member, dict) else None
                    for member in members
                ]
                for worker in names
            }
        if isinstance(workers, dict) and workers:
            rows.append(("workers", ", ".join(
                f"{worker} ×{_format_worker_count(count)}"
                for worker, count in sorted(workers.items())
            )))
        profile = provenance.get("profile")
        if isinstance(profile, (dict, list)):
            formatted = _format_profile(profile)
            if formatted:
                rows.append(("profile", formatted))
        if provenance.get("cache_dir") is not None:
            rows.append(("cache", _format_merged(provenance["cache_dir"])))
    return rows


def _scalar_cards(result_set: ResultSet) -> str:
    if not result_set.scalars:
        return ""
    cards = "".join(
        f'<div class="card"><div class="value">'
        f"{escape(_format_value(value))}</div>"
        f'<div class="label">{escape(key)}</div></div>'
        for key, value in sorted(result_set.scalars.items())
    )
    return f'<div class="cards">{cards}</div>'


def _table_html(block: TableBlock, caption: Optional[str] = None) -> str:
    caption_html = (
        f"<caption>{escape(caption)}</caption>" if caption else ""
    )
    head = "".join(f"<th>{escape(h)}</th>" for h in block.headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{escape(c)}</td>" for c in row) + "</tr>"
        for row in block.rows
    )
    return (
        f'<table class="result">{caption_html}'
        f"<thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"
    )


def _layout_html(result_set: ResultSet) -> str:
    parts = []
    for block in result_set.layout:
        if isinstance(block, TextBlock):
            text = block.text.strip("\n")
            if text:
                parts.append(f'<pre class="note">{escape(text)}</pre>')
        else:
            parts.append(_table_html(block))
    if not parts:
        # No presentation program (e.g. a hand-built or stripped
        # artifact): fall back to the typed tables.
        parts = [
            _table_html(
                TableBlock(
                    headers=table.headers,
                    rows=[
                        tuple(_format_value(cell) for cell in row)
                        for row in table.rows
                    ],
                ),
                caption=table.name,
            )
            for table in result_set.tables
        ]
    return "".join(parts)


def _section(result_set: ResultSet, anchor: str) -> str:
    chips = []
    paper_ref = result_set.meta.get("paper_ref")
    if paper_ref:
        chips.append(paper_ref)
    chips.append(result_set.experiment)
    if isinstance(result_set.meta.get("aggregate"), dict):
        n = result_set.meta["aggregate"].get("n_seeds")
        chips.append(f"aggregated x{n}")
    chips_html = "".join(
        f'<span class="chip">{escape(str(chip))}</span>' for chip in chips
    )
    provenance = _provenance(result_set)
    provenance_html = (
        '<dl class="provenance">'
        + "".join(
            f"<dt>{escape(label)}</dt><dd>{escape(str(value))}</dd>"
            for label, value in provenance
        )
        + "</dl>"
        if provenance
        else ""
    )
    plots = "".join(_plot_html(result_set, spec) for spec in result_set.plots)
    return (
        f'<section class="experiment" id="{escape(anchor)}">'
        f"<h2>{escape(result_set.title)}</h2>"
        f'<div class="chips">{chips_html}</div>'
        f"{provenance_html}"
        f"{_scalar_cards(result_set)}"
        f"{_layout_html(result_set)}"
        f"{plots}"
        f"</section>"
    )


# ----------------------------------------------------------------------
# The page
# ----------------------------------------------------------------------


def build_report(
    result_sets: Sequence[ResultSet],
    *,
    title: str = "Svärd reproduction report",
    subtitle: str = "",
) -> str:
    """The full self-contained HTML page for ``result_sets``."""
    result_sets = list(result_sets)
    if not result_sets:
        raise ValueError("build_report needs at least one ResultSet")

    anchors: Dict[str, int] = {}
    sections, toc = [], []
    for result_set in result_sets:
        base = result_set.experiment or "section"
        anchors[base] = anchors.get(base, 0) + 1
        anchor = (
            base if anchors[base] == 1 else f"{base}-{anchors[base]}"
        )
        sections.append(_section(result_set, anchor))
        toc.append(
            f'<li><a href="#{escape(anchor)}">'
            f"{escape(result_set.title)}</a></li>"
        )

    toc_html = (
        '<nav class="toc"><strong>Contents</strong>'
        f"<ol>{''.join(toc)}</ol></nav>"
        if len(result_sets) > 1
        else ""
    )
    subtitle_html = (
        f'<p class="sub">{escape(subtitle)}</p>' if subtitle else ""
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8"/>'
        f"<title>{escape(title)}</title>"
        f"<style>{_CSS}</style></head><body><main>"
        f'<header class="page"><h1>{escape(title)}</h1>'
        f"{subtitle_html}</header>"
        f"{toc_html}"
        f"{''.join(sections)}"
        f"<footer>{len(result_sets)} section"
        f"{'s' if len(result_sets) != 1 else ''} &middot; "
        "generated by <code>repro.experiments.report</code> &middot; "
        "self-contained (no external resources)</footer>"
        "</main></body></html>\n"
    )
