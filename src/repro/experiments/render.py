"""Pluggable renderers for :class:`~repro.experiments.api.ResultSet`.

Five renderers ship with the repository:

* ``text`` -- the paper-style fixed-width tables (byte-identical to
  the pre-API ``render()`` output; pinned by the parity snapshots in
  ``tests/golden/text/``).
* ``json`` -- the full structured artifact, round-trippable through
  :meth:`ResultSet.from_json_dict`.
* ``csv`` -- the typed tables as RFC-4180 CSV, one file per
  ``ResultTable`` under ``--out`` (stdout mode concatenates them with
  ``# table:`` separators).
* ``latex`` -- one ``table``/``tabular`` environment per
  ``ResultTable``, cells escaped, ready to ``\\input`` into a paper.
* ``html`` -- a self-contained single-page report (inline SVG charts,
  no external URLs); the same engine
  (:mod:`repro.experiments.report`) stitches whole artifact trees via
  ``runner report`` -- see REPORTS.md.

Add a custom renderer with :func:`register_renderer`::

    class CsvRenderer(Renderer):
        format_name = "csv"
        suffix = ".csv"
        def render(self, result_set): ...

    register_renderer(CsvRenderer())
"""

from __future__ import annotations

import csv
import io
import json
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Dict, List, Sequence

from repro.experiments.api import ResultSet, ResultTable


def atomic_write_text(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` via temp file + ``os.replace``.

    Every artifact and report goes through here, so anything reading
    an output tree while a sweep still writes it -- a static file
    server, a second ``runner report`` -- sees the complete old file
    or the complete new one, never a truncated write.  The
    same-directory rename is the guarantee the result cache makes for
    pickles.
    """
    import os
    import tempfile

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".tmp-{path.name}-"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class Renderer(ABC):
    """Turns a ResultSet into human- or machine-consumable output."""

    #: Registry key and ``--format`` value.
    format_name: str = ""
    #: Suffix of files written by :meth:`write`.
    suffix: str = ""

    @abstractmethod
    def render(self, result_set: ResultSet) -> str:
        """The artifact as a string."""

    def write(self, result_set: ResultSet, out_dir: Path) -> List[Path]:
        """Write the artifact under ``out_dir``; return created paths."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{result_set.experiment}{self.suffix}"
        atomic_write_text(path, self.render(result_set) + "\n")
        return [path]


class TextRenderer(Renderer):
    format_name = "text"
    suffix = ".txt"

    def render(self, result_set: ResultSet) -> str:
        return result_set.render_text()


class JsonRenderer(Renderer):
    format_name = "json"
    suffix = ".json"

    def render(self, result_set: ResultSet) -> str:
        return json.dumps(
            result_set.to_json_dict(), indent=2, sort_keys=True
        )


class CsvRenderer(Renderer):
    """The typed tables as CSV -- the analysis-pipeline format.

    ``write`` produces one file per table
    (``<experiment>.<table>.csv``); ``render`` (stdout mode)
    concatenates them behind ``# table: <name>`` comment lines so the
    output stays a single document.  Scalars travel as a synthetic
    two-column ``scalars`` table when present.
    """

    format_name = "csv"
    suffix = ".csv"

    def render(self, result_set: ResultSet) -> str:
        parts = [
            f"# table: {name}\n{body}"
            for name, body in self._documents(result_set)
        ]
        return "\n".join(parts).rstrip("\n")

    def write(self, result_set: ResultSet, out_dir: Path) -> List[Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths: List[Path] = []
        for name, body in self._documents(result_set):
            path = out_dir / f"{result_set.experiment}.{name}{self.suffix}"
            atomic_write_text(path, body)
            paths.append(path)
        return paths

    def _documents(self, result_set: ResultSet) -> List[tuple]:
        documents = []
        if result_set.scalars:
            documents.append(
                ("scalars", self._csv(
                    ("scalar", "value"),
                    sorted(result_set.scalars.items()),
                ))
            )
        documents.extend(
            (table.name, self._csv(table.headers, table.rows))
            for table in result_set.tables
        )
        return documents

    @staticmethod
    def _csv(headers: Sequence, rows: Sequence[Sequence]) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(rows)
        return buffer.getvalue()


class LatexRenderer(Renderer):
    """One ``table`` environment per ResultTable, paper-paste ready."""

    format_name = "latex"
    suffix = ".tex"

    #: LaTeX special characters, escaped in cell/caption text.
    _ESCAPES = {
        "\\": r"\textbackslash{}",
        "&": r"\&",
        "%": r"\%",
        "$": r"\$",
        "#": r"\#",
        "_": r"\_",
        "{": r"\{",
        "}": r"\}",
        "~": r"\textasciitilde{}",
        "^": r"\textasciicircum{}",
    }

    def render(self, result_set: ResultSet) -> str:
        blocks = [f"% {result_set.experiment}: {result_set.title}"]
        if result_set.scalars:
            # Headline scalars travel as a synthetic two-column table,
            # mirroring CsvRenderer -- dropping them silently would
            # lose e.g. fig12's mean-improvement numbers.
            blocks.append(self._table(result_set, ResultTable(
                name="scalars",
                headers=("scalar", "value"),
                rows=tuple(sorted(result_set.scalars.items())),
            )))
        for table in result_set.tables:
            blocks.append(self._table(result_set, table))
        return "\n\n".join(blocks)

    # ------------------------------------------------------------------

    def _table(self, result_set: ResultSet, table: ResultTable) -> str:
        columns = "l" * len(table.headers)
        header = " & ".join(
            rf"\textbf{{{self._escape(h)}}}" for h in table.headers
        )
        body = "\n".join(
            "    " + " & ".join(self._cell(cell) for cell in row) + r" \\"
            for row in table.rows
        )
        caption = self._escape(f"{result_set.title} -- {table.name}")
        label = f"tab:{result_set.experiment}-{table.name}"
        return "\n".join([
            r"\begin{table}[h]",
            r"  \centering",
            rf"  \caption{{{caption}}}",
            rf"  \label{{{label}}}",
            rf"  \begin{{tabular}}{{{columns}}}",
            r"    \hline",
            f"    {header} \\\\",
            r"    \hline",
            body,
            r"    \hline",
            r"  \end{tabular}",
            r"\end{table}",
        ])

    def _cell(self, value) -> str:
        if value is None:
            return "--"
        if isinstance(value, float):
            return f"{value:.6g}"
        return self._escape(str(value))

    def _escape(self, text: str) -> str:
        return "".join(self._ESCAPES.get(ch, ch) for ch in text)


class HtmlRenderer(Renderer):
    """A single-ResultSet page of the self-contained HTML report.

    The heavy lifting lives in :mod:`repro.experiments.report`
    (imported lazily to keep this registry module dependency-light);
    charts come from the pure-python SVG plotter.
    """

    format_name = "html"
    suffix = ".html"

    def render(self, result_set: ResultSet) -> str:
        from repro.experiments.report import build_report

        return build_report(
            [result_set],
            title=result_set.title,
            subtitle=f"experiment: {result_set.experiment}",
        )


_RENDERERS: Dict[str, Renderer] = {}


def register_renderer(renderer: Renderer) -> Renderer:
    if not renderer.format_name:
        raise ValueError("renderer must set format_name")
    _RENDERERS[renderer.format_name] = renderer
    return renderer


def get_renderer(format_name: str) -> Renderer:
    try:
        return _RENDERERS[format_name]
    except KeyError:
        raise KeyError(
            f"unknown format {format_name!r}; known: {sorted(_RENDERERS)}"
        ) from None


def renderer_names() -> List[str]:
    return sorted(_RENDERERS)


register_renderer(TextRenderer())
register_renderer(JsonRenderer())
register_renderer(CsvRenderer())
register_renderer(LatexRenderer())
register_renderer(HtmlRenderer())
