"""The HTML report pipeline: builder, renderer, CLI, doc sync.

The golden snapshot here is **structure-level**: the nested tag /
class / id skeleton of the report page (tests/golden/
report_structure.json), not its bytes -- so numeric jitter in SVG
coordinates or copy edits in captions cannot break it, while a lost
section, table, chart, or provenance block does.  Regenerate after an
intentional page-structure change with::

    PYTHONPATH=src python -m pytest tests/test_report.py --update-golden

The same flag refreshes the generated `runner --help-all` CLI
reference embedded in EXPERIMENTS.md (test_help_all_dump_in_sync).
"""

import json
import re
from html.parser import HTMLParser
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.api import (
    PlotSpec,
    ResultSet,
    ResultTable,
    TableBlock,
    TextBlock,
)
from repro.experiments.aggregate import ResultSetAggregate
from repro.experiments.render import get_renderer, renderer_names
from repro.experiments.report import build_report

GOLDEN = Path(__file__).parent / "golden" / "report_structure.json"
EXPERIMENTS_MD = Path(__file__).parent.parent / "EXPERIMENTS.md"

#: HTML void elements plus SVG leaf shapes (no closing tag required).
VOID_TAGS = frozenset({
    "meta", "br", "hr", "img", "input", "link",
    "circle", "rect", "line", "path", "polyline", "polygon",
})


class StructureParser(HTMLParser):
    """Reduces a page to its nested (tag, class/id) skeleton."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = ["document", None, []]
        self.stack = [self.root]
        self.errors = []

    def _node(self, tag, attrs):
        attrs = dict(attrs)
        signature = attrs.get("class") or attrs.get("id")
        return [tag, signature, []]

    def handle_starttag(self, tag, attrs):
        node = self._node(tag, attrs)
        self.stack[-1][2].append(node)
        if tag not in VOID_TAGS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        self.stack[-1][2].append(self._node(tag, attrs))

    def handle_endtag(self, tag):
        if tag in VOID_TAGS:
            return
        if len(self.stack) < 2 or self.stack[-1][0] != tag:
            self.errors.append(f"mismatched </{tag}>")
            return
        self.stack.pop()


def structure(html: str):
    parser = StructureParser()
    parser.feed(html)
    parser.close()
    assert not parser.errors, parser.errors
    assert len(parser.stack) == 1, [n[0] for n in parser.stack]
    return parser.root


def assert_self_contained(html: str) -> None:
    """No fetched external resources (xmlns identifiers are fine)."""
    external = re.findall(
        r'(?:src|href)\s*=\s*"(?:https?:)?//[^"]*"', html
    )
    assert external == [], external
    assert "<script" not in html


def seeded_section(seed: int) -> ResultSet:
    return ResultSet(
        experiment="fig12",
        title="Fig 12: demo",
        scalars={"n_mixes": 2, "headline": 1.0 + seed / 10},
        tables=(ResultTable(
            name="metrics",
            headers=("defense", "hc_first", "weighted_speedup"),
            rows=(("PARA", 64, 1.0 + seed / 10),
                  ("PARA", 128, 2.0 + seed / 10)),
        ),),
        layout=(
            TextBlock("Fig 12: demo\n"),
            TableBlock(
                headers=("defense", "value"),
                rows=(("PARA", f"{1.0 + seed / 10:.3f}"),),
            ),
        ),
        plots=(PlotSpec(
            name="speedup", kind="line", table="metrics",
            x="hc_first", y=("weighted_speedup",), logx=True,
        ),),
        meta={
            "paper_ref": "Fig. 12",
            "scale": {"seed": seed, "n_mixes": 2},
            "recipe": {
                "name": "demo-grid", "version": 1,
                "seed": seed, "smoke": False,
            },
            "provenance": {
                "backend": "serial",
                "cache_dir": None,
                "tasks": {
                    "submitted": 4, "cache_hits": 2, "executed": 2,
                },
            },
        },
    )


def scalar_only_section() -> ResultSet:
    return ResultSet(
        experiment="sec64",
        title="Costs",
        scalars={"area_mm2": 0.056, "ok": True},
        meta={"paper_ref": "Sec. 6.4"},
    )


def report_sections():
    aggregated = ResultSetAggregate.from_result_sets(
        [seeded_section(0), seeded_section(1)]
    ).to_result_set()
    return [aggregated, scalar_only_section()]


class TestBuildReport:
    def test_page_is_self_contained_and_well_formed(self):
        html = build_report(report_sections())
        assert_self_contained(html)
        structure(html)  # asserts balanced tags

    def test_sections_toc_and_anchors(self):
        html = build_report(report_sections())
        assert html.count('<section class="experiment"') == 2
        assert '<nav class="toc">' in html
        assert 'href="#fig12"' in html and 'id="fig12"' in html

    def test_single_section_page_has_no_toc(self):
        html = build_report([scalar_only_section()])
        assert '<nav class="toc">' not in html

    def test_provenance_block_contents(self):
        html = build_report(report_sections())
        assert "demo-grid v1" in html
        assert "population stddev" in html
        # scale fingerprint: 12 hex chars from stable_hash
        assert re.search(r"<dd>[0-9a-f]{12}</dd>", html)

    def test_per_seed_provenance_renders_as_counts_not_list_repr(self):
        """Seeds with different cache luck merge into per-seed counts
        (``0+4``), never a Python list repr in the page."""
        cold, warm = seeded_section(0), seeded_section(1)
        cold.meta["provenance"]["tasks"] = {
            "submitted": 4, "cache_hits": 0, "executed": 4,
        }
        warm.meta["provenance"]["tasks"] = {
            "submitted": 4, "cache_hits": 4, "executed": 0,
        }
        aggregated = ResultSetAggregate.from_result_sets(
            [cold, warm]
        ).to_result_set()
        html = build_report([aggregated])
        assert "4 submitted / 0+4 cache hits / 4+0 executed" in html
        assert "[0, 4]" not in html and "[4, 0]" not in html

    def test_aggregated_section_shows_error_band(self):
        html = build_report(report_sections())
        assert "weighted_speedup_stddev" in html
        assert "<polygon" in html  # the min--max envelope

    def test_scalar_cards(self):
        html = build_report([scalar_only_section()])
        assert 'class="card"' in html
        assert "area_mm2" in html and "0.056" in html

    def test_duplicate_experiments_get_unique_anchors(self):
        html = build_report(
            [scalar_only_section(), scalar_only_section()]
        )
        assert 'id="sec64"' in html and 'id="sec64-2"' in html

    def test_unicode_titles_survive(self):
        section = scalar_only_section()
        section.title = "Svärd köstüm"
        html = build_report([section])
        assert "Svärd köstüm" in html

    def test_empty_report_refuses(self):
        with pytest.raises(ValueError, match="at least one"):
            build_report([])

    def test_broken_plot_degrades_to_error_paragraph(self):
        section = scalar_only_section()
        section.tables = (ResultTable(
            name="t", headers=("x", "y"), rows=(),
        ),)
        section.plots = (PlotSpec(
            name="p", kind="line", table="t", x="x", y=("y",),
        ),)
        html = build_report([section])
        assert 'class="plot-error"' in html
        structure(html)

    def test_golden_structure_snapshot(self, request):
        html = build_report(
            report_sections(), title="Golden report", subtitle="pinned"
        )
        skeleton = structure(html)
        if request.config.getoption("--update-golden"):
            GOLDEN.write_text(json.dumps(skeleton, indent=1) + "\n")
            return
        assert skeleton == json.loads(GOLDEN.read_text()), (
            "report page structure changed; regenerate with "
            "`pytest tests/test_report.py --update-golden` and review "
            "the diff"
        )


class TestHtmlRenderer:
    def test_registered(self):
        assert "html" in renderer_names()
        assert get_renderer("html").suffix == ".html"

    def test_single_result_set_page(self):
        html = get_renderer("html").render(scalar_only_section())
        assert_self_contained(html)
        assert "experiment: sec64" in html

    def test_write(self, tmp_path):
        (path,) = get_renderer("html").write(
            scalar_only_section(), tmp_path
        )
        assert path.name == "sec64.html"
        assert_self_contained(path.read_text())

    def test_cli_html_stdout_is_one_document(self, capsys):
        """Multiple experiments to stdout stitch into a single page
        (mirroring the json single-document guarantee), never
        concatenated standalone pages."""
        code = runner.main([
            "run", "sec64", "table3", "--no-cache", "--format", "html",
            "--rows-per-bank", "256", "--banks", "1",
            "--modules", "H1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("<!DOCTYPE html>") == 1
        assert out.count("</html>") == 1
        assert out.count('<section class="experiment"') == 2
        assert_self_contained(out)

    def test_cli_format_html(self, tmp_path, capsys):
        code = runner.main([
            "run", "sec64", "--format", "html",
            "--out", str(tmp_path), "--no-cache",
        ])
        assert code == 0
        page = (tmp_path / "sec64.html").read_text()
        assert_self_contained(page)
        # Provenance stamped by the CLI shows up in the page.
        assert "backend" in page


class TestReportCommand:
    def write_tree(self, root):
        for seed in (0, 1):
            directory = root / f"seed{seed}"
            directory.mkdir(parents=True)
            artifact = seeded_section(seed)
            (directory / "fig12.json").write_text(
                json.dumps(artifact.to_json_dict())
            )

    def test_stitches_and_aggregates(self, tmp_path, capsys):
        self.write_tree(tmp_path)
        assert runner.main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "report.html" in out and "1 sections" in out
        page = (tmp_path / "report.html").read_text()
        assert_self_contained(page)
        assert "weighted_speedup_mean" in page

    def test_no_aggregate_flag(self, tmp_path, capsys):
        self.write_tree(tmp_path)
        out_file = tmp_path / "flat.html"
        assert runner.main([
            "report", str(tmp_path), "--no-aggregate",
            "--out", str(out_file),
        ]) == 0
        assert "2 sections" in capsys.readouterr().out
        assert out_file.exists()

    def test_missing_path_is_a_clean_error(self, tmp_path, capsys):
        assert runner.main(["report", str(tmp_path / "nope")]) == 1
        assert "no such artifact" in capsys.readouterr().err

    def test_empty_tree_is_a_clean_error(self, tmp_path, capsys):
        assert runner.main(["report", str(tmp_path)]) == 1
        assert "no ResultSet artifacts" in capsys.readouterr().err

    def test_recipe_run_report_requires_out(self, capsys):
        with pytest.raises(SystemExit):
            runner.main(["recipe", "run", "report-smoke", "--report"])
        assert "--report requires --out" in capsys.readouterr().err


class TestRecipeShowLayout:
    def test_show_prints_seed_matrix_and_artifact_dirs(self, capsys):
        assert runner.main(["recipe", "show", "report-smoke"]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout stays a pure manifest
        assert "seed matrix: 0, 1 (2 seeds)" in captured.err
        assert "DIR/seed0/{fig3,sec64}.<fmt>" in captured.err
        assert "DIR/seed1/{fig3,sec64}.<fmt>" in captured.err
        assert "report.html" in captured.err


HELP_BEGIN = "<!-- runner-help-all:begin -->"
HELP_END = "<!-- runner-help-all:end -->"


class TestHelpAll:
    def test_help_all_flag(self, capsys):
        assert runner.main(["--help-all"]) == 0
        out = capsys.readouterr().out
        for fragment in (
            "runner run", "runner worker", "runner report",
            "recipe run", "--queue-dir", "--no-aggregate",
        ):
            assert fragment in out, fragment

    def test_every_flag_has_help_text(self):
        for command in runner.COMMANDS.values():
            parser = command.parser()
            for action in parser._actions:
                assert action.help, (
                    f"{parser.prog}: {action.dest} has no help text"
                )

    def test_help_all_dump_in_sync(self, request):
        """EXPERIMENTS.md embeds the generated `--help-all` dump; this
        pins it to the live CLI so the docs cannot drift."""
        dump = runner.help_all_text()
        payload = f"{HELP_BEGIN}\n```text\n{dump}```\n{HELP_END}"
        document = EXPERIMENTS_MD.read_text()
        pattern = re.compile(
            re.escape(HELP_BEGIN) + ".*?" + re.escape(HELP_END), re.S
        )
        assert pattern.search(document), (
            "EXPERIMENTS.md lost its runner-help-all markers"
        )
        if request.config.getoption("--update-golden"):
            EXPERIMENTS_MD.write_text(pattern.sub(
                lambda _: payload, document
            ))
            return
        assert pattern.search(document).group(0) == payload, (
            "the CLI reference in EXPERIMENTS.md is stale; regenerate "
            "with `pytest tests/test_report.py --update-golden`"
        )
