"""The CSV and LaTeX renderers, renderer edge cases, and atomic
artifact publishing."""

import json
import threading

import pytest

from repro.experiments import runner
from repro.experiments.api import ResultSet, ResultTable
from repro.experiments.render import (
    CsvRenderer,
    LatexRenderer,
    atomic_write_text,
    get_renderer,
    renderer_names,
)


@pytest.fixture
def sample():
    return ResultSet(
        experiment="demo",
        title="Demo, with specials_&_commas",
        scalars={"max_f1": 0.75, "n": 3},
        tables=(
            ResultTable(
                name="main",
                headers=("label", "value"),
                rows=(("a,b", 1.5), ("c_d", None)),
            ),
            ResultTable(
                name="extra",
                headers=("k",),
                rows=(("x",),),
            ),
        ),
    )


class TestCsvRenderer:
    def test_registered(self):
        assert "csv" in renderer_names()
        assert get_renderer("csv").format_name == "csv"

    def test_render_concatenates_tables_with_markers(self, sample):
        text = CsvRenderer().render(sample)
        assert "# table: scalars" in text
        assert "# table: main" in text
        assert "# table: extra" in text
        # Cells containing commas are quoted, None stays empty.
        assert '"a,b",1.5' in text
        assert "c_d," in text

    def test_write_one_file_per_table(self, sample, tmp_path):
        paths = CsvRenderer().write(sample, tmp_path)
        assert sorted(p.name for p in paths) == [
            "demo.extra.csv", "demo.main.csv", "demo.scalars.csv",
        ]
        main = (tmp_path / "demo.main.csv").read_text()
        assert main.splitlines()[0] == "label,value"
        scalars = (tmp_path / "demo.scalars.csv").read_text()
        assert "max_f1,0.75" in scalars

    def test_runner_format_csv(self, tmp_path, capsys):
        code = runner.main([
            "run", "sec64", "--no-cache", "--format", "csv",
            "--out", str(tmp_path),
        ])
        assert code == 0
        written = list(tmp_path.glob("sec64.*.csv"))
        assert written, "csv artifacts missing"
        for path in written:
            assert path.read_text().strip()


class TestLatexRenderer:
    def test_registered(self):
        assert "latex" in renderer_names()

    def test_scalars_emitted_like_every_other_renderer(self, sample):
        text = LatexRenderer().render(sample)
        assert r"\label{tab:demo-scalars}" in text
        assert r"max\_f1" in text and "0.75" in text

    def test_render_escapes_and_structures(self, sample):
        text = LatexRenderer().render(sample)
        assert r"\begin{tabular}{ll}" in text
        assert r"\label{tab:demo-main}" in text
        # LaTeX specials escaped in titles and cells.
        assert r"specials\_\&\_commas" in text
        assert r"c\_d" in text
        # None renders as a dash, floats compactly.
        assert "-- \\\\" in text or "& --" in text

    def test_stdout_mode_via_runner(self, capsys):
        code = runner.main(["run", "sec64", "--no-cache", "--format", "latex"])
        assert code == 0
        out = capsys.readouterr().out
        assert r"\begin{table}" in out
        assert r"\end{tabular}" in out


class TestRendererEdgeCases:
    """Degenerate ResultSets must render cleanly in every format."""

    @pytest.fixture
    def empty_table(self):
        return ResultSet(
            experiment="empty",
            title="Nothing measured",
            tables=(ResultTable(
                name="main", headers=("k", "v"), rows=(),
            ),),
        )

    @pytest.fixture
    def scalar_only(self):
        return ResultSet(
            experiment="scalars-only",
            title="Headlines",
            scalars={"speedup": 1.23, "n": 0, "flag": None},
        )

    @pytest.mark.parametrize("fmt", ["text", "json", "csv", "latex", "html"])
    def test_empty_table_renders(self, fmt, empty_table):
        text = get_renderer(fmt).render(empty_table)
        assert isinstance(text, str)
        if fmt == "json":
            assert json.loads(text)["tables"][0]["rows"] == []
        if fmt == "csv":
            assert text.splitlines()[-1] == "k,v"  # header-only document
        if fmt == "html":
            assert "<thead>" in text and "<tbody></tbody>" in text

    @pytest.mark.parametrize("fmt", ["text", "json", "csv", "latex", "html"])
    def test_scalar_only_renders(self, fmt, scalar_only):
        text = get_renderer(fmt).render(scalar_only)
        assert isinstance(text, str)
        if fmt in ("csv", "latex"):
            assert "speedup" in text and "1.23" in text
        if fmt == "html":
            assert 'class="card"' in text and "speedup" in text

    def test_empty_table_write_roundtrip(self, empty_table, tmp_path):
        for fmt in ("json", "csv", "latex", "html"):
            assert get_renderer(fmt).write(empty_table, tmp_path)


class TestAtomicWriteText:
    def test_reads_during_rewrites_are_never_torn(self, tmp_path):
        """Read a report while it is atomically rewritten: every read
        must be one complete payload, never a splice.  This is what a
        static server hosting an artifact tree mid-sweep relies on.
        The payloads differ in every 64-byte block, so any torn read
        would fail the set membership below."""
        payloads = [
            f"<html>{marker * 65536}</html>" for marker in ("a", "b")
        ]
        path = tmp_path / "report.html"
        atomic_write_text(path, payloads[0])

        stop = threading.Event()
        failures = []

        def writer():
            flip = 0
            while not stop.is_set():
                flip ^= 1
                atomic_write_text(path, payloads[flip])

        def reader():
            for _ in range(40):
                body = path.read_text(encoding="utf-8")
                if body not in payloads:
                    failures.append(len(body))

        writer_thread = threading.Thread(target=writer, daemon=True)
        writer_thread.start()
        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=60)
        stop.set()
        writer_thread.join(timeout=10)
        assert not any(t.is_alive() for t in [*readers, writer_thread])
        assert failures == []
        # No temp file outlives the rewrites.
        assert [p.name for p in tmp_path.iterdir()] == ["report.html"]
