"""The Experiment API: registry, ResultSet artifacts, renderers, CLI.

Covers the acceptance criteria of the API redesign:

* every harness module registers exactly one experiment and the
  runner's ``list`` subcommand enumerates them;
* ``--format text`` output is byte-identical to the pre-redesign
  ``render()`` tables (parity snapshots in ``tests/golden/text/``,
  captured at the pre-redesign commit; regenerate intentionally with
  ``pytest tests/test_experiment_api.py --update-golden``);
* ResultSet artifacts round-trip through their JSON form exactly;
* fig8/fig10 run through orchestrated tasks, and a warm-cache replay
  executes zero simulations;
* ``--paper-rows`` wires ``ModuleSpec.rows_per_bank`` into the
  characterization geometry (validated on a tiny synthetic module).
"""

import json
from pathlib import Path

import pytest

from repro.experiments import (
    api,
    fig8_subarray_silhouette,
    fig10_aging,
    render,
    runner,
)
from repro.experiments.api import (
    Experiment,
    PlotSpec,
    ResultSet,
    ResultTable,
    TableBlock,
    all_experiments,
)
from repro.experiments.common import (
    _CHARACTERIZATION_CACHE,
    ExperimentScale,
    characterize_modules,
    scaled_profile,
)
from repro.faults.modules import MODULES, Manufacturer, ModuleSpec
from repro.orchestration import OrchestrationContext, ResultCache
from tests.conftest import RUNS

TEXT_GOLDEN_DIR = Path(__file__).parent / "golden" / "text"

#: Every registered experiment; each has a parity run of the same name
#: in ``tests/conftest.py``'s ``RUNS``, at the scale its
#: ``tests/golden/text/`` snapshot was captured at.
PARITY_RUNS = tuple(all_experiments())


@pytest.fixture(scope="module")
def parity_result_sets(experiment_run):
    """Every experiment's parity result and its ResultSet."""
    results = {}
    for name, experiment in all_experiments().items():
        result = experiment_run(name)
        results[name] = (result, experiment.result_set(result))
    return results


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


class TestRegistry:
    def test_every_harness_module_registers_exactly_one(self):
        api.load_all()
        by_module = {}
        for experiment in all_experiments().values():
            by_module.setdefault(type(experiment).__module__, []).append(
                experiment.name
            )
        for module_name in api.harness_module_names():
            assert len(by_module.get(module_name, [])) == 1, (
                f"{module_name} must register exactly one experiment, "
                f"got {by_module.get(module_name, [])}"
            )

    def test_all_fifteen_present(self):
        assert len(PARITY_RUNS) == 15
        assert set(PARITY_RUNS) <= set(RUNS)

    def test_metadata_complete(self):
        for name, experiment in all_experiments().items():
            assert experiment.name == name
            assert experiment.description
            assert experiment.paper_ref

    def test_get_experiment_unknown(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            api.get_experiment("fig99")

    def test_register_rejects_duplicate_names(self):
        class Duplicate(Experiment):
            name = "fig3"

            def reduce(self, scale, outputs):
                return None

            def result_set(self, result):
                return ResultSet(experiment="fig3", title="")

        with pytest.raises(ValueError, match="already registered"):
            api.register(Duplicate)


# ----------------------------------------------------------------------
# Text parity and JSON round-trip
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PARITY_RUNS))
def test_text_parity_with_pre_redesign_render(
    name, parity_result_sets, request
):
    """The text renderer reproduces the pre-redesign tables exactly."""
    result, result_set = parity_result_sets[name]
    rendered = render.get_renderer("text").render(result_set) + "\n"
    path = TEXT_GOLDEN_DIR / f"{name}.txt"
    if request.config.getoption("--update-golden"):
        TEXT_GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered)
        return
    assert rendered == path.read_text(), f"{name} text output drifted"
    # The rich result's render() is the same pipeline.
    assert result.render() + "\n" == rendered


@pytest.mark.parametrize("name", sorted(PARITY_RUNS))
def test_resultset_json_roundtrip(name, parity_result_sets):
    _, result_set = parity_result_sets[name]
    dumped = json.dumps(result_set.to_json_dict(), sort_keys=True)
    restored = ResultSet.from_json_dict(json.loads(dumped))
    assert restored == result_set
    # A second trip is a fixed point.
    assert json.dumps(restored.to_json_dict(), sort_keys=True) == dumped


class TestResultSetValidation:
    def test_rejects_non_scalar_cells(self):
        with pytest.raises(TypeError, match="JSON scalar"):
            ResultTable(name="t", headers=("a",), rows=((object(),),))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="does not match"):
            ResultTable(name="t", headers=("a", "b"), rows=((1,),))

    def test_rejects_ragged_display_rows(self):
        with pytest.raises(ValueError, match="does not match"):
            TableBlock(headers=("a", "b"), rows=(("x",),))

    def test_rejects_duplicate_table_names(self):
        table = ResultTable(name="t", headers=("a",), rows=((1,),))
        with pytest.raises(ValueError, match="duplicate table"):
            ResultSet(experiment="x", title="x", tables=(table, table))

    def test_rejects_unknown_plot_kind(self):
        with pytest.raises(ValueError, match="unknown plot kind"):
            PlotSpec(name="p", kind="pie", table="t", x="a", y=("b",))

    def test_table_lookup_and_column(self):
        table = ResultTable(
            name="t", headers=("a", "b"), rows=((1, 2), (3, 4))
        )
        result_set = ResultSet(experiment="x", title="x", tables=(table,))
        assert result_set.table("t").column("b") == [2, 4]
        with pytest.raises(KeyError):
            result_set.table("missing")


# ----------------------------------------------------------------------
# Orchestrated fig8/fig10: warm cache replays zero simulations
# ----------------------------------------------------------------------


class TestOrchestratedSequentialHarnesses:
    def _contexts(self, tmp_path):
        cold = OrchestrationContext(jobs=1, cache=ResultCache(tmp_path))
        warm = OrchestrationContext(jobs=1, cache=ResultCache(tmp_path))
        return cold, warm

    def test_fig8_warm_cache_executes_nothing(self, tmp_path):
        scale = ExperimentScale(rows_per_bank=512, banks=(0,), seed=2)
        cold, warm = self._contexts(tmp_path)
        first = fig8_subarray_silhouette.run(
            scale, modules=("S0",), orchestration=cold
        )
        assert cold.stats.executed == 1 and cold.stats.hits == 0
        second = fig8_subarray_silhouette.run(
            scale, modules=("S0",), orchestration=warm
        )
        assert warm.stats.executed == 0
        assert warm.stats.hits == warm.stats.submitted == 1
        assert second.render() == first.render()
        assert second.inferences["S0"].inferred_k == first.inferences["S0"].inferred_k

    def test_fig8_modules_share_one_pool_submission(self, monkeypatch):
        """Per-module groups batch into one _execute -> --jobs fans out."""
        from repro.orchestration import serial_context

        scale = ExperimentScale(rows_per_bank=512, banks=(0,), seed=2)
        orch = serial_context()
        submissions = []
        original = orch._execute

        def spy(tasks):
            submissions.append(len(tasks))
            return original(tasks)

        monkeypatch.setattr(orch, "_execute", spy)
        fig8_subarray_silhouette.run(
            scale, modules=("S0", "S3"), orchestration=orch
        )
        assert submissions == [2]

    def test_distinct_fingerprint_groups_batch_together(self, monkeypatch):
        """Fig 7's three tAggOn sweeps execute as a single submission."""
        from repro.experiments.fig7_rowpress import Fig7Experiment
        from repro.orchestration import serial_context

        scale = ExperimentScale(
            rows_per_bank=256, banks=(1,), modules=("S0",), seed=11
        )
        orch = serial_context()
        submissions = []
        original = orch._execute

        def spy(tasks):
            submissions.append(len(tasks))
            return original(tasks)

        monkeypatch.setattr(orch, "_execute", spy)
        Fig7Experiment().run(scale, orch)
        # 3 tAggOn groups x 1 module x 1 bank, one batched submission.
        assert submissions == [3]

    def test_fig10_warm_cache_executes_nothing(self, tmp_path):
        scale = ExperimentScale(rows_per_bank=1024, banks=(1,), seed=0)
        cold, warm = self._contexts(tmp_path)
        first = fig10_aging.run(scale, orchestration=cold)
        assert cold.stats.executed == 1 and cold.stats.hits == 0
        second = fig10_aging.run(scale, orchestration=warm)
        assert warm.stats.executed == 0
        assert warm.stats.hits == warm.stats.submitted == 1
        assert second.render() == first.render()


# ----------------------------------------------------------------------
# --paper-rows: per-module real row counts
# ----------------------------------------------------------------------


def _tiny_spec(label: str) -> ModuleSpec:
    return ModuleSpec(
        label=label,
        manufacturer=Manufacturer.SAMSUNG,
        n_chips=8,
        density_gb=8,
        die_revision="B",
        organization="x8",
        freq_mts=3200,
        mfr_date=None,
        rows_per_bank=256,
        hc_min=8192,
        hc_avg=16384,
        hc_max=32768,
        ber_mean=5e-3,
        ber_cv_pct=4.0,
        n_ber_periods=2.0,
        subarray_rows=64,
    )


class TestPaperRows:
    def test_rows_for(self, monkeypatch):
        monkeypatch.setitem(MODULES, "T9", _tiny_spec("T9"))
        uniform = ExperimentScale(modules=("T9",), banks=(1,), seed=7)
        paper = ExperimentScale(
            modules=("T9",), banks=(1,), seed=7, paper_rows=True
        )
        assert uniform.rows_for("T9") == 2048
        assert paper.rows_for("T9") == 256

    def test_characterization_uses_module_rows(self, monkeypatch):
        monkeypatch.setitem(MODULES, "T9", _tiny_spec("T9"))
        scale = ExperimentScale(
            modules=("T9",), banks=(1,), seed=7, paper_rows=True
        )
        try:
            chars = characterize_modules(["T9"], scale)
            assert chars["T9"].banks[1].rows == 256
            profile = scaled_profile("T9", 64, scale)
            assert profile.rows_per_bank == 256
        finally:
            for key in [k for k in _CHARACTERIZATION_CACHE if k[0] == "T9"]:
                del _CHARACTERIZATION_CACHE[key]

    def test_runner_flag_parses(self):
        args = runner.COMMANDS[("run",)].parser().parse_args(["fig5", "--paper-rows"])
        assert args.paper_rows is True
        args = runner.COMMANDS[("run",)].parser().parse_args(["fig5"])
        assert args.paper_rows is None


class TestScaleValidation:
    @pytest.mark.parametrize("overrides", [
        {"seed": -1}, {"n_mixes": 0}, {"requests_per_core": 0},
        {"banks": ()}, {"banks": (-1,)}, {"banks": (16,)},
    ], ids=["seed", "n-mixes", "requests-per-core", "no-banks",
            "negative-bank", "bank-past-rank"])
    def test_out_of_range_fields_rejected(self, overrides):
        with pytest.raises(ValueError):
            ExperimentScale(**overrides)

    def test_every_bank_of_a_rank_accepted(self):
        assert ExperimentScale(banks=(0, 15)).banks == (0, 15)


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------


class TestRenderers:
    def test_registry(self):
        assert set(render.renderer_names()) >= {"text", "json", "html"}
        with pytest.raises(KeyError, match="unknown format"):
            render.get_renderer("yaml")

    def test_text_write(self, tmp_path, parity_result_sets):
        _, result_set = parity_result_sets["sec64"]
        (path,) = render.get_renderer("text").write(result_set, tmp_path)
        assert path.name == "sec64.txt"
        assert path.read_text() == result_set.render_text() + "\n"

    def test_json_write_roundtrips(self, tmp_path, parity_result_sets):
        _, result_set = parity_result_sets["fig5"]
        (path,) = render.get_renderer("json").write(result_set, tmp_path)
        restored = ResultSet.from_json_dict(json.loads(path.read_text()))
        assert restored == result_set

    def test_custom_renderer_plugs_in(self):
        class NullRenderer(render.Renderer):
            format_name = "null"
            suffix = ".null"

            def render(self, result_set):
                return result_set.experiment

        try:
            render.register_renderer(NullRenderer())
            assert render.get_renderer("null").render(
                ResultSet(experiment="x", title="x")
            ) == "x"
        finally:
            del render._RENDERERS["null"]

    def test_every_plot_spec_references_real_columns(self, parity_result_sets):
        for name, (_, result_set) in parity_result_sets.items():
            for spec in result_set.plots:
                table = result_set.table(spec.table)
                assert spec.x in table.headers, (name, spec.name)
                for y in spec.y:
                    assert y in table.headers, (name, spec.name)
                if spec.series is not None:
                    assert spec.series in table.headers, (name, spec.name)


# ----------------------------------------------------------------------
# Runner CLI
# ----------------------------------------------------------------------


RECIPE_USAGE = (
    "usage: python -m repro.experiments.runner recipe {list,show,run} ..."
)
QUEUE_USAGE = (
    "usage: python -m repro.experiments.runner queue status [CACHE_DIR] "
    "[--queue-dir DIR] [--json] [--stale-after S] [--profile]"
)


class TestRunnerCli:
    def test_list_enumerates_all(self, capsys):
        assert runner.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in PARITY_RUNS:
            assert name in out

    def test_list_json(self, capsys):
        assert runner.main(["list", "--format", "json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert sorted(listing) == sorted(PARITY_RUNS)
        assert listing["fig12"]["quick_overrides"]["n_mixes"] == 1

    def test_run_text_stdout(self, capsys):
        assert runner.main(["run", "sec64"]) == 0
        out = capsys.readouterr().out
        assert "Section 6.4: Svärd hardware cost" in out
        assert "=" * 72 in out

    def test_legacy_invocation_without_run_verb(self, capsys):
        assert runner.main(["sec64"]) == 0
        assert "Svärd hardware cost" in capsys.readouterr().out

    def test_run_json_out(self, tmp_path, capsys):
        assert runner.main(
            ["run", "sec64", "--format", "json", "--out", str(tmp_path)]
        ) == 0
        restored = ResultSet.from_json_dict(
            json.loads((tmp_path / "sec64.json").read_text())
        )
        assert restored.experiment == "sec64"
        assert restored.meta["paper_ref"] == "Section 6.4"
        assert restored.meta["scale"]["rows_per_bank"] == 2048

    def test_fig8_with_no_samsung_modules_fails_cleanly(self, capsys):
        code = runner.main(
            ["run", "fig8", "--modules", "H1", "--rows-per-bank", "512"]
        )
        assert code == 1
        assert "Samsung" in capsys.readouterr().err

    def test_failed_single_json_run_still_emits_a_document(self, capsys):
        code = runner.main(
            ["run", "fig8", "--modules", "H1", "--rows-per-bank", "512",
             "--format", "json"]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().out) == []

    def test_multi_run_continues_past_failed_experiment(self, capsys):
        code = runner.main(
            ["run", "fig8", "sec64", "--modules", "H1",
             "--rows-per-bank", "512", "--format", "json"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "Samsung" in captured.err
        assert "1 experiment(s) failed: fig8" in captured.err
        # The array shape follows the request (2 experiments), and
        # sec64 still ran and reached stdout despite fig8's failure.
        (document,) = json.loads(captured.out)
        assert document["experiment"] == "sec64"

    def test_top_level_help_mentions_both_subcommands(self, capsys):
        assert runner.main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "list" in out and "run" in out

    def test_run_json_stdout_single_is_object(self, capsys):
        assert runner.main(["run", "sec64", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["experiment"] == "sec64"

    def test_run_json_stdout_multiple_is_parseable_array(self, capsys):
        assert runner.main(
            ["run", "sec64", "sec64", "--format", "json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert [d["experiment"] for d in document] == ["sec64", "sec64"]

    def test_unknown_experiment(self, capsys):
        assert runner.main(["run", "fig99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_quick_overrides_respect_explicit_flags(self):
        experiment = all_experiments()["fig12"]
        base = ExperimentScale(n_mixes=7)
        quick = runner._scale_for(
            experiment, base, frozenset({"n_mixes"}), full=False
        )
        assert quick.n_mixes == 7  # explicit flag wins
        assert quick.svard_profiles == ("S0",)  # preset applies
        assert quick.hc_first_values == (4096, 256, 64)
        full = runner._scale_for(
            experiment, base, frozenset({"n_mixes"}), full=True
        )
        assert full == base

    def test_scale_flag_parsing(self):
        args = runner.COMMANDS[("run",)].parser().parse_args(
            ["fig5", "--banks", "1,4", "--modules", "H1,S0",
             "--rows-per-bank", "512"]
        )
        assert args.banks == (1, 4)
        assert args.modules == ("H1", "S0")
        assert args.rows_per_bank == 512

    def test_malformed_banks_is_a_clean_parser_error(self, capsys):
        with pytest.raises(SystemExit):
            runner.COMMANDS[("run",)].parser().parse_args(["fig5", "--banks", "a"])
        assert "comma-separated integers" in capsys.readouterr().err

    def test_duplicate_banks_and_modules_are_parser_errors(self, capsys):
        with pytest.raises(SystemExit):
            runner.COMMANDS[("run",)].parser().parse_args(["fig5", "--banks", "1,1"])
        assert "duplicates" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            runner.COMMANDS[("run",)].parser().parse_args(["fig5", "--modules", "S0,S0"])
        assert "duplicates" in capsys.readouterr().err

    def test_invalid_module_label_fails_cleanly(self, capsys):
        assert runner.main(["run", "sec64", "--modules", "BOGUS"]) == 1
        assert "invalid scale" in capsys.readouterr().err

    def test_invalid_rows_per_bank_fails_cleanly(self, capsys):
        assert runner.main(["run", "sec64", "--rows-per-bank", "8"]) == 1
        assert "invalid scale" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["fig3", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["fig3", "--banks", "-1"], "bank -1 out of range [0, 16)"),
        (["fig3", "--banks", "99"], "bank 99 out of range [0, 16)"),
        (["fig12", "--n-mixes", "0"], "n_mixes must be positive"),
        (["fig12", "--requests-per-core", "0"],
         "requests_per_core must be positive"),
    ], ids=["seed", "negative-bank", "bank-past-rank", "n-mixes",
            "requests-per-core"])
    def test_out_of_range_scale_is_one_line(self, argv, message, capsys):
        assert runner.main(["run", *argv]) == 1
        assert capsys.readouterr().err == f"invalid scale: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--seed", "-1"], "--seed must be >= 0"),
        (["--max-violations", "-1"], "--max-violations must be >= 0"),
        (["--rows-per-bank", "0"], "geometry dimensions must be positive"),
        (["--cores", "0"], "cores must be positive"),
        (["--requests-per-core", "0"], "requests_per_core must be positive"),
    ], ids=["seed", "max-violations", "rows-per-bank", "cores",
            "requests-per-core"])
    def test_check_timing_rejects_out_of_range_inputs(
        self, argv, message, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            runner.main(["check-timing", *argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == (
            f"python -m repro.experiments.runner check-timing: error: "
            f"{message}"
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize("interval", ["-1", "0"])
    def test_worker_poll_interval_must_be_positive(
        self, interval, tmp_path, capsys
    ):
        # --idle-timeout bounds the run should the check ever go missing.
        with pytest.raises(SystemExit) as exit_info:
            runner.main([
                "worker", "--cache-dir", str(tmp_path), "--quiet",
                "--idle-timeout", "0.5", "--poll-interval", interval,
            ])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(
            "error: --poll-interval must be positive"
        )
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["--gap-ns", "5"], "--gap-ns requires --trace"),
        (["--trace", "{trace}", "--suite", "nonexistent-suite"],
         "--suite applies only without --trace"),
        (["--hc-first", "64"], "--hc-first requires --defense"),
    ], ids=["gap-ns-without-trace", "suite-with-trace",
            "hc-first-without-defense"])
    def test_check_timing_rejects_flags_that_would_do_nothing(
        self, argv, message, tmp_path, capsys
    ):
        trace = tmp_path / "trace.txt"
        trace.write_text("0x1000 R\n0x2000 W\n")
        argv = [arg.format(trace=trace) for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            runner.main(["check-timing", *argv])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("device, data_rate_mts", [
        ("DDR5-4800", 4800), ("LPDDR4-3200", 3200),
    ])
    def test_check_timing_json_reports_the_device_data_rate(
        self, device, data_rate_mts, capsys
    ):
        """``speed_mts`` names the rate ``--device`` ran at, not
        ``--speed``'s DDR4 default."""
        status = runner.main([
            "check-timing", "--json", "--device", device, "--cores", "1",
            "--requests-per-core", "50", "--rows-per-bank", "512",
        ])
        assert status == 0
        document = json.loads(capsys.readouterr().out)
        assert document["device"] == device
        assert document["speed_mts"] == data_rate_mts

    @pytest.mark.parametrize("argv, usage", [
        (["recipe"], RECIPE_USAGE),
        (["recipe", "bogus"], RECIPE_USAGE),
        (["queue"], QUEUE_USAGE),
        (["queue", "bogus"], QUEUE_USAGE),
    ], ids=["recipe", "recipe-bogus", "queue", "queue-bogus"])
    def test_subcommand_without_a_known_verb_prints_usage(
        self, argv, usage, capsys
    ):
        assert runner.main(argv) == 2
        assert capsys.readouterr().err == usage + "\n"
