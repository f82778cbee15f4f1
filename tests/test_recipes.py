"""The declarative recipe subsystem: registry, manifests, CLI."""

import json

import pytest

from repro.experiments.recipes import (
    DEFENSE_GRID_GENERATIONS,
    FIG7_TAGGON_SWEEP,
    FIG12_PAPER_GRID,
    Recipe,
    RecipeError,
    all_recipes,
    get_recipe,
)
from repro.experiments import runner


class TestCheckedInRecipes:
    def test_registry_contains_the_paper_grids(self):
        recipes = all_recipes()
        assert "fig12-paper-grid" in recipes
        assert "fig7-taggon-sweep" in recipes
        for recipe in recipes.values():
            recipe.validate_experiments()  # names resolve in the registry

    def test_fig12_paper_grid_is_paper_scale(self):
        scale = FIG12_PAPER_GRID.scale(seed=0)
        assert scale.n_mixes == 120
        # The paper's seven HC_first points survive untouched.
        assert scale.hc_first_values == (4096, 2048, 1024, 512, 256, 128, 64)
        assert scale.svard_profiles == ("H1", "M0", "S0")

    def test_fig7_sweep_extends_the_paper_points(self):
        scale = FIG7_TAGGON_SWEEP.scale(seed=0)
        assert len(scale.t_agg_on_sweep_ns) == 8
        # The paper's three points are a subset, so Fig 7 proper can be
        # read straight off this sweep.
        assert {36.0, 500.0, 2000.0} <= set(scale.t_agg_on_sweep_ns)

    def test_smoke_scales_are_tiny(self):
        for recipe in all_recipes().values():
            smoke = recipe.scale(seed=0, smoke=True)
            assert smoke.rows_per_bank <= 512
            assert smoke.n_mixes <= 1 or smoke.n_mixes == smoke.n_mixes

    def test_generation_grid_sweeps_the_three_devices(self):
        assert "defense-grid-generations" in all_recipes()
        assert DEFENSE_GRID_GENERATIONS.devices == (
            "DDR4-3200", "LPDDR4-3200", "DDR5-4800",
        )
        runs = DEFENSE_GRID_GENERATIONS.runs()
        assert [scale.device for _, _, scale in runs] == [
            "DDR4-3200", "LPDDR4-3200", "DDR5-4800",
        ]

    def test_runs_matrix_crosses_devices_with_seeds(self):
        recipe = Recipe(
            name="x", version=1, description="", experiments=("fig12",),
            seeds=(0, 1), devices=("DDR4-3200", "DDR5-4800"),
        )
        runs = recipe.runs()
        assert [(seed, scale.device) for _, seed, scale in runs] == [
            (0, "DDR4-3200"), (0, "DDR5-4800"),
            (1, "DDR4-3200"), (1, "DDR5-4800"),
        ]

    def test_runs_matrix_applies_seeds(self):
        recipe = Recipe(
            name="x", version=1, description="", experiments=("fig12",),
            seeds=(3, 4),
        )
        runs = recipe.runs()
        assert [(name, seed) for name, seed, _ in runs] == [
            ("fig12", 3), ("fig12", 4),
        ]
        assert all(scale.seed == seed for _, seed, scale in runs)


class TestRecipeValidation:
    def test_unknown_scale_field_rejected(self):
        with pytest.raises(RecipeError, match="unknown ExperimentScale"):
            Recipe(name="x", version=1, description="",
                   experiments=("fig12",), overrides={"warp_factor": 9})

    def test_unknown_experiment_rejected_at_validation(self):
        recipe = Recipe(name="x", version=1, description="",
                        experiments=("fig99",))
        with pytest.raises(RecipeError, match="unknown experiment"):
            recipe.validate_experiments()

    def test_empty_seed_matrix_rejected(self):
        with pytest.raises(RecipeError, match="seed"):
            Recipe(name="x", version=1, description="",
                   experiments=("fig12",), seeds=())

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(RecipeError, match="duplicate seeds"):
            Recipe(name="x", version=1, description="",
                   experiments=("fig12",), seeds=(1, 1))

    def test_unknown_device_rejected(self):
        with pytest.raises(RecipeError, match="unknown device"):
            Recipe(name="x", version=1, description="",
                   experiments=("fig12",), devices=("DDR3-1600",))

    def test_duplicate_devices_rejected(self):
        with pytest.raises(RecipeError, match="duplicate devices"):
            Recipe(name="x", version=1, description="",
                   experiments=("fig12",),
                   devices=("DDR4-3200", "DDR4-3200"))

    def test_invalid_override_value_surfaces_cleanly(self):
        recipe = Recipe(name="x", version=1, description="",
                        experiments=("fig12",),
                        overrides={"rows_per_bank": 8})
        with pytest.raises(RecipeError, match="invalid scale"):
            recipe.scale(seed=0)

    def test_wrong_typed_override_surfaces_cleanly(self):
        """A JSON-string-where-a-number-belongs manifest mistake must
        become a one-line RecipeError, not a TypeError traceback."""
        recipe = Recipe(name="x", version=1, description="",
                        experiments=("fig12",),
                        overrides={"rows_per_bank": "4096"})
        with pytest.raises(RecipeError, match="invalid scale"):
            recipe.scale(seed=0)


    def test_negative_seed_surfaces_cleanly(self):
        recipe = Recipe(name="x", version=1, description="",
                        experiments=("fig3",), seeds=(-1,))
        with pytest.raises(RecipeError, match="invalid scale: seed"):
            recipe.runs()


class TestManifestRoundTrip:
    def test_round_trip_exact(self):
        for recipe in all_recipes().values():
            assert Recipe.from_manifest(recipe.to_manifest()) == recipe

    def test_round_trip_freezes_json_lists(self):
        manifest = FIG7_TAGGON_SWEEP.to_manifest()
        reloaded = Recipe.from_manifest(json.loads(json.dumps(manifest)))
        assert reloaded == FIG7_TAGGON_SWEEP
        assert isinstance(reloaded.overrides["t_agg_on_sweep_ns"], tuple)

    def test_unrecognized_manifest_rejected(self):
        with pytest.raises(RecipeError, match="manifest"):
            Recipe.from_manifest({"format": 99})

    def test_get_recipe_loads_manifest_files(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps({
            "format": 1,
            "name": "custom",
            "version": 2,
            "description": "ad-hoc grid",
            "experiments": ["sec64"],
            "overrides": {},
            "seeds": [7],
        }))
        recipe = get_recipe(path)
        assert recipe.name == "custom"
        assert recipe.version == 2
        assert recipe.seeds == (7,)

    def test_get_recipe_unknown_name(self):
        with pytest.raises(RecipeError, match="unknown recipe"):
            get_recipe("no-such-recipe")


class TestRecipeCli:
    def test_recipe_list_json(self, capsys):
        assert runner.main(["recipe", "list", "--format", "json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["fig12-paper-grid"]["overrides"]["n_mixes"] == 120
        assert listing["fig7-taggon-sweep"]["version"] == 1

    def test_recipe_show(self, capsys):
        assert runner.main(["recipe", "show", "fig12-paper-grid"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["name"] == "fig12-paper-grid"
        assert manifest["format"] == 1

    def test_recipe_show_unknown(self, capsys):
        assert runner.main(["recipe", "show", "nope"]) == 1
        assert "unknown recipe" in capsys.readouterr().err

    def test_recipe_run_writes_seed_partitioned_artifacts(
        self, tmp_path, capsys
    ):
        """A cheap two-seed recipe lands one artifact tree per seed,
        each stamped with recipe provenance."""
        manifest = tmp_path / "cost.json"
        manifest.write_text(json.dumps({
            "format": 1,
            "name": "cost-check",
            "version": 3,
            "description": "hardware cost at two seeds",
            "experiments": ["sec64"],
            "seeds": [0, 1],
        }))
        out_dir = tmp_path / "out"
        code = runner.main([
            "recipe", "run", str(manifest),
            "--no-cache", "--format", "json", "--out", str(out_dir),
        ])
        assert code == 0
        for seed in (0, 1):
            data = json.loads((out_dir / f"seed{seed}" / "sec64.json").read_text())
            assert data["meta"]["recipe"] == {
                "name": "cost-check", "version": 3,
                "seed": seed, "smoke": False,
            }
            assert data["meta"]["scale"]["seed"] == seed

    def test_recipe_run_negative_seed_is_one_line(self, tmp_path, capsys):
        manifest = tmp_path / "negative.json"
        manifest.write_text(json.dumps({
            "format": 1, "name": "negative", "version": 1,
            "experiments": ["fig3"], "seeds": [-1],
        }))
        code = runner.main(["recipe", "run", str(manifest), "--no-cache"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: recipe negative: invalid scale: seed must be >= 0, got -1"
        ]

    def test_recipe_run_unknown(self, capsys):
        assert runner.main(["recipe", "run", "nope"]) == 1
        assert "unknown recipe" in capsys.readouterr().err

    def test_recipe_run_rejects_queue_with_no_cache(self, capsys):
        with pytest.raises(SystemExit):
            runner.main([
                "recipe", "run", "fig12-paper-grid",
                "--backend", "queue", "--no-cache",
            ])

    def test_jobs_rejected_on_backends_it_cannot_affect(self, capsys):
        """--jobs with the serial/queue backend would silently run
        single-threaded; refuse it instead."""
        for backend in ("serial", "queue"):
            with pytest.raises(SystemExit):
                runner.main([
                    "run", "fig12", "--backend", backend, "--jobs", "4",
                ])

    def test_t_agg_on_cli_flag(self, tmp_path, capsys):
        """--t-agg-on feeds ExperimentScale.t_agg_on_sweep_ns (fig7's
        sweep points now come from the scale, not a constant)."""
        code = runner.main([
            "run", "fig7",
            "--rows-per-bank", "256", "--banks", "1", "--modules", "S0",
            "--t-agg-on", "36,2000",
            "--no-cache", "--format", "json",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["meta"]["scale"]["t_agg_on_sweep_ns"] == [36.0, 2000.0]
        t_values = {
            row[1] for row in document["tables"][0]["rows"]
        }
        assert t_values == {36.0, 2000.0}
