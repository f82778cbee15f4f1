"""Determinism and cache-correctness tests for repro.orchestration.

The contract under test: an experiment's results are a pure function
of ``(ExperimentScale, code version)`` -- bit-identical whether tasks
run serially, across a process pool, or come out of a warm on-disk
cache; and the cache never serves an entry across scales, code
versions, or corrupted files.
"""

import dataclasses
import shutil

import pytest

from repro.experiments import fig12_performance, fig13_adversarial
from repro.experiments.common import (
    DEFENSE_EPOCH_NS,
    ExperimentScale,
    _CHARACTERIZATION_CACHE,
    characterize_modules,
)
from repro.experiments.api import all_experiments
from repro.orchestration import (
    OrchestrationContext,
    ResultCache,
    Task,
    TaskGroup,
    canonicalize,
    derive_task_seed,
    make_task,
    scan_cache_entry_keys,
    shard_name,
    stable_hash,
)
from repro.sim.config import SystemConfig
from tests.conftest import PARITY_SCALES

#: Small enough that the three-way fig12 comparison stays in seconds:
#: 1 baseline + (No Svärd, Svärd-S0) x 1 HC x 1 mix = 3 tasks.
TINY = ExperimentScale(
    rows_per_bank=1024,
    banks=(1,),
    n_mixes=1,
    requests_per_core=600,
    hc_first_values=(64,),
    svard_profiles=("S0",),
    seed=5,
)


def _double(task: Task):
    return task.params * 2


def _fig12(scale, orchestration=None):
    return fig12_performance.run(
        scale, defenses=("PARA",), orchestration=orchestration
    )


# ----------------------------------------------------------------------
# Determinism: serial == parallel == warm cache; seeds matter.
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_serial_parallel_warm_cache_identical(self, tmp_path):
        serial = _fig12(TINY)
        parallel = _fig12(TINY, OrchestrationContext(jobs=2))
        cold_ctx = OrchestrationContext(jobs=2, cache=ResultCache(tmp_path))
        cold = _fig12(TINY, cold_ctx)
        warm_ctx = OrchestrationContext(jobs=2, cache=ResultCache(tmp_path))
        warm = _fig12(TINY, warm_ctx)

        # Bit-identical metrics, not approximately equal.
        assert serial.metrics == parallel.metrics
        assert serial.metrics == cold.metrics
        assert serial.metrics == warm.metrics

        assert cold_ctx.stats.executed == cold_ctx.stats.submitted == 3
        # The warm run recalls every task: zero simulations executed,
        # cache-hit counter equals the task count.
        assert warm_ctx.stats.executed == 0
        assert warm_ctx.stats.hits == warm_ctx.stats.submitted == 3

    def test_distinct_seeds_differ(self):
        from dataclasses import replace

        a = _fig12(TINY)
        b = _fig12(replace(TINY, seed=6))
        assert a.metrics != b.metrics

    def test_fig13_parallel_identical(self, tmp_path):
        from repro.sim.config import SystemConfig

        scale = ExperimentScale(
            rows_per_bank=1024, banks=(1,), svard_profiles=("S0",), seed=4,
        )
        # fig13 defaults to 12K requests/core; a small explicit config
        # keeps this equivalence check fast.
        config = SystemConfig(
            requests_per_core=1500, defense_epoch_ns=DEFENSE_EPOCH_NS
        )
        serial = fig13_adversarial.run(scale, system_config=config)
        ctx = OrchestrationContext(jobs=2, cache=ResultCache(tmp_path))
        parallel = fig13_adversarial.run(
            scale, system_config=config, orchestration=ctx
        )
        assert serial.normalized_slowdown == parallel.normalized_slowdown
        assert serial.raw_slowdown == parallel.raw_slowdown

    def test_characterization_parallel_identical(self):
        import numpy as np

        scale = ExperimentScale(rows_per_bank=256, banks=(0, 1), seed=7)
        serial = characterize_modules(["S0"], scale)["S0"]
        _CHARACTERIZATION_CACHE.clear()
        parallel = characterize_modules(
            ["S0"], scale, orchestration=OrchestrationContext(jobs=2)
        )["S0"]
        _CHARACTERIZATION_CACHE.clear()
        for bank in serial.banks:
            np.testing.assert_array_equal(
                serial.banks[bank].measured_hc_first,
                parallel.banks[bank].measured_hc_first,
            )
            np.testing.assert_array_equal(
                serial.banks[bank].ber_at_128k,
                parallel.banks[bank].ber_at_128k,
            )

    def test_derived_seeds_deterministic_and_distinct(self):
        assert derive_task_seed(0, ("a", 1)) == derive_task_seed(0, ("a", 1))
        assert derive_task_seed(0, ("a", 1)) != derive_task_seed(0, ("a", 2))
        assert derive_task_seed(0, ("a", 1)) != derive_task_seed(1, ("a", 1))
        task = make_task(("k",), _double, 21, base_seed=3)
        assert task.seed == derive_task_seed(3, ("k",))


# ----------------------------------------------------------------------
# Cache correctness: scoping, corruption, atomicity of identity.
# ----------------------------------------------------------------------


class TestCacheCorrectness:
    def test_entry_not_served_across_scales(self, tmp_path):
        cache = ResultCache(tmp_path)
        ctx = OrchestrationContext(cache=cache)
        task = make_task(("t",), _double, 21)
        assert ctx.run([task], fingerprint=TINY) == {("t",): 42}

        from dataclasses import replace

        other = replace(TINY, seed=6)
        ctx2 = OrchestrationContext(cache=ResultCache(tmp_path))
        assert ctx2.run([task], fingerprint=other) == {("t",): 42}
        assert ctx2.stats.hits == 0 and ctx2.stats.executed == 1

        # Same scale again: served from disk.
        ctx3 = OrchestrationContext(cache=ResultCache(tmp_path))
        assert ctx3.run([task], fingerprint=TINY) == {("t",): 42}
        assert ctx3.stats.hits == 1 and ctx3.stats.executed == 0

    def test_entry_not_served_across_code_versions(self, tmp_path):
        task = make_task(("t",), _double, 21)
        old = OrchestrationContext(cache=ResultCache(tmp_path, version="v1"))
        old.run([task], fingerprint=TINY)
        new = OrchestrationContext(cache=ResultCache(tmp_path, version="v2"))
        new.run([task], fingerprint=TINY)
        assert new.stats.hits == 0 and new.stats.executed == 1

    @pytest.mark.parametrize("garbage", [b"", b"not a pickle", b"\x80\x04junk"])
    def test_corrupt_entry_discarded_and_recomputed(self, tmp_path, garbage):
        cache = ResultCache(tmp_path)
        task = make_task(("t",), _double, 21)
        OrchestrationContext(cache=cache).run([task], fingerprint=TINY)
        path = cache.path_for(cache.entry_key(task.key, TINY))
        assert path.exists()
        path.write_bytes(garbage)

        fresh = ResultCache(tmp_path)
        ctx = OrchestrationContext(cache=fresh)
        assert ctx.run([task], fingerprint=TINY) == {("t",): 42}
        assert ctx.stats.executed == 1
        assert fresh.stats.corrupt_discarded == 1
        # The corrupt file was replaced by a valid recomputed entry.
        ctx2 = OrchestrationContext(cache=ResultCache(tmp_path))
        assert ctx2.run([task], fingerprint=TINY) == {("t",): 42}
        assert ctx2.stats.hits == 1

    def test_entry_copied_to_wrong_key_rejected(self, tmp_path):
        """A valid pickle stored under the wrong hash is not trusted."""
        cache = ResultCache(tmp_path)
        task = make_task(("t",), _double, 21)
        OrchestrationContext(cache=cache).run([task], fingerprint=TINY)
        src = cache.path_for(cache.entry_key(task.key, TINY))

        imposter = make_task(("other",), _double, 1)
        dst = cache.path_for(cache.entry_key(imposter.key, TINY))
        dst.parent.mkdir(parents=True, exist_ok=True)  # its shard
        shutil.copy(src, dst)

        fresh = ResultCache(tmp_path)
        ctx = OrchestrationContext(cache=fresh)
        assert ctx.run([imposter], fingerprint=TINY) == {("other",): 2}
        assert ctx.stats.executed == 1
        assert fresh.stats.corrupt_discarded == 1

    def test_duplicate_task_keys_rejected(self):
        tasks = [make_task(("k",), _double, 1), make_task(("k",), _double, 2)]
        with pytest.raises(ValueError, match="duplicate"):
            OrchestrationContext().run(tasks)

    def test_cache_survives_unpicklable_dir_listing(self, tmp_path):
        """Stray files in the cache directory are simply ignored."""
        (tmp_path / "README.txt").write_text("not a cache entry")
        ctx = OrchestrationContext(cache=ResultCache(tmp_path))
        task = make_task(("t",), _double, 5)
        assert ctx.run([task], fingerprint=None) == {("t",): 10}


# ----------------------------------------------------------------------
# Sharded layout: fan-out on store, honest scans.
# ----------------------------------------------------------------------


class TestShardedLayout:
    def test_store_lands_in_the_prefix_shard(self, tmp_path):
        from repro.orchestration import shard_name
        from repro.orchestration.cache import SHARD_WIDTH

        cache = ResultCache(tmp_path)
        task = make_task(("t",), _double, 21)
        entry_key = cache.entry_key(task.key, TINY)
        OrchestrationContext(cache=cache).run([task], fingerprint=TINY)
        path = cache.path_for(entry_key)
        assert path.parent == tmp_path / entry_key[:SHARD_WIDTH]
        assert path.parent.name == shard_name(entry_key)
        assert path.exists()

    def test_non_shard_directories_never_scanned(self, tmp_path):
        """`queue/` lives inside the cache directory; its name is
        longer than a shard's, so scans skip it and whatever .pkl files
        it holds (failure records!)."""
        from repro.orchestration.cache import is_shard_dir

        assert not is_shard_dir("queue")
        assert not is_shard_dir(".hidden")
        assert is_shard_dir("ab") and is_shard_dir("k1")

        cache = ResultCache(tmp_path)
        failed = tmp_path / "queue" / "failed"
        failed.mkdir(parents=True)
        (failed / "record.pkl").write_bytes(b"x")
        cache.store("k1", ("t",), 1)
        assert scan_cache_entry_keys(tmp_path) == {"k1"}

    def test_serial_process_queue_identical_on_sharded_cache(
        self, tmp_path
    ):
        """The three-backend equivalence holds across the new layout --
        and a queue run warms the same sharded entries a serial run
        then hits."""
        from repro.orchestration import QueueBackend, default_queue_dir

        serial = _fig12(TINY)
        cache_dir = tmp_path / "cache"
        queue_ctx = OrchestrationContext(
            cache=ResultCache(cache_dir),
            backend=QueueBackend(default_queue_dir(cache_dir)),
        )
        with queue_ctx:
            queued = _fig12(TINY, queue_ctx)
        assert serial.metrics == queued.metrics
        warm_ctx = OrchestrationContext(cache=ResultCache(cache_dir))
        warm = _fig12(TINY, warm_ctx)
        assert serial.metrics == warm.metrics
        assert warm_ctx.stats.hits == warm_ctx.stats.submitted == 3


# ----------------------------------------------------------------------
# Hashing primitives.
# ----------------------------------------------------------------------


class TestHashing:
    def test_canonicalize_dataclass_field_order_independent(self):
        assert stable_hash(TINY) == stable_hash(
            ExperimentScale(**{
                f: getattr(TINY, f)
                for f in ("rows_per_bank", "banks", "modules", "n_mixes",
                          "requests_per_core", "hc_first_values",
                          "svard_profiles", "seed")
            })
        )

    def test_dict_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_type_distinctions(self):
        assert stable_hash(1) != stable_hash(1.0)
        assert stable_hash("1") != stable_hash(1)
        assert stable_hash((1,)) != stable_hash(1)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError, match="canonicalize"):
            canonicalize(object())

    def test_omit_if_none_fields_are_invisible_when_unset(self):
        # The device dimension rides on ExperimentScale behind an
        # OMIT_IF_NONE field: leaving it unset must not perturb any
        # pre-existing cache key.
        base = ExperimentScale()
        assert "device" not in canonicalize(base)
        assert "device" in canonicalize(
            dataclasses.replace(base, device="DDR4-3200")
        )
        assert stable_hash(base) != stable_hash(
            dataclasses.replace(base, device="LPDDR4-3200")
        )

    def test_pinned_cache_keys_for_default_configs(self):
        # Frozen hashes of the two central dataclasses, captured before
        # the device-generation refactor.  If either moves, every
        # cached DDR4 artifact silently invalidates -- do not update
        # these without meaning to.
        assert stable_hash(ExperimentScale()) == (
            "e6768f8dd8f7950c4bd054525e81a73c6ca6c0f1904a08e36594c355cdaac886"
        )
        assert stable_hash(SystemConfig()) == (
            "4e943bfcfa900302845bf9338ace0e850ec5eb8d69443ad69f6ba2b577742a15"
        )

    def test_progress_callback_sees_every_task(self, tmp_path):
        seen = []
        ctx = OrchestrationContext(
            cache=ResultCache(tmp_path),
            progress=lambda done, total, key: seen.append((done, total, key)),
        )
        tasks = [make_task((i,), _double, i) for i in range(3)]
        ctx.run(tasks, fingerprint=None)
        assert [s[0] for s in seen] == [1, 2, 3]
        assert all(s[1] == 3 for s in seen)


# ----------------------------------------------------------------------
# Entry keys: one fingerprint canonicalization per task group.
# ----------------------------------------------------------------------

#: ``entry_key(PINNED_TASK_KEY, PINNED_FINGERPRINT)`` under code version
#: ``"pinned-version"``, computed from ``stable_hash((key, fingerprint,
#: version))`` before keys were built a group at a time.
PINNED_TASK_KEY = ("fig12", "mix", 0, "Hydra", 64)
PINNED_ENTRY_KEY = (
    "aebd514ff18b7de9db4eb3ce93f511723ac31f3c93a7540f8071e780e804fa74"
)


class TestEntryKeys:
    def test_pinned_entry_key(self, tmp_path):
        cache = ResultCache(tmp_path, version="pinned-version")
        fingerprint = ("fig12", ExperimentScale(), SystemConfig())
        assert cache.entry_key(PINNED_TASK_KEY, fingerprint) == PINNED_ENTRY_KEY
        assert cache.entry_keys([PINNED_TASK_KEY], fingerprint) == [
            PINNED_ENTRY_KEY
        ]

    def test_group_keys_equal_per_task_keys_for_every_experiment(
        self, tmp_path
    ):
        """Every registered experiment's groups at its parity scale."""
        cache = ResultCache(tmp_path, version="v")
        groups = 0
        for name, experiment in all_experiments().items():
            scale = PARITY_SCALES.get(name, ExperimentScale())
            for group in experiment.build_tasks(scale, OrchestrationContext()):
                keys = [task.key for task in group.tasks]
                batched = cache.entry_keys(keys, group.fingerprint)
                assert batched == [
                    cache.entry_key(key, group.fingerprint) for key in keys
                ], name
                assert batched == [
                    stable_hash((key, group.fingerprint, cache.version))
                    for key in keys
                ], name
                groups += 1
        assert groups > len(PARITY_SCALES)

    def test_int_and_float_fingerprints_name_different_entries(self, tmp_path):
        """``36 == 36.0`` with equal hashes, but they canonicalize apart,
        so two groups in one submission must not share keys."""
        assert ("x", 36) == ("x", 36.0) and hash(36) == hash(36.0)
        ctx = OrchestrationContext(cache=ResultCache(tmp_path))
        ctx.run_groups([
            TaskGroup(tasks=(make_task(("a",), _double, 1),),
                      fingerprint=("x", 36)),
            TaskGroup(tasks=(make_task(("b",), _double, 2),),
                      fingerprint=("x", 36.0)),
        ])
        assert ctx.stats.executed == 2
        cache = ctx.cache
        assert cache.entry_key(("a",), ("x", 36)) != cache.entry_key(
            ("a",), ("x", 36.0)
        )
        # ("a",) was stored under the int fingerprint only.
        replay = OrchestrationContext(cache=ResultCache(tmp_path))
        replay.run_groups([
            TaskGroup(tasks=(make_task(("a",), _double, 1),),
                      fingerprint=("x", 36.0)),
            TaskGroup(tasks=(make_task(("b",), _double, 2),),
                      fingerprint=("x", 36.0)),
        ])
        assert (replay.stats.hits, replay.stats.executed) == (1, 1)
