"""Tests for the five read-disturbance defenses and their substrates."""

import numpy as np
import pytest

from repro.core.profile import VulnerabilityProfile
from repro.core.svard import Svard
from repro.defenses import DEFENSE_CLASSES
from repro.defenses.aqua import Aqua
from repro.defenses.base import (
    CounterTraffic,
    RowMigration,
    RowSwap,
    SvardThresholds,
    ThrottleDelay,
    VictimRefresh,
)
from repro.defenses.blockhammer import BlockHammer
from repro.defenses.bloom import CountingBloomFilter, DualCountingBloomFilter
from repro.defenses.hydra import Hydra
from repro.defenses.para import Para
from repro.defenses.rrs import MisraGriesTracker, RandomizedRowSwap
from repro.dram.timing import DDR4_3200
from repro.faults.modules import module_by_label


class TestCountingBloomFilter:
    def test_never_underestimates(self):
        filt = CountingBloomFilter(n_counters=256, n_hashes=4, seed=0)
        for _ in range(50):
            filt.insert(42)
        for _ in range(5):
            filt.insert(43)
        assert filt.estimate(42) >= 50
        assert filt.estimate(43) >= 5

    def test_clear(self):
        filt = CountingBloomFilter(seed=0)
        filt.insert(1)
        filt.clear()
        assert filt.estimate(1) == 0

    def test_total_insertions(self):
        filt = CountingBloomFilter(seed=0)
        for i in range(30):
            filt.insert(i)
        assert filt.total_insertions == 30

    def test_dual_filter_overlapping_history(self):
        dual = DualCountingBloomFilter(n_counters=256, seed=0)
        for _ in range(10):
            dual.insert(7)
        dual.rotate()
        # History from before the boundary is still visible.
        assert dual.estimate(7) >= 10
        dual.rotate()
        # After two rotations the old history has expired.
        assert dual.estimate(7) == 0

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            CountingBloomFilter(n_counters=0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_matches_numpy_reference(self, seed):
        """Same counters, estimates and totals as the numpy filter."""
        filt = CountingBloomFilter(n_counters=256, seed=seed)
        reference = NumpyCountingBloomFilter(n_counters=256, seed=seed)
        keys = np.random.default_rng(1000 + seed).integers(0, 1 << 17, size=600)
        for key in [109, 109, *keys.tolist()]:
            filt.insert(key)
            reference.insert(key)
        assert list(filt._counters) == reference._counters.tolist()
        for key in [109, *keys[:100].tolist(), *range(50)]:
            assert filt.estimate(key) == reference.estimate(key)
        assert filt.total_insertions == reference.total_insertions

    def test_repeated_hash_index_counts_once(self):
        """Seed 0, key 109 hashes to [237, 11, 34, 237] at 1024 counters;
        like numpy's ``counters[idx] += 1``, an insert bumps 237 once."""
        filt = CountingBloomFilter(seed=0)
        reference = NumpyCountingBloomFilter(seed=0)
        assert reference._indices(109).tolist() == [237, 11, 34, 237]
        filt.insert(109)
        reference.insert(109)
        assert list(filt._counters) == reference._counters.tolist()
        assert filt._counters[237] == 1
        assert filt.estimate(109) == reference.estimate(109) == 1
        assert filt.total_insertions == reference.total_insertions == 0


class NumpyCountingBloomFilter:
    """The numpy counting Bloom filter, kept as a reference."""

    def __init__(self, n_counters=1024, n_hashes=4, seed=0):
        self.n_counters = n_counters
        self.n_hashes = n_hashes
        self._counters = np.zeros(n_counters, dtype=np.int64)
        rng = np.random.default_rng(seed)
        self._multipliers = rng.integers(1, 2**31, size=n_hashes) * 2 + 1
        self._offsets = rng.integers(0, 2**31, size=n_hashes)

    def _indices(self, key):
        return ((key * self._multipliers + self._offsets) >> 7) % self.n_counters

    def insert(self, key):
        self._counters[self._indices(key)] += 1

    def estimate(self, key):
        return int(self._counters[self._indices(key)].min())

    @property
    def total_insertions(self):
        return int(self._counters.sum() // self.n_hashes)


class TestBloomIndexMemo:
    def test_memoized_hashes_cross_clear_and_rotate(self):
        """Keys hashed before a ``clear()`` or ``rotate()`` keep counting
        and estimating like the numpy reference after it."""
        filt = CountingBloomFilter(n_counters=256, seed=3)
        reference = NumpyCountingBloomFilter(n_counters=256, seed=3)
        dual = DualCountingBloomFilter(n_counters=256, seed=3)
        dual_references = [
            NumpyCountingBloomFilter(n_counters=256, seed=3),
            NumpyCountingBloomFilter(n_counters=256, seed=4),
        ]
        older = 0
        rng = np.random.default_rng(9)
        keys = [109, *rng.integers(0, 1 << 17, size=40).tolist()]
        for round_ in range(4):
            for key in rng.choice(keys, size=300).tolist():
                filt.insert(key)
                reference.insert(key)
                dual.insert(key)
                for numpy_filter in dual_references:
                    numpy_filter.insert(key)
            assert list(filt._counters) == reference._counters.tolist()
            for key in keys:
                assert filt.estimate(key) == reference.estimate(key)
                assert dual.estimate(key) == dual_references[older].estimate(key)
            filt.clear()
            reference._counters[:] = 0
            assert all(filt.estimate(key) == 0 for key in keys)
            dual.rotate()
            dual_references[older]._counters[:] = 0
            older = 1 - older


class TestMisraGries:
    def test_tracks_heavy_hitter(self):
        tracker = MisraGriesTracker(entries=4)
        for i in range(100):
            tracker.observe(1)
            tracker.observe(i + 10)
        assert tracker.counts.get(1, 0) > 20

    def test_reset(self):
        tracker = MisraGriesTracker(entries=4)
        tracker.observe(5)
        tracker.reset(5)
        assert 5 not in tracker.counts

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            MisraGriesTracker(entries=0)


class TestPara:
    def test_probability_inverse_in_threshold(self):
        para = Para(hc_first=1000)
        assert para.refresh_probability(1000) > para.refresh_probability(10000)

    def test_probability_clamps_at_one(self):
        para = Para(hc_first=10)
        assert para.refresh_probability(10) == 1.0

    def test_refresh_rate_matches_probability(self):
        para = Para(hc_first=500, seed=1)
        refreshes = 0
        for i in range(20000):
            for m in para.on_activation(0, 100, i * 50.0):
                assert isinstance(m, VictimRefresh)
                refreshes += len(m.rows)
        expected = 2 * 20000 * para.refresh_probability(500)
        assert refreshes == pytest.approx(expected, rel=0.1)

    def test_probabilistic_security(self):
        """Within T hammers of one victim, a refresh lands w.h.p."""
        para = Para(hc_first=2000, seed=3)
        misses = 0
        trials = 200
        for trial in range(trials):
            hit = False
            for i in range(2000):
                for m in para.on_activation(0, 50, i * 50.0):
                    if 49 in m.rows or 51 in m.rows:
                        hit = True
                        break
                if hit:
                    break
            misses += 0 if hit else 1
        assert misses == 0  # failure odds ~2^-80 per trial

    def test_edge_row_single_victim(self):
        para = Para(hc_first=10, seed=0)
        mitigations = para.on_activation(0, 0, 0.0)
        assert mitigations[0].rows == (1,)


class ReferencePara(Para):
    """PARA's hook without its per-``(bank, row)`` memo: each victim's
    threshold is looked up and its probability recomputed per ACT."""

    def on_activation(self, bank, row, now_ns):
        self.stats.activations_observed += 1
        refresh_rows = []
        for victim in self.victim_rows(row):
            p = self.refresh_probability(self.thresholds.threshold(bank, victim))
            if self._rng.random() < p:
                refresh_rows.append(victim)
        if not refresh_rows:
            return []
        mitigations = [VictimRefresh(bank=bank, rows=tuple(refresh_rows))]
        self.stats.record(mitigations)
        return mitigations


class TestParaReference:
    @pytest.mark.parametrize("provider", ["global", "svard"])
    @pytest.mark.parametrize("hc_first", [64, 4096])
    def test_matches_reference_hook(self, provider, hc_first):
        """Same mitigations per ACT, same final RNG state and same stats
        as the unmemoized hook, over random and edge rows of two banks
        with repeats."""
        thresholds = (
            make_svard_provider(hc_first)[0] if provider == "svard" else None
        )
        kwargs = dict(thresholds=thresholds, rows_per_bank=2048, seed=0)
        para = Para(hc_first, **kwargs)
        reference = ReferencePara(hc_first, **kwargs)
        rng = np.random.default_rng(17)
        rows = [*rng.integers(0, 2048, size=300).tolist(), 0, 1, 2046, 2047]
        acts = [
            (int(bank), int(row))
            for bank, row in zip(
                rng.integers(0, 2, size=4000), rng.choice(rows, size=4000)
            )
        ]
        for index, (bank, row) in enumerate(acts):
            assert para.on_activation(bank, row, index * 50.0) == (
                reference.on_activation(bank, row, index * 50.0)
            )
        assert para._rng.getstate() == reference._rng.getstate()
        assert para.stats == reference.stats
        assert para.stats.victim_refreshes > 0


def blockhammer(hc_first, epoch=DDR4_3200.tREFW):
    """A BlockHammer given its epoch the way the memory system gives it:
    by default DDR4's refresh window, what the engine hands a defense
    when ``defense_epoch_ns`` is unset."""
    defense = BlockHammer(hc_first=hc_first, seed=0)
    defense.epoch_ns = epoch
    return defense


class TestBlockHammer:
    def test_no_throttle_below_blacklist(self):
        defense = blockhammer(1000)
        for i in range(100):
            assert defense.on_activation(0, 5, i * 50.0) == []

    def test_throttles_hot_row(self):
        defense = blockhammer(1000)
        throttled = False
        now = 0.0
        for _ in range(600):
            for m in defense.on_activation(0, 5, now):
                assert isinstance(m, ThrottleDelay)
                throttled = True
                now += m.delay_ns
            now += 50.0
        assert throttled

    def test_throttle_caps_epoch_activation_count(self):
        """Security: a hammered row cannot exceed quota in an epoch."""
        epoch = 1_000_000.0  # small epoch for a fast test
        defense = blockhammer(512, epoch=epoch)
        now, activations = 0.0, 0
        while now < epoch:
            delay = sum(
                m.delay_ns
                for m in defense.on_activation(0, 5, now)
                if isinstance(m, ThrottleDelay)
            )
            now += 50.0 + delay
            if now < epoch:
                activations += 1
        quota = defense.quota_fraction * 512
        # The Bloom filter overestimates, so the cap holds with margin.
        assert activations <= quota + defense.blacklist_fraction * 512 + 1

    def test_never_refreshes(self):
        defense = blockhammer(100)
        for i in range(500):
            for m in defense.on_activation(0, 5, i * 50.0):
                assert not isinstance(m, VictimRefresh)

    def test_epoch_rotation_forgets_history(self):
        defense = blockhammer(400)
        for i in range(300):
            defense.on_activation(0, 5, i * 50.0)
        defense.on_refresh_window(1e9)
        defense.on_refresh_window(2e9)
        assert defense.on_activation(0, 5, 2.1e9) == []

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BlockHammer(hc_first=100, blacklist_fraction=0.9, quota_fraction=0.5)


class TestHydra:
    def test_quiet_groups_cost_nothing(self):
        defense = Hydra(hc_first=10000, seed=0)
        for row in range(0, 1000, 7):
            assert defense.on_activation(0, row, 50.0 * row) == []

    def test_escalation_produces_counter_traffic(self):
        defense = Hydra(hc_first=1000, rcc_entries=4, seed=0)
        traffic = 0
        # Hammer 12 rows in distinct groups hard enough to escalate
        # them all, then keep cycling to thrash the 4-entry RCC.
        for i in range(6000):
            row = (i % 12) * defense.group_size
            for m in defense.on_activation(0, row, i * 50.0):
                if isinstance(m, CounterTraffic):
                    traffic += m.reads + m.writes
        assert traffic > 100

    def test_refresh_fires_at_half_threshold(self):
        defense = Hydra(hc_first=400, seed=0)
        refreshes = []
        for i in range(400):
            for m in defense.on_activation(0, 64, i * 50.0):
                if isinstance(m, VictimRefresh):
                    refreshes.append(i)
        assert refreshes, "expected a preventive refresh"
        assert refreshes[0] < 400 * defense.refresh_fraction + 2

    def test_rcc_hit_has_no_traffic(self):
        defense = Hydra(hc_first=400, seed=0)
        # Escalate one group and touch it repeatedly.
        reads = 0
        for i in range(200):
            for m in defense.on_activation(0, 64, i * 50.0):
                if isinstance(m, CounterTraffic):
                    reads += m.reads
        assert reads <= 1  # only the first escalated access misses

    def test_refresh_window_resets(self):
        defense = Hydra(hc_first=400, seed=0)
        for i in range(200):
            defense.on_activation(0, 64, i * 50.0)
        defense.on_refresh_window(1e9)
        assert defense.on_activation(0, 64, 1.1e9) == []


class ReferenceHydra(Hydra):
    """Hydra's hook in its plain form, the oracle the one-body hook
    must match: a group-key helper, an RCC access that returns
    ``(reads, writes)`` and tracks a dirty flag per cached counter, a
    fresh ``CounterTraffic`` per miss, and an unmemoized binding
    threshold."""

    def _group_of(self, bank, row):
        return (bank, row // self.group_size)

    def _rcc_access(self, bank, row):
        key = (bank, row)
        if key in self._rcc:
            self._rcc.move_to_end(key)
            self._rcc[key] = True  # counter incremented: dirty
            return 0, 0
        reads, writes = 1, 0  # miss: fetch the counter from DRAM
        if len(self._rcc) >= self.rcc_entries:
            _, dirty = self._rcc.popitem(last=False)
            if dirty:
                writes += 1  # write back the evicted counter
        self._rcc[key] = True
        return reads, writes

    def min_victim_threshold(self, bank, row):
        return direct_min_victim_threshold(self, bank, row)

    def on_activation(self, bank, row, now_ns):
        self.stats.activations_observed += 1
        mitigations = []
        group = self._group_of(bank, row)
        threshold = self.min_victim_threshold(bank, row)

        if group not in self._tracked_groups:
            count = self._group_counts.get(group, 0) + 1
            self._group_counts[group] = count
            if count > self.gct_fraction * threshold:
                self._tracked_groups.add(group)
            else:
                return []

        reads, writes = self._rcc_access(bank, row)
        if reads or writes:
            mitigations.append(CounterTraffic(bank=bank, reads=reads, writes=writes))

        key = (bank, row)
        count = self._row_counts.get(key, self._group_counts.get(group, 0)) + 1
        self._row_counts[key] = count
        if count >= self.refresh_fraction * threshold:
            mitigations.append(VictimRefresh(bank=bank, rows=self.victim_rows(row)))
            self._row_counts[key] = 0
        self.stats.record(mitigations)
        return mitigations


def direct_min_victim_threshold(defense, bank, row):
    """The weakest victim's threshold, looked up on every call."""
    victims = defense.victim_rows(row)
    if not victims:
        return defense.hc_first
    return min(defense.thresholds.threshold(bank, victim) for victim in victims)


def hydra_streams(rows_per_bank, group_size):
    """ACT streams of ``(bank, row)``, with ``None`` marking an epoch."""
    rng = np.random.default_rng(5)
    # Random rows over a few groups of two banks: escalations, RCC
    # hits and preventive refreshes.
    few_groups = [
        (int(bank), int(row))
        for bank, row in zip(
            rng.integers(0, 2, size=3000),
            rng.integers(0, 3 * group_size, size=3000),
        )
    ]
    # A cycle over more rows than the 16-entry RCC holds, one group
    # apart: every escalated access misses and writes one back.
    cycle = [(index % 3, (index % 24) * group_size) for index in range(4000)]
    # The edge rows, whose single victim binds the threshold.
    edges = [(0, 0), (0, rows_per_bank - 1), (1, 1), (1, rows_per_bank - 2)] * 200
    stream = []
    for part in (few_groups, cycle, edges):
        for start in range(0, len(part), 700):
            stream.extend(part[start:start + 700])
            stream.append(None)
    return stream


class TestHydraReference:
    @pytest.mark.parametrize("provider", ["global", "svard"])
    @pytest.mark.parametrize("hc_first", [64, 256])
    def test_matches_reference_hook(self, provider, hc_first):
        """Same mitigations per ACT and same stats as the reference
        hook, across epoch resets, under both threshold providers."""
        thresholds = (
            make_svard_provider(hc_first)[0] if provider == "svard" else None
        )
        kwargs = dict(
            thresholds=thresholds, rows_per_bank=2048, rcc_entries=16, seed=0
        )
        hydra = Hydra(hc_first, **kwargs)
        reference = ReferenceHydra(hc_first, **kwargs)
        kinds = set()
        for index, act in enumerate(hydra_streams(2048, hydra.group_size)):
            if act is None:
                hydra.on_refresh_window(index * 50.0)
                reference.on_refresh_window(index * 50.0)
                continue
            bank, row = act
            mitigations = hydra.on_activation(bank, row, index * 50.0)
            assert mitigations == reference.on_activation(bank, row, index * 50.0)
            kinds.update(
                (type(m), getattr(m, "writes", None)) for m in mitigations
            )
        assert hydra.stats == reference.stats
        # Every kind of action the hook can return was exercised.
        assert kinds == {
            (CounterTraffic, 0), (CounterTraffic, 1), (VictimRefresh, None)
        }


class TestMinVictimThreshold:
    @pytest.mark.parametrize("provider", ["global", "svard"])
    def test_matches_direct_lookup(self, provider):
        """The memoized binding threshold equals the direct lookup at
        both bank edges, next to them and across the bank, on the
        profile's two banks and on banks beyond them, on first and
        repeated calls."""
        thresholds = None
        if provider == "svard":
            profile = VulnerabilityProfile.from_ground_truth(
                module_by_label("S0"), banks=(0, 1), rows_per_bank=2048, seed=0
            ).scaled_to_worst_case(256)
            thresholds = SvardThresholds(Svard.build(profile))
        defense = Hydra(256, thresholds=thresholds, rows_per_bank=2048, seed=0)
        rows = (0, 1, 2046, 2047, *range(2, 2046, 7))
        for _ in range(2):
            for bank in (0, 1, 5, 30):
                for row in rows:
                    assert defense.min_victim_threshold(bank, row) == (
                        direct_min_victim_threshold(defense, bank, row)
                    ), (bank, row)
        if provider == "svard":
            # The edge rows bind on their one victim, not on hc_first.
            assert defense.min_victim_threshold(1, 2047) == (
                thresholds.threshold(1, 2046)
            )


class TestAqua:
    def test_migrates_at_half_threshold(self):
        defense = Aqua(hc_first=100, rows_per_bank=4096, seed=0)
        migrations = []
        for i in range(120):
            for m in defense.on_activation(0, 7, i * 50.0):
                assert isinstance(m, RowMigration)
                migrations.append((i, m))
        assert migrations
        first_index, first = migrations[0]
        assert first_index == int(100 * defense.migrate_fraction) - 1
        assert first.src_row == 7
        assert first.dst_row >= 4096 - defense.quarantine_rows

    def test_quarantine_slots_cycle(self):
        defense = Aqua(hc_first=10, rows_per_bank=4096, seed=0)
        slots = set()
        for i in range(2000):
            for m in defense.on_activation(0, i % 3, i * 50.0):
                slots.add(m.dst_row)
        assert len(slots) <= defense.quarantine_rows

    def test_counter_resets_after_migration(self):
        defense = Aqua(hc_first=100, rows_per_bank=4096, seed=0)
        count = 0
        for i in range(200):
            count += len(defense.on_activation(0, 7, i * 50.0))
        assert count == 4  # 200 activations / (0.5 * 100) per migration


class TestRrs:
    def test_swaps_hot_row(self):
        defense = RandomizedRowSwap(hc_first=600, rows_per_bank=4096, seed=0)
        swaps = []
        for i in range(300):
            for m in defense.on_activation(0, 9, i * 50.0):
                assert isinstance(m, RowSwap)
                swaps.append(m)
        assert swaps
        assert swaps[0].row_a == 9
        assert swaps[0].row_b != 9

    def test_swap_rate_scales_with_threshold(self):
        def swap_count(hc_first):
            defense = RandomizedRowSwap(
                hc_first=hc_first, rows_per_bank=4096, seed=0
            )
            n = 0
            for i in range(6000):
                n += len(defense.on_activation(0, 9, i * 50.0))
            return n

        assert swap_count(600) > swap_count(6000) * 5

    def test_swap_partner_random(self):
        defense = RandomizedRowSwap(hc_first=60, rows_per_bank=4096, seed=0)
        partners = set()
        for i in range(3000):
            for m in defense.on_activation(0, 9, i * 50.0):
                partners.add(m.row_b)
        assert len(partners) > 10


def make_svard_provider(hc_first=1024):
    profile = VulnerabilityProfile.from_ground_truth(
        module_by_label("S0"), banks=(0,), rows_per_bank=2048, seed=0
    ).scaled_to_worst_case(hc_first)
    return SvardThresholds(Svard.build(profile)), profile


class TestSvardIntegration:
    @pytest.mark.parametrize("name", sorted(DEFENSE_CLASSES))
    def test_all_defenses_accept_svard_thresholds(self, name):
        provider, _ = make_svard_provider()
        defense = DEFENSE_CLASSES[name](
            1024, thresholds=provider, rows_per_bank=2048, seed=0
        )
        for i in range(200):
            defense.on_activation(0, 100, i * 50.0)

    def test_svard_reduces_para_refreshes(self):
        provider, profile = make_svard_provider(hc_first=256)
        base = Para(256, rows_per_bank=2048, seed=1)
        svard = Para(256, thresholds=provider, rows_per_bank=2048, seed=1)
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 2048, size=4000)
        for i, row in enumerate(rows):
            base.on_activation(0, int(row), i * 50.0)
            svard.on_activation(0, int(row), i * 50.0)
        assert svard.stats.victim_refreshes < base.stats.victim_refreshes * 0.85

    def test_svard_reduces_rrs_swaps(self):
        provider, _ = make_svard_provider(hc_first=256)
        base = RandomizedRowSwap(256, rows_per_bank=2048, seed=1)
        svard = RandomizedRowSwap(
            256, thresholds=provider, rows_per_bank=2048, seed=1
        )
        for i in range(4000):
            row = (i % 16) * 64  # hammer a rotating set of rows
            base.on_activation(0, row, i * 50.0)
            svard.on_activation(0, row, i * 50.0)
        assert svard.stats.swaps <= base.stats.swaps
        assert svard.stats.swaps < base.stats.swaps

    def test_svard_never_relaxes_below_worst_case(self):
        """Weakest-bin rows keep exactly the worst-case treatment."""
        provider, profile = make_svard_provider(hc_first=256)
        weakest_bank = 0
        values = profile.values(0)
        weakest_row = int(np.argmin(values))
        assert provider.threshold(weakest_bank, weakest_row) == pytest.approx(
            profile.worst_case
        )

    def test_deterministic_defenses_fire_by_scaled_threshold(self):
        """Security with Svärd: a row's preventive action still fires
        within its own (bin) threshold."""
        provider, profile = make_svard_provider(hc_first=1024)
        defense = Aqua(1024, thresholds=provider, rows_per_bank=2048, seed=0)
        row = 700
        own_threshold = min(
            provider.threshold(0, row - 1), provider.threshold(0, row + 1)
        )
        fired_at = None
        for i in range(int(own_threshold) + 10):
            if defense.on_activation(0, row, i * 50.0):
                fired_at = i + 1
                break
        assert fired_at is not None
        assert fired_at <= own_threshold * defense.migrate_fraction + 1
