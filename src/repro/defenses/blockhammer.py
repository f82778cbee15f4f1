"""BlockHammer (Yağlıkçı+, HPCA 2021): blacklist and throttle.

BlockHammer tracks per-row activation rates with dual counting Bloom
filters and *throttles* (delays) activations of rows whose observed
count approaches the safe limit, so no row can be hammered past the
threshold within a refresh window.  Unlike the refresh-based defenses
it performs no victim refreshes at all.

Model of the throttle: once a row's count estimate passes the
blacklist threshold ``n_bl = T / 4``, subsequent activations of that
row are delayed so consecutive activations are at least
``epoch / (T / 2)`` apart -- capping the achievable count within an
epoch at ``T / 2`` (the standard double-sided safety factor: each
victim sees hammers from two aggressors).

The epoch is the memory system's: :class:`repro.sim.engine.MemorySystem`
sets :attr:`~repro.defenses.base.Defense.epoch_ns` to the period of its
``on_refresh_window`` calls (``defense_epoch_ns``, else tREFW) before
the first ACT, so BlockHammer paces on the same window it resets on.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.defenses.base import Defense, Mitigation, ThrottleDelay
from repro.defenses.bloom import DualCountingBloomFilter


class BlockHammer(Defense):
    """Counting-Bloom-filter blacklisting plus activation throttling."""

    name = "BlockHammer"

    def __init__(
        self,
        hc_first: float,
        *,
        n_counters: int = 1024,
        n_hashes: int = 4,
        blacklist_fraction: float = 0.25,
        quota_fraction: float = 0.5,
        **kwargs,
    ) -> None:
        super().__init__(hc_first, **kwargs)
        if not 0 < blacklist_fraction < quota_fraction <= 1.0:
            raise ValueError("require 0 < blacklist_fraction < quota_fraction <= 1")
        self.blacklist_fraction = blacklist_fraction
        self.quota_fraction = quota_fraction
        self._filters: Dict[int, DualCountingBloomFilter] = {}
        self._n_counters = n_counters
        self._n_hashes = n_hashes
        self._last_act_ns: Dict[Tuple[int, int], float] = {}

    def minimum_gap_ns(self, threshold: float) -> float:
        """Enforced ACT-to-ACT gap for a blacklisted row."""
        quota = max(1.0, self.quota_fraction * threshold)
        return self.epoch_ns / quota

    def on_activation(self, bank: int, row: int, now_ns: float) -> List[Mitigation]:
        self.stats.activations_observed += 1
        filt = self._filters.get(bank)
        if filt is None:
            filt = self._filters[bank] = DualCountingBloomFilter(
                self._n_counters, self._n_hashes, self.seed + bank
            )
        filt.insert(row)
        count = filt.estimate(row)
        threshold = self.min_victim_threshold(bank, row)
        if count > self.blacklist_fraction * threshold:
            gap = self.minimum_gap_ns(threshold)
            last = self._last_act_ns.get((bank, row), -gap)
            delay = max(0.0, gap - (now_ns - last))
            self._last_act_ns[(bank, row)] = now_ns + delay
            if delay > 0:
                mitigations: List[Mitigation] = [ThrottleDelay(delay_ns=delay)]
                self.stats.record(mitigations)
                return mitigations
        else:
            self._last_act_ns[(bank, row)] = now_ns
        return []

    def on_refresh_window(self, now_ns: float) -> None:
        for filt in self._filters.values():
            filt.rotate()
        self._last_act_ns.clear()
