"""Hydra (Qureshi+, ISCA 2022): hybrid activation tracking.

Hydra keeps a small *group count table* (GCT) in the memory
controller: rows share a group counter until the group's total
activation count crosses a threshold.  Only then does Hydra allocate
exact per-row counters, which live *in DRAM* and are cached in a
small *row count cache* (RCC).  The off-chip counter traffic on RCC
misses is Hydra's dominant overhead -- notably, it depends on the
access pattern, not on the threshold, which is why Svärd helps Hydra
least (Obsv 14).

When a row's exact count reaches half its threshold, Hydra refreshes
the neighbours and resets the counter.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Set, Tuple

from repro.defenses.base import (
    CounterTraffic,
    Defense,
    Mitigation,
    VictimRefresh,
)


class Hydra(Defense):
    """Group counters + in-DRAM per-row counters + counter cache."""

    name = "Hydra"

    def __init__(
        self,
        hc_first: float,
        *,
        group_size: int = 128,
        gct_fraction: float = 0.2,
        refresh_fraction: float = 0.5,
        rcc_entries: int = 4096,
        **kwargs,
    ) -> None:
        super().__init__(hc_first, **kwargs)
        if group_size < 1 or rcc_entries < 1:
            raise ValueError("group size and cache size must be positive")
        if not 0 < gct_fraction < refresh_fraction <= 1.0:
            raise ValueError("require 0 < gct_fraction < refresh_fraction <= 1")
        self.group_size = group_size
        self.gct_fraction = gct_fraction
        self.refresh_fraction = refresh_fraction
        self.rcc_entries = rcc_entries
        self._group_counts: Dict[Tuple[int, int], int] = {}
        self._tracked_groups: Set[Tuple[int, int]] = set()
        self._row_counts: Dict[Tuple[int, int], int] = {}
        #: The row count cache, least recently used first.  Every cached
        #: counter has been incremented since it was fetched, so every
        #: eviction writes one back.
        self._rcc: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        #: One counter-traffic record per ``(bank, writes)``: a miss
        #: always reads one counter and writes back at most one.
        self._traffic: Dict[Tuple[int, int], CounterTraffic] = {}

    # ------------------------------------------------------------------

    def on_activation(self, bank: int, row: int, now_ns: float) -> List[Mitigation]:
        stats = self.stats
        stats.activations_observed += 1
        group = (bank, row // self.group_size)
        threshold = self.min_victim_threshold(bank, row)
        group_counts = self._group_counts

        if group not in self._tracked_groups:
            count = group_counts.get(group, 0) + 1
            group_counts[group] = count
            if count > self.gct_fraction * threshold:
                # Escalate: per-row counters start at the group count
                # (conservative) and live in DRAM from now on.
                self._tracked_groups.add(group)
            else:
                return []

        mitigations: List[Mitigation] = []
        key = (bank, row)
        rcc = self._rcc
        if key in rcc:
            rcc.move_to_end(key)
        else:
            # Miss: fetch the counter from DRAM, writing back the
            # least recently used one if the cache is full.
            writes = 0
            if len(rcc) >= self.rcc_entries:
                rcc.popitem(last=False)
                writes = 1
            rcc[key] = None
            traffic = self._traffic.get((bank, writes))
            if traffic is None:
                traffic = self._traffic[(bank, writes)] = CounterTraffic(
                    bank=bank, reads=1, writes=writes
                )
            mitigations.append(traffic)

        row_counts = self._row_counts
        count = row_counts.get(key, group_counts.get(group, 0)) + 1
        row_counts[key] = count
        if count >= self.refresh_fraction * threshold:
            mitigations.append(VictimRefresh(bank=bank, rows=self.victim_rows(row)))
            row_counts[key] = 0
        if mitigations:
            stats.record(mitigations)
        return mitigations

    def on_refresh_window(self, now_ns: float) -> None:
        self._group_counts.clear()
        self._tracked_groups.clear()
        self._row_counts.clear()
        # Cached counters are now stale; drop them (clean: the reset
        # value is implicit).
        self._rcc.clear()
