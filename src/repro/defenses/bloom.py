"""Counting Bloom filters (BlockHammer's tracking substrate).

BlockHammer tracks per-row activation rates with a pair of counting
Bloom filters used in alternating epochs, so stale history expires
without per-row storage.  The filter overestimates (never
underestimates) a row's count, which is the direction a security
mechanism needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np


@dataclass
class CountingBloomFilter:
    """A counting Bloom filter over row addresses.

    Python ints, not numpy: a filter sees an insert and a query per
    ACT.  Row keys stay below 2**17, so ``key * multiplier + offset``
    stays below 2**50, where int64 arithmetic would not wrap either.
    """

    n_counters: int = 1024
    n_hashes: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_counters < 1 or self.n_hashes < 1:
            raise ValueError("filter dimensions must be positive")
        self._counters = [0] * self.n_counters
        rng = np.random.default_rng(self.seed)
        # Odd multipliers give full-period multiplicative hashes.
        multipliers = rng.integers(1, 2**31, size=self.n_hashes) * 2 + 1
        offsets = rng.integers(0, 2**31, size=self.n_hashes)
        self._hashes = list(zip(multipliers.tolist(), offsets.tolist()))
        #: ``key -> distinct indices``: the hashes are fixed at
        #: construction, so each key is hashed once per filter.
        self._index_memo: Dict[int, Tuple[int, ...]] = {}

    def _hash(self, key: int) -> Tuple[int, ...]:
        """Memoizes and returns the key's distinct counter indices."""
        n = self.n_counters
        indices = self._index_memo[key] = tuple(
            {((key * m + o) >> 7) % n for m, o in self._hashes}
        )
        return indices

    def insert(self, key: int) -> None:
        # A key whose hashes collide bumps that counter once.
        counters = self._counters
        for index in self._index_memo.get(key) or self._hash(key):
            counters[index] += 1

    def estimate(self, key: int) -> int:
        """Count estimate: never below the true insertion count.

        The minimum over the distinct indices is the minimum over all
        of them.
        """
        counters = self._counters
        return min([
            counters[index]
            for index in self._index_memo.get(key) or self._hash(key)
        ])

    def clear(self) -> None:
        self._counters = [0] * self.n_counters

    @property
    def total_insertions(self) -> int:
        return sum(self._counters) // self.n_hashes


@dataclass
class DualCountingBloomFilter:
    """BlockHammer's epoch-rotating filter pair.

    Both filters receive every insert; queries read the *older* filter,
    which always holds at least one full epoch of history, so a row's
    count is never underestimated right after an epoch boundary.  At
    each boundary the older filter is cleared and the roles swap.
    """

    n_counters: int = 1024
    n_hashes: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        self._filters = [
            CountingBloomFilter(self.n_counters, self.n_hashes, self.seed),
            CountingBloomFilter(self.n_counters, self.n_hashes, self.seed + 1),
        ]
        self._older = 0

    def insert(self, key: int) -> None:
        for filt in self._filters:
            filt.insert(key)

    def estimate(self, key: int) -> int:
        return self._filters[self._older].estimate(key)

    def rotate(self) -> None:
        """Epoch boundary: retire the older filter's history."""
        self._filters[self._older].clear()
        self._older = 1 - self._older
