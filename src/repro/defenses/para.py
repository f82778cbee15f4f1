"""PARA: Probabilistic Adjacent Row Activation (Kim+, ISCA 2014).

On every activation, each neighbouring (victim) row is preventively
refreshed with a small probability ``p``.  The probability that a
victim survives ``T`` hammers without a refresh is ``(1 - p)^T``, so
``p = C / T`` with ``C = ln(2) * security_bits`` bounds the failure
probability at ``2^-security_bits``.

With Svärd, ``T`` is the *victim's own* threshold rather than the
module-wide worst case, so strong rows are refreshed proportionally
less often (Section 6.1's running example).
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Tuple

from repro.defenses.base import Defense, Mitigation, VictimRefresh


class Para(Defense):
    """Stateless probabilistic victim refresh."""

    name = "PARA"

    def __init__(self, hc_first: float, *, security_bits: float = 80.0, **kwargs) -> None:
        super().__init__(hc_first, **kwargs)
        if security_bits <= 0:
            raise ValueError("security_bits must be positive")
        self.security_bits = security_bits
        self._coefficient = math.log(2.0) * security_bits
        self._rng = random.Random(self.seed)
        #: ``(bank, row) -> ((victim, p), ...)`` in :meth:`victim_rows`
        #: order; exact for the same reasons as
        #: :meth:`~repro.defenses.base.Defense.min_victim_threshold`.
        self._victim_probabilities: Dict[
            Tuple[int, int], Tuple[Tuple[int, float], ...]
        ] = {}

    def refresh_probability(self, threshold: float) -> float:
        """Per-activation refresh probability for one victim."""
        return min(1.0, self._coefficient / threshold)

    def on_activation(self, bank: int, row: int, now_ns: float) -> List[Mitigation]:
        self.stats.activations_observed += 1
        key = (bank, row)
        victims = self._victim_probabilities.get(key)
        if victims is None:
            threshold = self.thresholds.threshold
            victims = self._victim_probabilities[key] = tuple(
                (victim, self.refresh_probability(threshold(bank, victim)))
                for victim in self.victim_rows(row)
            )
        # One draw per victim, in victim order.
        draw = self._rng.random
        refresh_rows = [victim for victim, p in victims if draw() < p]
        if not refresh_rows:
            return []
        mitigations: List[Mitigation] = [
            VictimRefresh(bank=bank, rows=tuple(refresh_rows))
        ]
        self.stats.record(mitigations)
        return mitigations
