"""Common defense interface and preventive-action vocabulary.

A defense observes every row activation (``on_activation``) and
returns zero or more *mitigations* -- preventive actions the memory
controller must carry out (refresh victims, delay the aggressor,
migrate or swap rows, or move counter state between the controller
and DRAM).  The performance simulator charges each mitigation's DRAM
cost; the security tests verify that the mitigations fire early
enough.

Thresholds come from a :class:`ThresholdProvider`: either the global
worst case (No Svärd) or per-row values from a built Svärd instance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.core.svard import Svard


# ---------------------------------------------------------------------------
# Threshold providers
# ---------------------------------------------------------------------------


class ThresholdProvider(Protocol):
    """Supplies the HC_first threshold of a potential victim row."""

    def threshold(self, bank: int, row: int) -> float: ...


@dataclass(frozen=True)
class GlobalThreshold:
    """The conventional configuration: every row is the weakest row."""

    value: float

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError("threshold must be positive")

    def threshold(self, bank: int, row: int) -> float:
        return self.value


@dataclass(frozen=True)
class SvardThresholds:
    """Per-row thresholds from a built Svärd instance (Section 6.1)."""

    svard: Svard

    def threshold(self, bank: int, row: int) -> float:
        return self.svard.threshold_for(bank, row)


# ---------------------------------------------------------------------------
# Mitigations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mitigation:
    """Base class for preventive actions."""


@dataclass(frozen=True)
class VictimRefresh(Mitigation):
    """Refresh (activate/precharge) the given victim rows."""

    bank: int
    rows: Tuple[int, ...]


@dataclass(frozen=True)
class ThrottleDelay(Mitigation):
    """Delay the triggering activation by ``delay_ns`` (BlockHammer)."""

    delay_ns: float


@dataclass(frozen=True)
class RowMigration(Mitigation):
    """Copy a row's content to another row (AQUA quarantine)."""

    bank: int
    src_row: int
    dst_row: int


@dataclass(frozen=True)
class RowSwap(Mitigation):
    """Exchange the contents of two rows (RRS)."""

    bank: int
    row_a: int
    row_b: int


@dataclass(frozen=True)
class CounterTraffic(Mitigation):
    """Off-chip counter reads/writes (Hydra's dominant overhead)."""

    bank: int
    reads: int = 0
    writes: int = 0


#: The one accounting rule for preventive actions, read by the
#: engine (bank time) and by :meth:`DefenseStats.record` (counters).
#: Per action type, ``(occupancy, acts, counts)``:
#:
#: * ``occupancy`` -- the :class:`repro.sim.config.MitigationCosts`
#:   attribute one preventive activation holds the bank for; ``None``
#:   for a throttle, whose ``delay_ns`` stalls the issuing chain;
#: * ``acts(action)`` -- how many preventive activations it performs:
#:   one per refreshed victim or counter access, two halves per
#:   migration (read out, write back), four per swap;
#: * ``counts(action)`` -- its ``(DefenseStats field, increment)`` pairs.
MITIGATION_ACCOUNTING: Dict[type, Tuple[Optional[str], Callable, Callable]] = {
    VictimRefresh: (
        "victim_refresh_ns",
        lambda m: len(m.rows),
        lambda m: (("victim_refreshes", len(m.rows)),),
    ),
    ThrottleDelay: (
        None,
        lambda m: 0,
        lambda m: (("throttle_events", 1), ("throttle_delay_ns", m.delay_ns)),
    ),
    RowMigration: ("row_copy_half_ns", lambda m: 2, lambda m: (("migrations", 1),)),
    RowSwap: ("row_copy_half_ns", lambda m: 4, lambda m: (("swaps", 1),)),
    CounterTraffic: (
        "counter_access_ns",
        lambda m: m.reads + m.writes,
        lambda m: (("counter_reads", m.reads), ("counter_writes", m.writes)),
    ),
}


# ---------------------------------------------------------------------------
# Defense base class
# ---------------------------------------------------------------------------


class Defense(ABC):
    """A read-disturbance solution observing row activations.

    Subclasses implement :meth:`on_activation`; the base class owns
    the threshold provider and the victim-row geometry (blast radius
    1: rows at +/-1 of the aggressor).
    """

    name: str = "defense"

    def __init__(
        self,
        hc_first: float,
        *,
        thresholds: Optional[ThresholdProvider] = None,
        rows_per_bank: int = 128 * 1024,
        seed: int = 0,
    ) -> None:
        if hc_first <= 0:
            raise ValueError("hc_first must be positive")
        self.hc_first = float(hc_first)
        self.thresholds: ThresholdProvider = (
            thresholds if thresholds is not None else GlobalThreshold(hc_first)
        )
        self.rows_per_bank = rows_per_bank
        self.seed = seed
        #: The epoch (ns) between :meth:`on_refresh_window` calls.  The
        #: memory system that drives the defense owns it and sets it
        #: before the first ACT (see :meth:`repro.sim.engine.MemorySystem.run`);
        #: a caller driving the defense by hand sets it likewise.
        self.epoch_ns: Optional[float] = None
        self.stats = DefenseStats()
        self._binding_thresholds: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------

    @abstractmethod
    def on_activation(self, bank: int, row: int, now_ns: float) -> List[Mitigation]:
        """Observe one ACT; return the preventive actions to perform."""

    def on_refresh_window(self, now_ns: float) -> None:
        """Called once per epoch (:attr:`epoch_ns`): reset epoch state."""

    # ------------------------------------------------------------------

    def victim_rows(self, row: int) -> Tuple[int, ...]:
        """Rows an activation of ``row`` can disturb (blast radius 1)."""
        victims = []
        if row - 1 >= 0:
            victims.append(row - 1)
        if row + 1 < self.rows_per_bank:
            victims.append(row + 1)
        return tuple(victims)

    def min_victim_threshold(self, bank: int, row: int) -> float:
        """The binding threshold of one activation: its weakest victim.

        This runs on every ACT, so it is memoized per ``(bank, row)``
        for the defense's lifetime; epochs do not clear it.  The memo
        is exact: both providers are pure functions of ``(bank, row)``
        (a constant, or Svärd's per-bank lists fixed at build time),
        and the provider and ``rows_per_bank`` are fixed at
        construction.
        """
        key = (bank, row)
        binding = self._binding_thresholds.get(key)
        if binding is None:
            binding = self._binding_thresholds[key] = (
                self._weakest_victim_threshold(bank, row)
            )
        return binding

    def _weakest_victim_threshold(self, bank: int, row: int) -> float:
        """Looks the victims up in :meth:`victim_rows` order, without
        building the tuple."""
        threshold = self.thresholds.threshold
        has_upper = row + 1 < self.rows_per_bank
        if row - 1 >= 0:
            lower = threshold(bank, row - 1)
            if not has_upper:
                return lower
            upper = threshold(bank, row + 1)
            return upper if upper < lower else lower
        if has_upper:
            return threshold(bank, row + 1)
        return self.hc_first


@dataclass
class DefenseStats:
    """Counters shared by all defenses (consumed by the simulator)."""

    activations_observed: int = 0
    victim_refreshes: int = 0
    throttle_events: int = 0
    throttle_delay_ns: float = 0.0
    migrations: int = 0
    swaps: int = 0
    counter_reads: int = 0
    counter_writes: int = 0

    def record(self, mitigations: Sequence[Mitigation]) -> None:
        counters = self.__dict__
        for mitigation in mitigations:
            _, _, counts = MITIGATION_ACCOUNTING[type(mitigation)]
            for name, amount in counts(mitigation):
                counters[name] += amount
