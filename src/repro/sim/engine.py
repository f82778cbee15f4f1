"""The event-driven memory-system simulator.

Cores issue dependent chains of memory requests (MLP = number of
chains); the memory controller queues them per bank and schedules
FR-FCFS with a column cap under DDR4 bank/rank timing.  Every row
activation is reported to the attached defense, whose preventive
actions are charged as bank-busy time (refreshes, migrations, swaps,
counter traffic) or as activation delay (throttling).

The engine is deliberately command-granular rather than cycle-
granular: every timing decision uses the JEDEC parameters, but time
advances from event to event, which keeps full Fig 12 sweeps
tractable in Python while preserving the contention behaviour the
defenses' overheads come from.

A :class:`Recording` runs a workload once undefended and logs the hook
calls a defense would receive; :meth:`Recording.run` then gives any
defense's run on the same workload, bit for bit, and simulates again
only if that defense acts.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from typing import Callable, List, NamedTuple, Optional, Protocol, Sequence

from repro.defenses.base import (
    MITIGATION_ACCOUNTING,
    Defense,
    DefenseStats,
    Mitigation,
)
from repro.dram.commands import (
    Command,
    CommandKind,
    TimedCommand,
    act as _act,
    pre as _pre,
    rd as _rd,
    wr as _wr,
)
from repro.sim.config import MitigationCosts, SystemConfig

#: Event kinds of the engine's heap.  Entries are ``(time, seq, kind,
#: payload)``; ``seq`` breaks time ties in push order.  An arrival's
#: payload is its bank-queue entry, ``(bank, row, core, chain,
#: arrival_ns, is_write, column)`` with bank, row and column already
#: reduced to the configured geometry.
_ARRIVAL, _BANK_FREE, _REFRESH, _EPOCH = range(4)


class TraceStep(NamedTuple):
    """One memory request emitted by a workload trace.

    A plain tuple, which the engine unpacks by position.
    """

    bank: int
    row: int
    column: int
    is_write: bool = False
    gap_ns: float = 0.0


class Trace(Protocol):
    """A per-core workload: yields the next request of one chain."""

    def next_step(self, chain: int) -> TraceStep: ...


@dataclass
class CoreResult:
    """Per-core outcome of one simulation."""

    core: int
    completed_requests: int
    finish_ns: float
    total_latency_ns: float


@dataclass
class SimulationResult:
    """Outcome of one run: per-core times plus controller counters."""

    cores: List[CoreResult]
    total_ns: float
    row_hits: int
    row_misses: int
    activations: int
    refreshes_issued: int

    def finish_times(self) -> List[float]:
        return [core.finish_ns for core in self.cores]

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


class _BankState:
    """Per-bank scheduler state.

    Bank timing (``busy_until``/``wake_at``) and the has-queued-work
    flags live in per-bank lists owned by :meth:`MemorySystem.run`.
    """

    __slots__ = ("open_row", "last_act_ns", "hits_in_row", "queue")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.last_act_ns = -1e18
        self.hits_in_row = 0
        self.queue: deque = deque()


class MemorySystem:
    """Wires cores, the memory controller, and an optional defense."""

    def __init__(
        self,
        config: SystemConfig,
        traces: Sequence[Trace],
        *,
        defense: Optional[Defense] = None,
        seed: int = 0,
    ) -> None:
        if len(traces) != config.cores:
            raise ValueError(
                f"{config.cores} cores need {config.cores} traces, "
                f"got {len(traces)}"
            )
        self.config = config
        self.traces = list(traces)
        self.defense = defense
        self.costs = MitigationCosts(
            timing=config.timing, columns_per_row=config.columns_per_row
        )
        self.seed = seed

    # ------------------------------------------------------------------

    def run(
        self, *, command_log: Optional[List[TimedCommand]] = None
    ) -> SimulationResult:
        """Simulate to completion.

        ``command_log``, when given, receives the implied DDR4 command
        stream as :class:`TimedCommand` records (ACT/PRE/RD/WR from
        demand servicing, per-bank REF at each bank's effective refresh
        start, and the implied PRE that ends a preventive-action burst).
        Logging is off by default and never changes a single scheduling
        decision -- results are bit-identical either way; the log is
        meant for :class:`repro.sim.conformance.TimingChecker`.  The
        log is *not* globally time-sorted (banks drain independently);
        the checker sorts it.

        The per-request path -- FR-FCFS pick, service, mitigation
        charging, the chain's next request -- is one loop body on Python
        floats and ints, and a request is one tuple from issue to
        completion.  Each ``max`` is a comparison that picks the same
        value, and every float sum keeps its left-to-right order.
        """
        log = command_log
        config = self.config
        timing = config.timing
        n_banks = config.total_banks
        banks_per_rank = config.banks_per_rank
        rows_per_bank = config.rows_per_bank
        columns_per_row = config.columns_per_row
        column_cap = config.column_cap
        requests_per_core = config.requests_per_core
        tRCD = timing.tRCD
        tCL = timing.tCL
        tBL = timing.tBL
        tRAS = timing.tRAS
        tRP = timing.tRP
        tFAW = timing.tFAW
        column_to_column = timing.column_to_column_ns
        # The scheduler does not track bank-group adjacency, so it paces
        # ACTs at the generation's rank-level minimum (tRRD_S with bank
        # groups, the single tRRD without).
        act_to_act = timing.act_to_act_ns

        defense = self.defense
        # Resolved per run, so a wrapper installed on the class before
        # the run starts sees every ACT and every trace step.
        on_activation = defense.on_activation if defense is not None else None
        next_steps = [trace.next_step for trace in self.traces]
        costs = self.costs
        charges = {
            kind: (None if occupancy is None else getattr(costs, occupancy), acts)
            for kind, (occupancy, acts, _) in MITIGATION_ACCOUNTING.items()
        }

        banks = [_BankState() for _ in range(n_banks)]
        busy_until = [0.0] * n_banks
        inf = float("inf")
        wake_at = [inf] * n_banks
        has_queue = [False] * n_banks
        rank_act_windows: List[deque] = [deque(maxlen=4) for _ in range(config.ranks)]
        rank_last_act = [-1e18] * config.ranks

        issued = [0] * config.cores
        finish_time = [0.0] * config.cores
        total_latency = [0.0] * config.cores
        completed = [0] * config.cores
        row_hits = row_misses = activations = refreshes = 0

        heap: list = []
        seq = 0

        # Initial chain arrivals.
        for core in range(config.cores):
            for chain in range(min(config.mlp_per_core, requests_per_core)):
                bank, row, column, is_write, gap_ns = next_steps[core](chain)
                issued[core] += 1
                heappush(heap, (gap_ns, seq, _ARRIVAL, (
                    bank % n_banks, row % rows_per_bank, core, chain,
                    gap_ns, is_write, column % columns_per_row,
                )))
                seq += 1

        # Periodic refresh and defense epochs.  All-bank generations
        # (DDR4) issue one REF per tREFI that locks every bank for tRFC;
        # sliced generations rotate -- LPDDR4 REFpb over the rank's
        # banks, DDR5 REFsb over the bank index within each group --
        # spacing slices tREFI / slices apart so every bank still
        # refreshes once per tREFI.  Slice k holds the banks whose index
        # within their rank is k modulo the slice count, ascending.
        refresh_slices = timing.refresh_slices(
            banks_per_rank=banks_per_rank,
            banks_per_group=config.banks_per_group,
        )
        refresh_targets = [
            [b for b in range(n_banks) if b % banks_per_rank % refresh_slices == k]
            for k in range(refresh_slices)
        ]
        refresh_latency = (
            timing.tRFC if refresh_slices == 1 else timing.refresh_latency_ns
        )
        refresh_interval = timing.tREFI / refresh_slices
        heappush(heap, (refresh_interval, seq, _REFRESH, 0))
        seq += 1
        epoch_ns = config.defense_epoch_ns or timing.tREFW
        if defense is not None:
            # The engine owns the epoch: the defense paces on the same
            # window it is reset on.
            defense.epoch_ns = epoch_ns
            heappush(heap, (epoch_ns, seq, _EPOCH, None))
            seq += 1

        # ------------------------------------------------------------------
        # The event loop.
        # ------------------------------------------------------------------
        last_time = 0.0
        total_requests = requests_per_core * config.cores
        total_completed = 0
        queued_total = 0

        while heap:
            time, _, kind, payload = heappop(heap)
            if time > last_time:
                last_time = time
            if kind == _ARRIVAL:
                bank_id = payload[0]
                banks[bank_id].queue.append(payload)
                queued_total += 1
                has_queue[bank_id] = True
            elif kind == _BANK_FREE:
                bank_id = payload
                wake_at[bank_id] = inf
            elif kind == _REFRESH:
                # Each bank's lockout starts once it is free (busy banks
                # finish their work first); that instant is also its
                # logged REF.  Wakeups are pushed in ascending bank order.
                refreshes += 1
                for bank_id in refresh_targets[payload]:
                    busy = busy_until[bank_id]
                    ref_start = time if time > busy else busy
                    if log is not None:
                        log.append(TimedCommand(ref_start, Command(
                            CommandKind.REF, rank=bank_id // banks_per_rank,
                            bank=bank_id,
                        )))
                    busy = busy_until[bank_id] = ref_start + refresh_latency
                    banks[bank_id].open_row = None
                    if has_queue[bank_id] and busy < wake_at[bank_id]:
                        wake_at[bank_id] = busy
                        heappush(heap, (busy, seq, _BANK_FREE, bank_id))
                        seq += 1
                if total_completed < total_requests:
                    heappush(heap, (
                        time + refresh_interval, seq, _REFRESH,
                        (payload + 1) % refresh_slices,
                    ))
                    seq += 1
                continue
            else:
                defense.on_refresh_window(time)
                if total_completed < total_requests:
                    heappush(heap, (time + epoch_ns, seq, _EPOCH, None))
                    seq += 1
                continue

            # Schedule the bank: serve its queue FR-FCFS until it is busy.
            bank = banks[bank_id]
            queue = bank.queue
            now = time
            while queue:
                busy = busy_until[bank_id]
                if busy > now + 1e-9:
                    if busy < wake_at[bank_id]:
                        wake_at[bank_id] = busy
                        heappush(heap, (busy, seq, _BANK_FREE, bank_id))
                        seq += 1
                    break
                # FR-FCFS with a column cap: prefer row hits, oldest first.
                open_row = bank.open_row
                if open_row is not None and bank.hits_in_row < column_cap:
                    for index, request in enumerate(queue):
                        if request[1] == open_row:
                            del queue[index]
                            break
                    else:
                        request = queue.popleft()
                else:
                    request = queue.popleft()
                queued_total -= 1
                if not queue:
                    has_queue[bank_id] = False
                start = busy if busy > now else now
                _, row, core, chain, arrival, is_write, column = request

                preventive = ()
                if open_row == row:
                    row_hits += 1
                    data_start = bank.last_act_ns + tRCD
                    if start >= data_start:
                        data_start = start
                    finish = data_start + tCL + tBL
                    busy_until[bank_id] = data_start + column_to_column
                    bank.hits_in_row += 1
                else:
                    # Row miss: precharge (if open) + activate.
                    rank = bank_id // banks_per_rank
                    row_misses += 1
                    t = start
                    if open_row is not None:
                        ready = bank.last_act_ns + tRAS
                        if ready > t:
                            t = ready
                        if log is not None:
                            log.append(TimedCommand(t, _pre(bank_id, rank=rank)))
                        t = t + tRP
                    act_time = rank_last_act[rank] + act_to_act
                    if t >= act_time:
                        act_time = t
                    window = rank_act_windows[rank]
                    if len(window) == 4:
                        faw_ready = window[0] + tFAW
                        if faw_ready > act_time:
                            act_time = faw_ready
                    if log is not None:
                        log.append(TimedCommand(act_time, _act(bank_id, row, rank=rank)))

                    chain_delay = 0.0
                    if on_activation is not None:
                        mitigations = on_activation(bank_id, row, act_time)
                        if mitigations:
                            preventive = []
                            for mitigation in mitigations:
                                occupancy, acts = charges[type(mitigation)]
                                if occupancy is None:
                                    chain_delay += mitigation.delay_ns
                                else:
                                    preventive += [occupancy] * acts(mitigation)
                    activations += 1

                    rank_last_act[rank] = act_time
                    window.append(act_time)
                    bank.open_row = row
                    bank.last_act_ns = act_time
                    bank.hits_in_row = 1
                    data_start = act_time + tRCD
                    # Throttling (BlockHammer) stalls the issuing chain,
                    # not the bank: other requests keep flowing while
                    # the aggressor waits.
                    finish = data_start + tCL + tBL + chain_delay

                    # Preventive actions are real DRAM activations: they
                    # occupy the bank *and* consume rank-level ACT
                    # bandwidth (tRRD/tFAW), which is how low-threshold
                    # defenses saturate the memory system.
                    free_at = data_start + tBL
                    for occupancy in preventive:
                        act = rank_last_act[rank] + act_to_act
                        if free_at >= act:
                            act = free_at
                        if len(window) == 4:
                            faw_ready = window[0] + tFAW
                            if faw_ready > act:
                                act = faw_ready
                        window.append(act)
                        rank_last_act[rank] = act
                        free_at = act + occupancy
                    busy_until[bank_id] = free_at
                    if preventive:
                        # The preventive activations end with the bank
                        # precharged; the just-opened demand row is lost.
                        bank.open_row = None
                        bank.hits_in_row = 0
                if log is not None:
                    rank = bank_id // banks_per_rank
                    column_cmd = _wr if is_write else _rd
                    log.append(TimedCommand(
                        data_start, column_cmd(bank_id, column, rank=rank)
                    ))
                    if preventive:
                        # Preventive bursts are opaque bank-busy time (each
                        # occupancy already includes a full row cycle), so
                        # only the closing precharge is observable: the
                        # bank is usable again tRP after it.
                        log.append(TimedCommand(free_at - tRP, _pre(bank_id, rank=rank)))

                completed[core] += 1
                total_completed += 1
                total_latency[core] += finish - arrival
                if finish > finish_time[core]:
                    finish_time[core] = finish
                if issued[core] < requests_per_core:
                    (next_bank, next_row, next_column, next_write,
                     gap_ns) = next_steps[core](chain)
                    issued[core] += 1
                    arrival = finish + gap_ns
                    heappush(heap, (arrival, seq, _ARRIVAL, (
                        next_bank % n_banks, next_row % rows_per_bank, core,
                        chain, arrival, next_write,
                        next_column % columns_per_row,
                    )))
                    seq += 1
                if finish > now:
                    now = finish
            if total_completed >= total_requests and queued_total == 0:
                break

        cores = [
            CoreResult(
                core=core,
                completed_requests=completed[core],
                finish_ns=float(finish_time[core]),
                total_latency_ns=float(total_latency[core]),
            )
            for core in range(config.cores)
        ]
        return SimulationResult(
            cores=cores,
            total_ns=float(last_time),
            row_hits=row_hits,
            row_misses=row_misses,
            activations=activations,
            refreshes_issued=refreshes,
        )


# ----------------------------------------------------------------------
# Record and replay
# ----------------------------------------------------------------------

#: The bank a recording logs for an ``on_refresh_window`` call.
_EPOCH_CALL = -1


class _Recorder:
    """A stand-in defense that never acts and logs every hook call.

    The log holds, in call order, each ``on_activation(bank, row, now)``
    and ``on_refresh_window(now)`` (bank :data:`_EPOCH_CALL`) a real
    defense would receive, in three flat arrays: 16 bytes per call.
    """

    def __init__(self) -> None:
        self.stats = DefenseStats()
        self.epoch_ns: Optional[float] = None
        self.banks = array("i")
        self.rows = array("i")
        self.times = array("d")

    def on_activation(self, bank: int, row: int, now_ns: float) -> None:
        self.banks.append(bank)
        self.rows.append(row)
        self.times.append(now_ns)

    def on_refresh_window(self, now_ns: float) -> None:
        self.banks.append(_EPOCH_CALL)
        self.rows.append(0)
        self.times.append(now_ns)


class _Primed:
    """A stand-in that answers the replayed calls, then hands over.

    The replay has already driven ``defense`` through the recording's
    calls up to its first action, call ``acted`` (0-based).  Up to that
    call the engine runs exactly as it did while recording, so this
    stand-in answers the calls before it with nothing, answers call
    ``acted`` with the saved ``mitigations`` and forwards every later
    call to the defense: each hook still runs once per ACT.
    """

    def __init__(
        self, defense: Defense, acted: int, mitigations: List[Mitigation]
    ) -> None:
        self.epoch_ns: Optional[float] = None
        self._defense = defense
        self._forward = defense.on_activation
        #: Calls left to answer here; -1 once the defense has them.
        self._pending = acted
        self._mitigations = mitigations

    @property
    def stats(self) -> DefenseStats:
        return self._defense.stats

    def on_activation(
        self, bank: int, row: int, now_ns: float
    ) -> Optional[List[Mitigation]]:
        pending = self._pending
        if pending < 0:
            return self._forward(bank, row, now_ns)
        self._pending = pending - 1
        return None if pending else self._mitigations

    def on_refresh_window(self, now_ns: float) -> None:
        if self._pending < 0:
            self._defense.on_refresh_window(now_ns)
        else:
            self._pending -= 1


class Recording:
    """One undefended run, and the defense-hook calls it makes.

    The engine's schedule depends on a defense only through what its
    hooks return, and a hook that returns nothing leaves the run
    exactly as the recorder's, down to the heap's sequence numbers.
    So :meth:`run` replays the log into a defense first: if the
    defense never acts, its run *is* the recorded one; if it first acts
    at call j, the engine simulates again with a primed stand-in that
    answers calls 1..j-1 with nothing and call j with the saved
    mitigations, and forwards the rest.  The recorded run itself equals
    ``MemorySystem(config, traces).run()``.
    """

    def __init__(
        self, config: SystemConfig, traces: Callable[[], Sequence[Trace]]
    ) -> None:
        """Runs ``config`` on ``traces()``; ``traces`` must build the same
        traces on every call, since a defense that acts reruns them."""
        recorder = _Recorder()
        self.config = config
        self._traces = traces
        self._result = MemorySystem(config, traces(), defense=recorder).run()
        #: The epoch the engine set: ``defense_epoch_ns or tREFW``.
        self.epoch_ns = recorder.epoch_ns
        self._banks = recorder.banks
        self._rows = recorder.rows
        self._times = recorder.times

    def result(self) -> SimulationResult:
        """A fresh copy of the recorded run."""
        result = self._result
        return replace(result, cores=[replace(core) for core in result.cores])

    def run(self, defense: Defense) -> SimulationResult:
        """``MemorySystem(config, traces(), defense=defense).run()``, bit
        for bit, for a defense no run has driven yet."""
        defense.epoch_ns = self.epoch_ns
        on_activation = defense.on_activation
        on_refresh_window = defense.on_refresh_window
        for call, (bank, row, now_ns) in enumerate(
            zip(self._banks, self._rows, self._times)
        ):
            if bank == _EPOCH_CALL:
                on_refresh_window(now_ns)
                continue
            mitigations = on_activation(bank, row, now_ns)
            if mitigations:
                primed = _Primed(defense, call, mitigations)
                return MemorySystem(
                    self.config, self._traces(), defense=primed
                ).run()
        return self.result()
