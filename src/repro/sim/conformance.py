"""Command-granular JEDEC conformance checking.

The performance simulator is command-granular rather than
cycle-granular, and its hot path is tuned for speed; nothing in the
engine itself re-checks that the command stream it implies still obeys
the JEDEC rules the paper's methodology depends on.  This module is
that backstop: an explicit timing *rulebook* -- tRCD, tRAS, tRP, tRC,
tCCD_L, tRRD_S, tFAW, tRFC, tREFI as data, in the style of
command-level DRAM test models -- and a :class:`TimingChecker` that
replays a logged command stream (see
:meth:`repro.sim.engine.MemorySystem.run`'s ``command_log``) and
reports every violation with the rule, the two commands involved, and
the (negative) slack.

The checker is a deliberately independent oracle: it shares no
scheduling state or code with the engine.  It only reads
:class:`~repro.dram.commands.TimedCommand` records and
:class:`~repro.dram.timing.TimingParameters`.

Two deliberate deviations from a cycle-accurate JEDEC model, both
consequences of the engine's command-granular approximations and both
documented where the engine makes them:

* REF is charged per bank as the bank becomes free, so logged REF
  commands carry a ``bank`` operand and the rank-level tRFC/tREFI
  rules are applied per bank.
* A defense's preventive-action burst (victim refreshes, migrations,
  swaps, counter traffic) is opaque bank-busy time; only its closing
  precharge appears in the log.  Rank-level ACT pacing (tRRD_S/tFAW)
  is therefore checked on the demand stream, which the engine paces
  *conservatively* (its rolling window also contains the unlogged
  preventive activations), so a pass here is still a pass.

Rules the engine intentionally does not model -- tRTP, tWR, tWTR --
are likewise not in the rulebook; adding one is a one-line table entry
once the engine models it.  Writing this checker also *found* one
such looseness: the engine paces back-to-back column commands by
tCCD_L on the row-hit path but only by the tBL burst occupancy right
after a row miss, so tCCD_L stays out of the rulebook until the
engine closes that gap (tBL and tCCD_L differ by well under a
nanosecond on every DDR4 grade, so no golden-protected result hinges
on it).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.dram.commands import CommandKind, TimedCommand
from repro.dram.timing import TimingParameters

#: Comparisons tolerate float-associativity noise (the engine computes
#: ``(a + tRAS) + tRP`` where the rulebook holds ``tRAS + tRP``); real
#: violations are fractions of a nanosecond or more.
DEFAULT_TOLERANCE_NS = 1e-6

#: JEDEC allows postponing up to eight REF commands, so the largest
#: legal gap between consecutive refreshes is nine intervals.
REFRESH_POSTPONE_LIMIT = 9


@dataclass(frozen=True)
class TimingRule:
    """One pairwise minimum-delay rule: ``curr >= last(prev) + delay``.

    ``scope`` is ``"bank"`` (the previous command on the *same bank*)
    or ``"rank"`` (the previous command on *any bank of the rank*).
    """

    name: str
    prev: CommandKind
    curr: CommandKind
    scope: str
    delay_ns: float

    def __post_init__(self) -> None:
        if self.scope not in ("bank", "rank"):
            raise ValueError(f"unknown rule scope {self.scope!r}")
        if self.delay_ns < 0:
            raise ValueError(f"{self.name}: delay must be non-negative")

    def __str__(self) -> str:
        return (
            f"{self.name}={self.delay_ns:g}ns "
            f"({self.prev.name}->{self.curr.name}, per {self.scope})"
        )


_COLUMN_KINDS = (CommandKind.RD, CommandKind.WR)


def timing_rules(timing: TimingParameters) -> Tuple[TimingRule, ...]:
    """The pairwise rulebook derived from one timing preset.

    The rulebook comes from the preset's *generation* -- each
    :class:`~repro.dram.timing.RuleSpec` row of
    ``timing.rule_table`` names the command pair, the scope, and the
    parameter holding the delay -- so LPDDR4 runs are checked against
    tRFCpb and the single tRRD, and DDR5 against tRFCsb, without this
    module re-listing any generation's rules.

    The two window/cadence constraints that are not command *pairs* --
    the rolling four-activate window (tFAW) and the refresh cadence
    (tREFI) -- are handled by :class:`TimingChecker` directly, driven
    by the same :class:`TimingParameters` fields.  (The per-bank tREFI
    cadence check holds for sliced refresh too: per-bank and same-bank
    rotation still refresh each bank exactly once per tREFI.)
    """
    return tuple(
        TimingRule(
            spec.name,
            CommandKind[spec.prev],
            CommandKind[spec.curr],
            spec.scope,
            getattr(timing, spec.parameter),
        )
        for spec in timing.rule_table
    )


@dataclass(frozen=True)
class Violation:
    """One broken rule: which command came too early, and by how much."""

    rule: str
    command: TimedCommand
    previous: Optional[TimedCommand]
    required_ns: float
    slack_ns: float
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.message}"


@dataclass
class ConformanceReport:
    """Outcome of one replay: per-rule check counts and violations."""

    commands: int
    checks: Dict[str, int]
    violations: List[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def violations_for(self, rule: str) -> List[Violation]:
        return [v for v in self.violations if v.rule == rule]

    def to_json_dict(self) -> dict:
        return {
            "commands": self.commands,
            "ok": self.ok,
            "checks": dict(sorted(self.checks.items())),
            "violation_count": len(self.violations),
            "violations": [
                {
                    "rule": violation.rule,
                    "time_ns": violation.command.time_ns,
                    "command": str(violation.command),
                    "previous": (
                        str(violation.previous)
                        if violation.previous is not None
                        else None
                    ),
                    "required_ns": violation.required_ns,
                    "slack_ns": violation.slack_ns,
                    "message": violation.message,
                }
                for violation in self.violations
            ],
        }

    def render_text(self, *, max_violations: int = 20) -> str:
        lines = [
            f"conformance: {self.commands} commands replayed, "
            f"{sum(self.checks.values())} rule checks, "
            f"{len(self.violations)} violation(s)"
        ]
        for rule, count in sorted(self.checks.items()):
            flagged = len(self.violations_for(rule))
            status = "ok" if not flagged else f"{flagged} VIOLATED"
            lines.append(f"  {rule:<12} {count:>8} checks  {status}")
        shown = self.violations[:max_violations]
        for violation in shown:
            lines.append(f"  {violation}")
        if len(self.violations) > len(shown):
            lines.append(
                f"  ... and {len(self.violations) - len(shown)} more"
            )
        return "\n".join(lines)


class _BankTrack:
    """Checker-side per-bank state: last command times and open row."""

    __slots__ = ("last", "open_row")

    def __init__(self) -> None:
        self.last: Dict[CommandKind, TimedCommand] = {}
        self.open_row: Optional[int] = None


class TimingChecker:
    """Replays a command log against the JEDEC rulebook.

    The checker is pure bookkeeping: a dictionary of last-command
    times per bank and per rank, a rolling ACT window per rank, and a
    linear walk over the (time-sorted) log.  It never computes a
    schedule, so it cannot inherit a scheduling bug from the engine.
    """

    def __init__(
        self,
        timing: TimingParameters,
        *,
        tolerance_ns: float = DEFAULT_TOLERANCE_NS,
        refresh_postpone_limit: int = REFRESH_POSTPONE_LIMIT,
    ) -> None:
        if tolerance_ns < 0:
            raise ValueError("tolerance must be non-negative")
        if refresh_postpone_limit < 1:
            raise ValueError("refresh postpone limit must be positive")
        self.timing = timing
        self.tolerance_ns = tolerance_ns
        self.refresh_postpone_limit = refresh_postpone_limit
        self.rules = timing_rules(timing)
        self._by_curr: Dict[CommandKind, List[TimingRule]] = {}
        for rule in self.rules:
            self._by_curr.setdefault(rule.curr, []).append(rule)

    # ------------------------------------------------------------------

    def replay(self, commands: Sequence[TimedCommand]) -> ConformanceReport:
        """Walk the log in time order and collect every violation."""
        timing = self.timing
        tolerance = self.tolerance_ns
        checks: Dict[str, int] = {rule.name: 0 for rule in self.rules}
        checks.setdefault("tFAW", 0)
        checks.setdefault("tREFI", 0)
        checks.setdefault("bank-state", 0)
        violations: List[Violation] = []

        banks: Dict[Tuple[int, int], _BankTrack] = {}
        rank_last: Dict[Tuple[int, CommandKind], TimedCommand] = {}
        act_windows: Dict[int, Deque[TimedCommand]] = {}

        def check(
            rule_name: str,
            previous: Optional[TimedCommand],
            current: TimedCommand,
            delay_ns: float,
        ) -> None:
            checks[rule_name] += 1
            if previous is None:
                return
            required = previous.time_ns + delay_ns
            slack = current.time_ns - required
            if slack < -tolerance:
                violations.append(Violation(
                    rule=rule_name,
                    command=current,
                    previous=previous,
                    required_ns=required,
                    slack_ns=slack,
                    message=(
                        f"{current} violates {rule_name}={delay_ns:g}ns "
                        f"after {previous} (slack {slack:.6g}ns)"
                    ),
                ))

        def structural(current: TimedCommand, message: str) -> None:
            checks["bank-state"] += 1
            violations.append(Violation(
                rule="bank-state",
                command=current,
                previous=None,
                required_ns=current.time_ns,
                slack_ns=0.0,
                message=f"{current}: {message}",
            ))

        # A stable sort restores global time order (the engine logs in
        # per-bank service order); ties keep emission order.
        ordered = sorted(commands, key=lambda timed: timed.time_ns)

        for timed in ordered:
            cmd = timed.command
            kind = cmd.kind
            if kind is CommandKind.WAIT:
                continue
            rank = cmd.rank
            bank_key = (rank, cmd.bank) if cmd.bank is not None else None
            track = None
            if bank_key is not None:
                track = banks.get(bank_key)
                if track is None:
                    track = banks[bank_key] = _BankTrack()

            # Pairwise rules from the declarative table.
            for rule in self._by_curr.get(kind, ()):
                if rule.scope == "bank":
                    if track is None:
                        continue
                    previous = track.last.get(rule.prev)
                else:
                    previous = rank_last.get((rank, rule.prev))
                check(rule.name, previous, timed, rule.delay_ns)

            # Window and cadence rules + bank-state structure.
            if kind is CommandKind.ACT:
                window = act_windows.setdefault(rank, deque(maxlen=4))
                if len(window) == 4:
                    check("tFAW", window[0], timed, timing.tFAW)
                window.append(timed)
                if track is not None:
                    if track.open_row is not None:
                        structural(
                            timed,
                            f"ACT while row {track.open_row} is open "
                            "(no PRE issued)",
                        )
                    track.open_row = cmd.row
            elif kind is CommandKind.PRE:
                if track is not None:
                    track.open_row = None
            elif kind in _COLUMN_KINDS:
                if track is not None and track.open_row is None:
                    structural(
                        timed, f"{kind.name} on a precharged bank"
                    )
            elif kind is CommandKind.REF:
                previous_ref = (
                    track.last.get(CommandKind.REF)
                    if track is not None
                    else rank_last.get((rank, CommandKind.REF))
                )
                limit = self.refresh_postpone_limit * timing.tREFI
                checks["tREFI"] += 1
                if previous_ref is not None:
                    gap = timed.time_ns - previous_ref.time_ns
                    if gap > limit + tolerance:
                        violations.append(Violation(
                            rule="tREFI",
                            command=timed,
                            previous=previous_ref,
                            required_ns=previous_ref.time_ns + limit,
                            slack_ns=limit - gap,
                            message=(
                                f"{timed} arrives {gap:g}ns after the "
                                f"previous REF; the refresh cadence "
                                f"allows at most "
                                f"{self.refresh_postpone_limit}x"
                                f"tREFI={limit:g}ns"
                            ),
                        ))
                elif timed.time_ns > limit + tolerance:
                    violations.append(Violation(
                        rule="tREFI",
                        command=timed,
                        previous=None,
                        required_ns=limit,
                        slack_ns=limit - timed.time_ns,
                        message=(
                            f"{timed}: first REF later than "
                            f"{self.refresh_postpone_limit}x"
                            f"tREFI={limit:g}ns"
                        ),
                    ))
                if track is not None:
                    track.open_row = None
                else:
                    # Rank-level REF: every bank of the rank loses its
                    # open row.
                    for (bank_rank, _), other in banks.items():
                        if bank_rank == rank:
                            other.open_row = None

            if track is not None:
                track.last[kind] = timed
            rank_last[(rank, kind)] = timed

        return ConformanceReport(
            commands=len(ordered),
            checks=checks,
            violations=violations,
        )


def check_run(
    system,
    *,
    timing: Optional[TimingParameters] = None,
    tolerance_ns: float = DEFAULT_TOLERANCE_NS,
) -> Tuple["SimulationResult", ConformanceReport]:
    """Run a :class:`~repro.sim.engine.MemorySystem` with logging on
    and replay the log; returns ``(result, report)``.

    Convenience wrapper used by the property tests, the smoke script,
    and ``runner check-timing``.
    """
    log: List[TimedCommand] = []
    result = system.run(command_log=log)
    checker = TimingChecker(
        timing if timing is not None else system.config.timing,
        tolerance_ns=tolerance_ns,
    )
    return result, checker.replay(log)
