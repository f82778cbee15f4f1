"""Summary statistics and result-file comparison for the benchmark."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Candidate tail percentiles, lowest first.
PERCENTILES = (50, 90, 95, 99, 99.9)

#: A tail percentile is reported only with at least this many samples
#: beyond it.
TAIL_MIN_BEYOND = 10


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(percentile, value)``: the highest percentile of
    :data:`PERCENTILES` with at least ten samples beyond it.

    Percentiles use the nearest-rank definition: the p-th percentile
    of n sorted samples is the one at 1-based rank ``ceil(p/100 * n)``,
    and the samples beyond it are the ``n - rank`` ranked above it.
    ``None`` when even the median has fewer than ten beyond it.
    """
    ordered = sorted(samples)
    found = None
    for percentile in PERCENTILES:
        rank = max(1, math.ceil(Fraction(str(percentile)) * len(ordered) / 100))
        if len(ordered) - rank >= TAIL_MIN_BEYOND:
            found = (percentile, ordered[rank - 1])
    return found


def summarize(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, tail percentile (when one qualifies) and sample count."""
    tail = tail_percentile(samples)
    return {
        "median": statistics.median(samples),
        "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "n": len(samples),
        "samples": list(samples),
    }


def flatten(document: Any, prefix: str = "") -> Dict[str, Any]:
    """Nested dicts as ``{"a.b.c": leaf}``; lists stay leaves."""
    if not isinstance(document, dict):
        return {prefix: document}
    flat: Dict[str, Any] = {}
    for key, value in document.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        flat.update(flatten(value, name))
    return flat


def compare_exact(first: Dict[str, Any], second: Dict[str, Any]) -> List[str]:
    """One line per exact value that differs between two result files.

    Only the ``exact`` section is compared: simulated statistics,
    counters, task and table digests, and the paper outcomes.  Values
    present in one file only are listed too.
    """
    a = flatten(first.get("exact", {}))
    b = flatten(second.get("exact", {}))
    lines = []
    for name in sorted(set(a) | set(b)):
        if name not in b:
            lines.append(f"{name}: {a[name]!r} -> (missing)")
        elif name not in a:
            lines.append(f"{name}: (missing) -> {b[name]!r}")
        elif a[name] != b[name]:
            lines.append(f"{name}: {a[name]!r} -> {b[name]!r}")
    return lines
