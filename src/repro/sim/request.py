"""Memory request records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(slots=True)
class MemoryRequest:
    """One DRAM request as seen by the memory controller.

    Slotted: the engine builds one per simulated request.
    """

    core: int
    bank: int  # flat bank id across ranks
    row: int
    column: int
    is_write: bool = False
    arrival_ns: float = 0.0
    chain: int = 0
    completion_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if self.core < 0 or self.bank < 0 or self.row < 0 or self.column < 0:
            raise ValueError("request coordinates must be non-negative")

    @property
    def latency_ns(self) -> float:
        if self.completion_ns is None:
            raise ValueError("request has not completed")
        return self.completion_ns - self.arrival_ns
