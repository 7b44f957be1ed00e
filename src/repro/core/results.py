"""Result containers produced by the timing model."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional


@dataclass
class InstructionTiming:
    """Per-instruction pipeline timestamps (in cycles, fractional allowed)."""

    fetch: float
    dispatch: float
    issue: float
    complete: float
    commit: float

    @property
    def dispatch_to_execute(self) -> float:
        """The latency used to identify "slow" value-reuse candidates."""
        return self.complete - self.dispatch


class InstructionTimings:
    """Per-instruction timestamps of one run, one ``array('d')`` per stage.

    Both pipeline paths fill these columns directly; bulk consumers (the
    profiler, the fetch-buffer measurements) read them without building a
    per-instruction object.  Iterating still yields
    :class:`InstructionTiming` rows.
    """

    COLUMNS = ("fetch", "dispatch", "issue", "complete", "commit")
    __slots__ = COLUMNS

    def __init__(self, fetch=(), dispatch=(), issue=(), complete=(),
                 commit=()) -> None:
        columns = (fetch, dispatch, issue, complete, commit)
        for name, column in zip(self.COLUMNS, columns):
            setattr(self, name, column if isinstance(column, array)
                    else array("d", column))

    def __len__(self) -> int:
        return len(self.fetch)

    def __iter__(self) -> Iterator[InstructionTiming]:
        for row in zip(self.fetch, self.dispatch, self.issue, self.complete,
                       self.commit):
            yield InstructionTiming(*row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstructionTimings):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.COLUMNS)

    def extend(self, other: "InstructionTimings") -> None:
        for name in self.COLUMNS:
            getattr(self, name).extend(getattr(other, name))


@dataclass
class CoreResult:
    """Aggregate statistics from one timing-model run."""

    name: str = "core"
    #: Total cycles from the first fetch to the last commit.
    cycles: float = 0.0
    committed: int = 0
    #: Dynamic instructions decoded (committed plus wrong-path work).
    decoded: int = 0
    #: Dynamic instructions executed (committed plus wrong-path work).
    executed: int = 0

    # Branch behaviour.
    branches: int = 0
    branch_mispredicts: int = 0
    btb_misses: int = 0
    #: Mispredictions caused by an incorrect look-ahead (BOQ) hint.
    hint_mispredicts: int = 0

    # Memory behaviour.
    l1d_accesses: int = 0
    l1d_misses: int = 0
    l1i_accesses: int = 0
    l1i_misses: int = 0
    l2_misses: int = 0
    dram_accesses: int = 0
    tlb_misses: int = 0

    # Value reuse.
    value_predictions_used: int = 0
    value_mispredictions: int = 0
    validations_skipped: int = 0

    # Front end.
    fetch_bubbles: float = 0.0
    fetch_stall_on_hint: float = 0.0
    #: Histogram of fetch-buffer occupancy sampled at each dispatch.
    fetch_queue_histogram: Dict[int, int] = field(default_factory=dict)

    # Optional per-instruction timings (populated when requested).
    timings: Optional[InstructionTimings] = None

    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def branch_mpki(self) -> float:
        return 1000.0 * self.branch_mispredicts / self.committed if self.committed else 0.0

    @property
    def l1d_mpki(self) -> float:
        return 1000.0 * self.l1d_misses / self.committed if self.committed else 0.0

    @property
    def branch_accuracy(self) -> float:
        if not self.branches:
            return 1.0
        return 1.0 - self.branch_mispredicts / self.branches

    def merge_histogram(self, occupancy: int) -> None:
        self.fetch_queue_histogram[occupancy] = (
            self.fetch_queue_histogram.get(occupancy, 0) + 1
        )

    def accumulate(self, other: "CoreResult") -> None:
        """Add another run's statistics into this one (segmented simulation).

        Cycles add up (segments execute back to back); counters add up; the
        per-instruction timing columns are concatenated when the other side
        carries them.
        """
        self.cycles += other.cycles
        self.committed += other.committed
        self.decoded += other.decoded
        self.executed += other.executed
        self.branches += other.branches
        self.branch_mispredicts += other.branch_mispredicts
        self.btb_misses += other.btb_misses
        self.hint_mispredicts += other.hint_mispredicts
        self.l1d_accesses += other.l1d_accesses
        self.l1d_misses += other.l1d_misses
        self.l1i_accesses += other.l1i_accesses
        self.l1i_misses += other.l1i_misses
        self.l2_misses += other.l2_misses
        self.dram_accesses += other.dram_accesses
        self.tlb_misses += other.tlb_misses
        self.value_predictions_used += other.value_predictions_used
        self.value_mispredictions += other.value_mispredictions
        self.validations_skipped += other.validations_skipped
        self.fetch_bubbles += other.fetch_bubbles
        self.fetch_stall_on_hint += other.fetch_stall_on_hint
        for occupancy, count in other.fetch_queue_histogram.items():
            self.fetch_queue_histogram[occupancy] = (
                self.fetch_queue_histogram.get(occupancy, 0) + count
            )
        if other.timings:
            if self.timings is None:
                self.timings = InstructionTimings()
            self.timings.extend(other.timings)

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of the headline metrics (for table rendering)."""
        return {
            "cycles": self.cycles,
            "committed": self.committed,
            "ipc": self.ipc,
            "branch_mpki": self.branch_mpki,
            "branch_accuracy": self.branch_accuracy,
            "l1d_mpki": self.l1d_mpki,
            "dram_accesses": self.dram_accesses,
            "decoded": self.decoded,
            "executed": self.executed,
        }
