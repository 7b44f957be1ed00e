"""The Branch Outcome Queue (BOQ) and Footnote Queue (FQ).

These two FIFOs are the only communication channel between the look-ahead
core and the main core (Sec. III-A).  The BOQ carries one 2-bit entry per
committed conditional branch (direction + a footnote flag); the FQ carries
wider, less frequent payloads — L1/L2 prefetch addresses, TLB hints,
indirect-branch targets, and (with the value-reuse optimization) predicted
register values.  Only occupancy and the communication volume the paper
reports (≈2.2 bits transferred per instruction) are observable, so the
queues are counters; the main thread's hint unit
(:class:`~repro.core.compile.hookspec.HintUnit`) decides when entries are
produced, consumed and flushed.

Known modelling bug: the FQ is never consumed.  It fills to its capacity and
then rejects every later hint until a look-ahead reboot flushes it, so
:func:`communication_bits_per_instruction` undercounts FQ traffic (on quick
``mcf`` R3 it accepted 128 entries and rejected 607).  The simulation
reproduces this on purpose until a modelling change fixes it.
"""

from __future__ import annotations

import enum
from typing import Dict


class FootnoteKind(enum.Enum):
    """Payload types carried by the footnote queue (Fig. 2 / Fig. 8)."""

    L1_PREFETCH = "l1_prefetch"
    L2_PREFETCH = "l2_prefetch"
    TLB_HINT = "tlb_hint"
    INDIRECT_TARGET = "indirect_target"
    VALUE_PREDICTION = "value_prediction"
    REBOOT_REGISTER = "reboot_register"

    @property
    def payload_bits(self) -> int:
        """Approximate payload width used for communication accounting."""
        return {
            FootnoteKind.L1_PREFETCH: 48,
            FootnoteKind.L2_PREFETCH: 48,
            FootnoteKind.TLB_HINT: 36,
            FootnoteKind.INDIRECT_TARGET: 48,
            FootnoteKind.VALUE_PREDICTION: 64,
            FootnoteKind.REBOOT_REGISTER: 64,
        }[self]


class _CountingQueue:
    """Occupancy counter with a capacity and produced/consumed totals."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.occupancy = 0
        self.produced = 0
        self.consumed = 0

    def _admit(self, count: int) -> int:
        accepted = min(count, self.capacity - self.occupancy)
        self.occupancy += accepted
        return accepted

    def consume(self) -> bool:
        """Pop one entry; False when the queue is empty."""
        if not self.occupancy:
            return False
        self.occupancy -= 1
        self.consumed += 1
        return True

    def flush(self) -> int:
        """Drop all pending entries (look-ahead reboot); returns count dropped."""
        dropped = self.occupancy
        self.occupancy = 0
        return dropped


class BranchOutcomeQueue(_CountingQueue):
    """Occupancy/statistics model of the BOQ."""

    ENTRY_BITS = 2

    def __init__(self, capacity: int = 512) -> None:
        super().__init__(capacity)
        self.incorrect = 0

    def produce(self) -> bool:
        """Push an outcome; returns False when the queue is full (LT stalls)."""
        accepted = self._admit(1)
        self.produced += accepted
        return accepted == 1

    def record(self, count: int, incorrect: int) -> None:
        """Account ``count`` outcomes produced and consumed back to back
        (the main thread consumes each one as it fetches the branch),
        ``incorrect`` of them wrong."""
        self.produced += count
        self.consumed += count
        self.incorrect += incorrect

    @property
    def bits_transferred(self) -> int:
        return self.produced * self.ENTRY_BITS


class FootnoteQueue(_CountingQueue):
    """Occupancy/statistics model of the FQ."""

    def __init__(self, capacity: int = 128) -> None:
        super().__init__(capacity)
        self.bits_transferred = 0
        self.produced_by_kind: Dict[FootnoteKind, int] = {
            kind: 0 for kind in FootnoteKind
        }

    def produce(self, kind: FootnoteKind, count: int = 1) -> int:
        """Offer ``count`` entries of one kind; returns how many fit."""
        return self.record(kind, self._admit(count))

    def record(self, kind: FootnoteKind, accepted: int) -> int:
        """Account ``accepted`` entries of ``kind`` already admitted."""
        self.produced += accepted
        self.produced_by_kind[kind] += accepted
        self.bits_transferred += accepted * kind.payload_bits
        return accepted


def communication_bits_per_instruction(boq: BranchOutcomeQueue, fq: FootnoteQueue,
                                       committed_instructions: int) -> float:
    """Average LT-to-MT communication volume in bits per committed instruction.

    The paper reports this averages about 2.2 bits per instruction and is
    therefore an insignificant energy contributor.
    """
    if committed_instructions <= 0:
        return 0.0
    total_bits = boq.bits_transferred + fq.bits_transferred
    return total_bits / committed_instructions
