"""T1: the strided-prefetch offload engine (the *Reduce* optimization).

T1 is a deliberately dumb finite state machine located in the main core.  The
skeleton generator marks strided loop loads with an S bit; at run time T1
watches those marked instructions commit, derives the stride from consecutive
addresses of the same static instruction and the prefetch distance from the
ratio of average miss latency to loop-iteration time, and then issues one
prefetch per iteration (plus a burst of catch-up prefetches when it first
reaches steady state).  Crucially it never has to *detect* whether a stream is
strided — that decision was made offline — which is why it can be both more
accurate and less traffic-hungry than a conventional stride prefetcher
(Table III, Fig. 12).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Optional, Set

from repro.memory.cache import lru_victim
from repro.memory.hierarchy import CoreMemorySystem

#: Entry states (``_state``; must match kernel.c's T1_*).
TRANSIENT, STEADY = 1, 2
_STATE_NAMES = {TRANSIENT: "transient", STEADY: "steady"}


@dataclass
class T1Config:
    """T1 sizing (Table I: 16 prefetch-table entries)."""

    entries: int = 16
    #: Default/fallback prefetch distance while the real one is being learned.
    initial_distance: int = 4
    min_distance: int = 2
    max_distance: int = 64
    #: Observations of a consistent stride required before steady state.
    confirmations: int = 2
    #: Prefetches issued in one burst when catching up to the distance.
    catch_up_burst: int = 8
    #: Assumed average miss latency (cycles) for the distance calculation,
    #: refined online from observed inter-commit times.  Set near the full
    #: L1-to-DRAM round trip so steady-state prefetches land early enough.
    assumed_miss_latency: float = 240.0
    block_bytes: int = 64


@dataclass
class T1Stats:
    prefetches_issued: int = 0
    #: Requests refused by the memory system (no free MSHR entry at issue).
    prefetches_dropped: int = 0
    catch_up_bursts: int = 0
    entries_allocated: int = 0
    entries_reset: int = 0
    strides_confirmed: int = 0


class T1PrefetchEngine:
    """The FSM attached to the main core when ``enable_t1`` is on.

    The prefetch table (Fig. 3) lives in flat per-slot arrays that the
    compiled kernel steps in place when it runs the main thread's memory
    hierarchy natively: the first ``_count[0]`` slots hold the entries'
    static PC, state, stride, last address and commit cycle, smoothed
    iteration interval, confirmations, prefetch distance and last use, and
    ``_stamp`` orders them by allocation from the ``_clock`` counter.  The
    eviction victim is the entry with the smallest ``(last_use, stamp)``
    (:func:`~repro.memory.cache.lru_victim`).  The arrays are mutated in
    place, never rebound, so one table carries across segments whichever
    path runs them.
    """

    def __init__(self, marked_pcs: Iterable[int], memory: CoreMemorySystem,
                 config: Optional[T1Config] = None) -> None:
        self.marked_pcs: Set[int] = set(marked_pcs)
        self.memory = memory
        self.config = config or T1Config()
        self.stats = T1Stats()
        entries = self.config.entries
        self._pc = array("q", bytes(8 * entries))
        self._state = array("b", bytes(entries))
        self._stride = array("q", bytes(8 * entries))
        self._last_address = array("q", bytes(8 * entries))
        self._last_commit = array("d", bytes(8 * entries))
        self._interval = array("d", bytes(8 * entries))
        self._confirmations = array("q", bytes(8 * entries))
        self._distance = array("q", bytes(8 * entries))
        self._last_use = array("d", bytes(8 * entries))
        self._stamp = array("q", bytes(8 * entries))
        self._count = array("q", [0])
        self._clock = array("q", [0])

    def _slot(self, pc: int) -> Optional[int]:
        try:
            return self._pc.index(pc, 0, self._count[0])
        except ValueError:
            return None

    # ------------------------------------------------------------------
    def on_commit(self, pc: int, address: Optional[int], cycle: float,
                  is_loop_branch: bool = False) -> None:
        """Feed one committed instruction of the main thread into the engine."""
        if is_loop_branch:
            # All entries are cleared when a loop terminates; we approximate
            # loop termination by a *not-taken* loop branch, which the caller
            # signals by is_loop_branch=True with address None.
            if address is None:
                self.clear()
            return
        if address is None or pc not in self.marked_pcs:
            return
        k = self._slot(pc)
        if k is None:
            k = self._allocate(pc, cycle)
            self._last_address[k] = address
            self._last_commit[k] = cycle
            self._state[k] = TRANSIENT
            return

        observed_stride = address - self._last_address[k]
        interval = max(1.0, cycle - self._last_commit[k])
        self._last_address[k] = address
        self._last_commit[k] = cycle
        self._last_use[k] = cycle

        if self._state[k] == TRANSIENT:
            if observed_stride == self._stride[k] and observed_stride != 0:
                self._confirmations[k] += 1
                self._interval[k] = (self._interval[k] + interval) / 2.0
                if self._confirmations[k] >= self.config.confirmations:
                    self._enter_steady(k, address, cycle)
            else:
                self._stride[k] = observed_stride
                self._confirmations[k] = 0
                self._interval[k] = interval
        elif observed_stride != self._stride[k]:
            # The loop changed behaviour; fall back and re-learn.
            self._state[k] = TRANSIENT
            self._stride[k] = observed_stride
            self._confirmations[k] = 0
            self.stats.entries_reset += 1
        else:
            self._interval[k] = 0.75 * self._interval[k] + 0.25 * interval
            self._issue(k, address, cycle, count=1)

    # ------------------------------------------------------------------
    def _enter_steady(self, k: int, address: int, cycle: float) -> None:
        self._state[k] = STEADY
        self.stats.strides_confirmed += 1
        interval = max(1.0, self._interval[k])
        distance = int(round(self.config.assumed_miss_latency / interval))
        self._distance[k] = max(
            self.config.min_distance, min(self.config.max_distance, distance)
        )
        # Catch-up burst: launch several prefetches to reach the distance.
        self._issue(k, address, cycle, count=min(
            self.config.catch_up_burst, self._distance[k]))
        self.stats.catch_up_bursts += 1

    def _issue(self, k: int, address: int, cycle: float, count: int) -> None:
        distance = self._distance[k] or self.config.initial_distance
        stride = self._stride[k]
        block = self.config.block_bytes
        issued_blocks = set()
        for i in range(count):
            target = address + (distance + i) * stride
            if target < 0:
                continue
            if target // block in issued_blocks:
                continue
            issued_blocks.add(target // block)
            if self.memory.prefetch(target, int(cycle), level="l1") is not None:
                self.stats.prefetches_issued += 1
            else:
                self.stats.prefetches_dropped += 1

    def _allocate(self, pc: int, cycle: float) -> int:
        count = self._count[0]
        if count >= self.config.entries:
            k = lru_victim(self._last_use, self._stamp, 0, count)
        else:
            k = count
            self._count[0] = count + 1
        self._pc[k] = pc
        self._stride[k] = 0
        self._confirmations[k] = 0
        self._interval[k] = 0.0
        self._distance[k] = 0
        self._last_use[k] = cycle
        self._stamp[k] = self._clock[0]
        self._clock[0] += 1
        self.stats.entries_allocated += 1
        return k

    def clear(self) -> None:
        """Clear all table entries (loop termination)."""
        self.stats.entries_reset += self._count[0]
        self._count[0] = 0

    @property
    def occupancy(self) -> int:
        return self._count[0]

    def entry_state(self, pc: int) -> Optional[str]:
        k = self._slot(pc)
        return _STATE_NAMES[self._state[k]] if k is not None else None
