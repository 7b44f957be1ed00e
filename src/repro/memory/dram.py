"""Main-memory timing and energy model.

Stands in for the DDR3-1600 configuration of Table I plus the DRAMPower
energy tool the paper uses.  Timing captures the first-order components that
matter to a look-ahead study — row-buffer locality, bank-level queueing and
(optionally) bounded controller read/write queues — without descending to
per-command DDR state machines.  Energy is an activity-based model: per-access
activate/read/write/precharge energy plus a background term proportional to
elapsed time.

The controller queue model rides on the shared occupancy layer
(:mod:`repro.memory.resources`): each bank group owns one read and one write
:class:`~repro.memory.resources.OccupancyQueue` of ``queue_depth`` slots, a
slot held from issue until the access's data transfer completes.  A full
queue delays the access — demand fills and write-buffer drains alike — and
the wait is charged to ``queue_stall_cycles``.  ``queue_depth=None``
(default) builds no queues and is bit-identical to the pre-model machine.

Traffic is tagged by *source* ("demand", "writeback", "prefetch") so the
telemetry spine can split reads and writes per cause — in particular the
dirty-victim writebacks that previously disappeared into the aggregate
write count.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.memory.resources import OccupancyQueue, probe_peak


@dataclass(frozen=True)
class DramConfig:
    """Timing/energy parameters for main memory (per-core-cycle units)."""

    #: Core cycles per DRAM access when the row is already open.
    row_hit_latency: int = 110
    #: Core cycles when a new row must be activated (tRP + tRCD + CAS).
    row_miss_latency: int = 190
    #: Number of independent banks (channels x ranks x banks collapsed).
    num_banks: int = 32
    row_bytes: int = 8192
    #: Additional queueing delay applied per already-pending request on a bank.
    bank_busy_penalty: int = 24
    #: Controller read/write queue depth per bank group.  ``None`` means
    #: unbounded: no queues are built and timing is bit-identical to the
    #: pre-queue machine.  A bounded depth delays accesses (demand fills and
    #: write-buffer drains alike) while their group's queue is full.
    queue_depth: Optional[int] = None
    #: Number of bank groups; each group has its own read and write queue
    #: (``group = bank % queue_groups``).  Inert while ``queue_depth`` is
    #: ``None``.
    queue_groups: int = 4
    # -- energy (arbitrary units per event; ratios follow DDR3 datasheets) --
    energy_activate: float = 18.0
    energy_read: float = 10.0
    energy_write: float = 12.0
    energy_background_per_kcycle: float = 4.0

    def __post_init__(self) -> None:
        if self.queue_depth is not None and self.queue_depth <= 0:
            raise ValueError("queue_depth must be positive (None = unbounded)")
        if self.queue_groups <= 0:
            raise ValueError("queue_groups must be positive")


@dataclass
class DramStats:
    reads: int = 0
    writes: int = 0
    #: Writes caused by dirty-victim writebacks (cache or write-buffer
    #: drains); ``writes - writeback_writes`` is demand (store-miss) traffic.
    writeback_writes: int = 0
    #: Reads issued on behalf of prefetchers; ``reads - prefetch_reads`` is
    #: demand fill traffic.
    prefetch_reads: int = 0
    row_hits: int = 0
    row_misses: int = 0
    busy_delay_cycles: int = 0
    #: Accesses that found their bank group's read/write queue full.
    queue_stalls: int = 0
    #: Cycles accesses spent waiting for a free controller-queue slot.
    queue_stall_cycles: float = 0.0
    #: Highest observed occupancy of any single read/write queue.
    queue_peak_occupancy: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def demand_reads(self) -> int:
        return self.reads - self.prefetch_reads

    @property
    def demand_writes(self) -> int:
        return self.writes - self.writeback_writes

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0


#: :attr:`DramModel._open_rows` entry of a bank with no open row (no row
#: number can reach it: rows are addresses divided by ``row_bytes``).
NO_ROW = -(2 ** 63)


class DramModel:
    """Open-page main memory with per-bank row buffers and simple queueing.

    Per-bank state lives in arrays the compiled kernel mutates in place:
    ``_open_rows`` (``NO_ROW`` = closed) and the ``_bank_ready`` list
    (times keep their int/float type).  The controller queues are the
    ``2 * queue_groups`` lanes of one occupancy store, read and write
    queue of group ``g`` at ``2 * g`` and ``2 * g + 1``.
    """

    def __init__(self, config: Optional[DramConfig] = None) -> None:
        self.config = config or DramConfig()
        self.stats = DramStats()
        banks = self.config.num_banks
        self._open_rows = array("q", [NO_ROW]) * banks
        self._bank_ready: list = [0] * banks
        #: ``None`` while the controller-queue model is unbounded.
        self._queues: Optional[List[OccupancyQueue]] = (
            OccupancyQueue.lanes(self.config.queue_depth,
                                 2 * self.config.queue_groups)
            if self.config.queue_depth is not None else None
        )
        self._dynamic_energy = 0.0
        self._last_access_cycle = 0

    # ------------------------------------------------------------------
    def _queue_for(self, bank: int, is_write: bool) -> OccupancyQueue:
        return self._queues[2 * (bank % self.config.queue_groups) + is_write]

    def access(self, address: int, now: int, is_write: bool = False,
               source: str = "demand") -> int:
        """Perform one access; returns the cycle at which data is available.

        ``source`` tags the traffic for the telemetry split: ``"demand"``
        (core fills, including store misses), ``"writeback"`` (dirty-victim
        drains) or ``"prefetch"``.  It never affects timing.
        """
        cfg = self.config
        stats = self.stats
        row = address // cfg.row_bytes
        bank = row % cfg.num_banks

        queue = None
        if self._queues is not None:
            # A full read/write queue delays the access until the earliest
            # queued transfer completes (the freed slot is consumed by this
            # access's own push below).
            queue = self._queue_for(bank, is_write)
            queue_delay = queue.reserve_delay(now)
            if queue_delay > 0:
                stats.queue_stalls += 1
                stats.queue_stall_cycles += queue_delay
                now = now + queue_delay

        ready = self._bank_ready[bank]
        start = max(now, ready)
        queue_delay = start - now
        if ready > now:
            # The bank is still busy with a previous request.
            stats.busy_delay_cycles += queue_delay

        if self._open_rows[bank] == row:
            latency = cfg.row_hit_latency
            stats.row_hits += 1
        else:
            latency = cfg.row_miss_latency
            stats.row_misses += 1
            self._dynamic_energy += cfg.energy_activate
            self._open_rows[bank] = row

        if is_write:
            stats.writes += 1
            if source == "writeback":
                stats.writeback_writes += 1
            self._dynamic_energy += cfg.energy_write
        else:
            stats.reads += 1
            if source == "prefetch":
                stats.prefetch_reads += 1
            self._dynamic_energy += cfg.energy_read

        finish = start + latency
        self._bank_ready[bank] = start + cfg.bank_busy_penalty
        if queue is not None:
            queue.push(finish)
            stats.queue_peak_occupancy = probe_peak(
                queue, now, stats.queue_peak_occupancy
            )
        self._last_access_cycle = max(self._last_access_cycle, finish)
        return finish

    # ------------------------------------------------------------------
    def drain_queues(self) -> None:
        """Quiesce the controller queues at a simulated-clock-domain
        boundary (see ``Cache.drain_mshrs`` — same aliasing hazard)."""
        if self._queues is not None:
            for queue in self._queues:
                queue.drain()

    def snapshot_state(self) -> tuple:
        """A copy of all mutable DRAM state, for comparing two models."""
        queues = (
            tuple(queue.snapshot_state() for queue in self._queues)
            if self._queues is not None else None
        )
        return (
            array("q", self._open_rows),
            tuple(self._bank_ready),
            self._dynamic_energy,
            self._last_access_cycle,
            dict(vars(self.stats)),
            queues,
        )

    # ------------------------------------------------------------------
    def energy(self, elapsed_cycles: int) -> float:
        """Total DRAM energy over ``elapsed_cycles`` of execution."""
        background = self.config.energy_background_per_kcycle * elapsed_cycles / 1000.0
        return self._dynamic_energy + background

    @property
    def dynamic_energy(self) -> float:
        return self._dynamic_energy

    @property
    def traffic(self) -> int:
        """Total number of DRAM data transfers (reads plus writes)."""
        return self.stats.accesses

    def traffic_breakdown(self) -> Dict[str, int]:
        """Per-source read/write split of :attr:`traffic`."""
        stats = self.stats
        return {
            "demand_reads": stats.demand_reads,
            "prefetch_reads": stats.prefetch_reads,
            "demand_writes": stats.demand_writes,
            "writeback_writes": stats.writeback_writes,
            "total": stats.accesses,
        }
