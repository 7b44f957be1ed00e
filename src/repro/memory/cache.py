"""Set-associative cache with LRU replacement, MSHRs, a victim write buffer
and prefetch timing.

The contention primitives (MSHR files — banked or not — and the write
buffer) are clients of the shared occupancy layer in
:mod:`repro.memory.resources`; this module wires them into the cache's
lookup/fill timing.
"""

from __future__ import annotations

import weakref
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.memory.resources import (
    BankedMshrFile,
    MshrFile,
    OccupancyQueue,
    WriteBufferConfig,
    probe_peak,
)

__all__ = [
    "Cache", "CacheConfig", "CacheStats",
    "BankedMshrFile", "MshrFile", "WriteBufferConfig",
]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str = "cache"
    size_bytes: int = 32 * 1024
    associativity: int = 4
    block_bytes: int = 64
    #: Access latency in core cycles (hit latency of this level).
    latency: int = 3
    #: Maximum outstanding misses this level can sustain (the MSHR file
    #: capacity).  ``None`` means unbounded: no file is built and the timing
    #: path is bit-identical to a machine with infinite memory-level
    #: parallelism.  A bounded file stalls further misses while full (see
    #: :class:`~repro.memory.resources.MshrFile`) and gates prefetch issue.
    mshr_entries: Optional[int] = 32
    #: Address-interleaved MSHR banking: ``mshr_entries`` split evenly over
    #: this many banks (``bank = block % mshr_banks``).  ``None``/``1`` keeps
    #: the single file; requires ``mshr_entries`` to divide evenly.  Bank
    #: conflict stalls (bank full while others have room) are counted
    #: separately from capacity stalls.
    mshr_banks: Optional[int] = None
    #: Victim write buffer of this level (see
    #: :class:`~repro.memory.resources.WriteBufferConfig`).  ``None`` means
    #: no buffer is modelled: dirty victims drain instantly and fills are
    #: never back-pressured — bit-identical to the pre-model machine.
    write_buffer: Optional[WriteBufferConfig] = None

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.block_bytes) != 0:
            raise ValueError(
                f"{self.name}: size must be a multiple of associativity*block"
            )
        if (
            self.mshr_banks is not None
            and self.mshr_banks > 1
            and self.mshr_entries is not None
            and self.mshr_entries % self.mshr_banks
        ):
            raise ValueError(
                f"{self.name}: mshr_entries ({self.mshr_entries}) must divide "
                f"evenly across {self.mshr_banks} banks"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.block_bytes)


@dataclass
class CacheStats:
    """Counters accumulated by one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    prefetch_hits: int = 0          # demand access served by a prefetched line
    late_prefetch_hits: int = 0     # ...where the prefetch was still in flight
    prefetches_issued: int = 0
    prefetches_useless: int = 0     # prefetched lines evicted before any use
    writebacks: int = 0
    evictions: int = 0
    #: Cycles demand misses spent waiting for a free MSHR entry (fractional:
    #: the core model runs on sub-cycle timestamps).
    mshr_stall_cycles: float = 0.0
    #: Number of demand misses that had to wait for a free MSHR entry.
    mshr_stalls: int = 0
    #: Primary misses that allocated a fresh MSHR entry.
    mshr_allocations: int = 0
    #: Fills that coalesced onto an already in-flight entry (no double entry).
    mshr_coalesced: int = 0
    #: Highest observed number of simultaneously in-flight entries.
    mshr_peak_occupancy: int = 0
    #: Prefetch requests dropped because the MSHR file was full at issue.
    prefetches_dropped: int = 0
    #: Demand-miss MSHR stalls where the miss's bank was full while another
    #: bank still had room (a subset of ``mshr_stalls``; only a banked file
    #: can produce them).
    mshr_bank_conflicts: int = 0
    #: Cycles lost to those bank-conflict stalls (subset of
    #: ``mshr_stall_cycles``).
    mshr_bank_conflict_cycles: float = 0.0
    #: Dirty victims admitted to this level's write buffer.
    wb_enqueued: int = 0
    #: Fills back-pressured because the write buffer was full.
    wb_stalls: int = 0
    #: Cycles fills spent waiting for a free write-buffer slot.
    wb_stall_cycles: float = 0.0
    #: Highest observed number of buffered victim writebacks.
    wb_peak_occupancy: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        for name in vars(other):
            if name.endswith("_peak_occupancy"):
                # Peak occupancies are high-water marks, not flow counters.
                setattr(self, name, max(getattr(self, name), getattr(other, name)))
            else:
                setattr(self, name, getattr(self, name) + getattr(other, name))


#: Per-line flag bits of :attr:`Cache._flags` (must match kernel.c).
LINE_DIRTY = 1
LINE_FROM_PREFETCH = 2
LINE_PREFETCH_USED = 4
#: The line's fill time is a Python float (clear: an int), so it reads back
#: from the ``array("d")`` with the type it arrived with.
LINE_FLOAT_FILL = 8
#: A line is an unused prefetch when this masks to LINE_FROM_PREFETCH.
_PREFETCH_STATE = LINE_FROM_PREFETCH | LINE_PREFETCH_USED


def _fill_bit(fill_time) -> int:
    """The :data:`LINE_FLOAT_FILL` bit of a line filled at ``fill_time``."""
    return LINE_FLOAT_FILL if isinstance(fill_time, float) else 0


#: Line arrays of collected caches by slot count, ready for the next cache
#: of that size (see :class:`Cache`), at most :data:`FREE_LINES_PER_SIZE`
#: sets each.  A set is ``(tags, fill, last_use, flags, stamp)``.
_FREE_LINES: Dict[int, List[tuple]] = {}
FREE_LINES_PER_SIZE = 4


def _line_arrays(slots: int) -> tuple:
    """A line-array set of ``slots`` slots: a collected cache's when one is
    free, else a new one (built by repetition: no slot-sized temporary)."""
    free = _FREE_LINES.get(slots)
    if free:
        return free.pop()
    return (array("q", [-1]) * slots, array("d", [0.0]) * slots,
            array("d", [0.0]) * slots, array("B", [0]) * slots,
            array("q", [0]) * slots)


def _recycle_lines(slots: int, lines: tuple) -> None:
    """Keep a collected cache's line arrays for the next cache of its size."""
    free = _FREE_LINES.setdefault(slots, [])
    if len(free) < FREE_LINES_PER_SIZE:
        free.append(lines)


def lru_victim(last_use, stamp, base: int, count: int) -> int:
    """The LRU slot among ``base .. base + count - 1``: the smallest
    ``(last_use, stamp)``, so ties break in insertion order.

    :class:`Cache` sets and the :class:`~repro.memory.tlb.Tlb` share this
    rule (and ``lru_victim`` in kernel.c): each fill takes an int64 stamp
    from the structure's ``_clock``.
    """
    uses = last_use[base:base + count]
    oldest = min(uses)
    if uses.count(oldest) == 1:
        return base + uses.index(oldest)
    return min((base + k for k, use in enumerate(uses) if use == oldest),
               key=stamp.__getitem__)


class Cache:
    """One level of cache.

    The cache is a timing filter: :meth:`lookup` answers whether a block is
    present and how many cycles this level adds, and :meth:`fill` installs a
    block (from a demand miss or a prefetch), possibly evicting another.  The
    surrounding :class:`~repro.memory.hierarchy.CoreMemorySystem` composes
    levels and propagates misses downward.

    Line state lives in flat per-slot arrays (set ``s`` owns slots
    ``s * associativity`` onwards, and its lines are the first
    ``_count[s]`` of them) so the compiled kernel runs the whole cache on
    the same memory.  Every one is a typed array: ``_tags``, ``_flags``
    (``LINE_*`` bits), ``_stamp`` and the times ``_fill`` and ``_last_use``
    (doubles: ints stay exact below 2**53).  A fill time keeps the
    int/float type it arrived with through its line's
    :data:`LINE_FLOAT_FILL` bit; a last use is only ever compared, so it
    needs none.  A fill stamps its line from
    the ``_clock`` counter: the LRU victim is the line with the smallest
    ``(last_use, stamp)``, so ties break in insertion order, and hits never
    change it.  The arrays are mutated in place, never rebound, because a
    running kernel holds pointers into them.

    A cache may start on *recycled* line arrays: those of a collected cache
    with the same slot count, still holding its lines.  Only ``_count`` and
    ``_clock`` start fresh, and that is the whole reset: every reader (the
    lookups, the fill path, :func:`lru_victim`, the state views and their
    kernel.c twins) stops at a set's first ``_count[s]`` slots, and a fill
    writes every field of the slot it takes, so a stale slot is never
    observed.  Arrays return to the free store only when their cache is
    collected, so two live caches never share them.
    """

    def __init__(self, config: CacheConfig, lookahead_mode: bool = False) -> None:
        self.config = config
        self.stats = CacheStats()
        #: Look-ahead containment: dirty lines are discarded, never written back.
        self.lookahead_mode = lookahead_mode
        # Geometry hoisted to plain attributes: lookup() runs millions of
        # times per simulation and must not chase config properties.
        self._block_bytes = config.block_bytes
        self._num_sets = config.num_sets
        self._latency = config.latency
        self._associativity = config.associativity
        slots = config.num_sets * config.associativity
        lines = _line_arrays(slots)
        self._tags, self._fill, self._last_use, self._flags, self._stamp = lines
        weakref.finalize(self, _recycle_lines, slots, lines).atexit = False
        self._count = array("q", bytes(8 * config.num_sets))
        self._clock = array("q", [0])
        #: ``None`` when MSHRs are unbounded — the whole model is inert then.
        #: A banked configuration (``mshr_banks >= 2``) interleaves the file
        #: over block-address banks and surfaces bank-conflict stalls.
        self._mshr = self._build_mshr(config)
        #: ``None`` when no write buffer is configured — dirty victims drain
        #: instantly and fills are never back-pressured.
        self._write_buffer: Optional[OccupancyQueue] = (
            OccupancyQueue(config.write_buffer.entries)
            if config.write_buffer is not None else None
        )
        #: MSHR wait charged to the most recent miss returned by lookup();
        #: the hierarchy adds it to the miss's issue time toward the next
        #: level.  Stays 0 forever when the file is unbounded.
        self.last_miss_stall: float = 0.0
        #: Write-buffer wait charged to the most recent fill that evicted a
        #: dirty victim while the buffer was full; the hierarchy adds it to
        #: the access's ready time (back-pressure) and to the victim's drain
        #: start.  Stays 0 forever without a buffer.
        self.last_wb_stall: float = 0.0

    @staticmethod
    def _build_mshr(config: CacheConfig):
        if config.mshr_entries is None:
            return None
        if config.mshr_banks is not None and config.mshr_banks > 1:
            return BankedMshrFile(config.mshr_entries, config.mshr_banks)
        return MshrFile(config.mshr_entries)

    # -- lookups ----------------------------------------------------------
    def _slot(self, block: int) -> Optional[int]:
        """The slot holding ``block``'s line, or ``None``."""
        index = block % self._num_sets
        base = index * self._associativity
        tags = self._tags[base:base + self._count[index]]
        tag = block // self._num_sets
        return base + tags.index(tag) if tag in tags else None

    def probe(self, address: int) -> bool:
        """Presence check with no statistics or LRU side effects."""
        return self._slot(address // self._block_bytes) is not None

    def lookup(self, address: int, now: int, is_write: bool = False) -> Optional[int]:
        """Demand access.  Returns the cycle the data is available, or ``None``.

        A hit returns ``max(now, line.fill_time) + latency`` so that accesses
        arriving before an in-flight prefetch completes pay the residual
        latency.  A miss returns ``None``; the caller is responsible for
        going to the next level and calling :meth:`fill`.
        """
        stats = self.stats
        stats.accesses += 1
        block = address // self._block_bytes
        slot = self._slot(block)
        if slot is None:
            stats.misses += 1
            mshr = self._mshr
            if mshr is not None:
                stall = mshr.acquire_delay(block, now)
                self.last_miss_stall = stall
                if stall > 0:
                    stats.mshr_stall_cycles += stall
                    stats.mshr_stalls += 1
                    if mshr.last_conflict:
                        stats.mshr_bank_conflicts += 1
                        stats.mshr_bank_conflict_cycles += stall
            return None
        stats.hits += 1
        self._last_use[slot] = now
        fill_time = self._fill[slot]
        flags = self._flags[slot]
        if not flags & LINE_FLOAT_FILL:
            fill_time = int(fill_time)
        if flags or is_write:
            if is_write:
                flags |= LINE_DIRTY
            if flags & _PREFETCH_STATE == LINE_FROM_PREFETCH:
                flags |= LINE_PREFETCH_USED
                stats.prefetch_hits += 1
                if fill_time > now:
                    stats.late_prefetch_hits += 1
            self._flags[slot] = flags
        ready = fill_time if fill_time > now else now
        return ready + self._latency

    # -- fills and evictions ----------------------------------------------
    def fill(self, address: int, fill_time: int, dirty: bool = False,
             from_prefetch: bool = False, allocate_mshr: bool = True,
             now: Optional[float] = None) -> Optional[int]:
        """Install a block; returns the address of a dirty victim needing
        writeback (``None`` otherwise).

        ``allocate_mshr=False`` marks fills that carry no outstanding miss
        (dirty-victim writebacks between levels): they install data that is
        already on chip and must not occupy a miss register.  ``now`` is the
        cycle the triggering miss issued; it lets the peak-occupancy
        telemetry retire completed entries before measuring (without it the
        lazily-pruned map size is used, an upper bound).

        With a write buffer configured, a fill that evicts a dirty victim
        while the buffer is full is *back-pressured*: the wait for a free
        slot lands in :attr:`last_wb_stall` (the hierarchy adds it to the
        access's ready time and the victim's drain start) and the incoming
        line's availability shifts by the same amount.
        """
        if self._write_buffer is not None:
            self.last_wb_stall = 0.0
        block = address // self._block_bytes
        index = block % self._num_sets
        tag = block // self._num_sets
        stats = self.stats
        if from_prefetch:
            stats.prefetches_issued += 1
        mshr = self._mshr
        if mshr is not None and allocate_mshr:
            if mshr.allocate(block, fill_time):
                stats.mshr_allocations += 1
                stats.mshr_peak_occupancy = probe_peak(
                    mshr, now, stats.mshr_peak_occupancy
                )
            else:
                stats.mshr_coalesced += 1
        slot = self._slot(block)
        if slot is not None:
            # Keep the earliest availability time; refresh prefetch marking.
            if fill_time < self._fill[slot]:
                self._fill[slot] = fill_time
                self._flags[slot] = (self._flags[slot] & ~LINE_FLOAT_FILL
                                     | _fill_bit(fill_time))
            if dirty:
                self._flags[slot] |= LINE_DIRTY
            return None

        victim_writeback: Optional[int] = None
        count = self._count[index]
        base = index * self._associativity
        if count >= self._associativity:
            slot = lru_victim(self._last_use, self._stamp, base, count)
            victim_flags = self._flags[slot]
            self.stats.evictions += 1
            if victim_flags & _PREFETCH_STATE == LINE_FROM_PREFETCH:
                self.stats.prefetches_useless += 1
            if victim_flags & LINE_DIRTY:
                if self.lookahead_mode:
                    # Containment of speculation: discard silently.
                    pass
                else:
                    self.stats.writebacks += 1
                    victim_block = self._tags[slot] * self._num_sets + index
                    victim_writeback = victim_block * self._block_bytes
                    wb = self._write_buffer
                    if wb is not None:
                        # The victim needs a buffer slot at eviction time
                        # (the fill's arrival).  A full buffer stalls the
                        # fill until the earliest drain completes; the freed
                        # slot is consumed by the follow-up writeback_admit.
                        wb_stall = wb.reserve_delay(fill_time)
                        self.last_wb_stall = wb_stall
                        if wb_stall > 0:
                            stats.wb_stalls += 1
                            stats.wb_stall_cycles += wb_stall
                            fill_time += wb_stall
        else:
            # A set's lines are always its first ``count`` slots: lines
            # leave only through eviction, whose slot is reused.
            slot = base + count
            self._count[index] = count + 1
        self._tags[slot] = tag
        self._fill[slot] = fill_time
        self._last_use[slot] = fill_time
        self._flags[slot] = ((LINE_DIRTY if dirty else 0)
                             | (LINE_FROM_PREFETCH if from_prefetch else 0)
                             | _fill_bit(fill_time))
        clock = self._clock
        self._stamp[slot] = clock[0]
        clock[0] += 1
        return victim_writeback

    def _fill_time(self, slot: int):
        """``slot``'s fill time, with the type it arrived with."""
        fill_time = self._fill[slot]
        return (fill_time if self._flags[slot] & LINE_FLOAT_FILL
                else int(fill_time))

    def _resident(self) -> List[int]:
        """Every resident line's slot, in set order and, within a set, in
        LRU-tie (insertion) order."""
        stamp, associativity = self._stamp, self._associativity
        return [slot for index, count in enumerate(self._count) if count
                for slot in sorted(range(index * associativity,
                                         index * associativity + count),
                                   key=stamp.__getitem__)]

    # -- MSHR / write-buffer helpers ---------------------------------------
    def mshr_available(self, now: float, address: Optional[int] = None) -> bool:
        """Whether a prefetch could allocate an MSHR entry at cycle ``now``.

        Demand misses stall for a free entry; prefetches are speculative and
        are dropped instead (the caller checks this before issuing).  With a
        banked file the question is asked of ``address``'s bank — the slot
        that would actually be allocated.
        """
        mshr = self._mshr
        if mshr is None:
            return True
        if address is None:
            return mshr.available(now)
        return mshr.available(now, address // self._block_bytes)

    def mshr_occupancy(self, now: float) -> int:
        """In-flight misses at cycle ``now`` (0 when unbounded)."""
        return 0 if self._mshr is None else self._mshr.occupancy(now)

    @property
    def has_write_buffer(self) -> bool:
        return self._write_buffer is not None

    def writeback_admit(self, completion: float, at: Optional[float] = None) -> None:
        """Admit one dirty victim into the write buffer (no-op without one).

        ``completion`` is when the victim's write lands at the next level
        down (or DRAM) — the slot is held until then.  ``at`` is the drain
        start time, used to retire completed entries before the peak-
        occupancy telemetry measures.
        """
        wb = self._write_buffer
        if wb is None:
            return
        wb.push(completion)
        stats = self.stats
        stats.wb_enqueued += 1
        stats.wb_peak_occupancy = probe_peak(wb, at, stats.wb_peak_occupancy)

    def wb_occupancy(self, now: float) -> int:
        """Buffered victim writebacks still draining at cycle ``now``."""
        return 0 if self._write_buffer is None else self._write_buffer.occupancy(now)

    def drain_mshrs(self) -> None:
        """Quiesce every occupancy resource of this level: used at
        simulated-clock-domain boundaries (end of cache warmup, look-ahead/
        main-thread pass handoffs) where access timestamps restart and stale
        completion times would otherwise alias into the new time base.  The
        write buffer quiesces alongside the MSHR file for the same reason."""
        if self._mshr is not None:
            self._mshr.drain()
        if self._write_buffer is not None:
            self._write_buffer.drain()
        self.last_miss_stall = 0.0
        self.last_wb_stall = 0.0

    # -- state views ---------------------------------------------------------
    def lines(self) -> List[Dict[int, tuple]]:
        """Per set, ``{tag: (tag, fill_time, last_use, dirty, from_prefetch,
        prefetch_used)}`` in LRU-tie (insertion) order."""
        tags, last_use, flags = self._tags, self._last_use, self._flags
        sets: List[Dict[int, tuple]] = [{} for _ in range(self._num_sets)]
        for slot in self._resident():
            tag = tags[slot]
            sets[slot // self._associativity][tag] = (
                tag, self._fill_time(slot), last_use[slot],
                bool(flags[slot] & LINE_DIRTY),
                bool(flags[slot] & LINE_FROM_PREFETCH),
                bool(flags[slot] & LINE_PREFETCH_USED))
        return sets

    def snapshot_state(self) -> tuple:
        """A copy of all mutable cache state, for comparing two caches.

        Only resident lines are copied, as flat columns in set order and,
        within a set, in LRU-tie order (stamps themselves are left out:
        only their order within a set is observable).
        """
        slots = array("q", self._resident())
        tags, last_use, flags = self._tags, self._last_use, self._flags
        lines = (
            slots,
            array("q", [tags[slot] for slot in slots]),
            tuple(self._fill_time(slot) for slot in slots),
            tuple(last_use[slot] for slot in slots),
            bytes([flags[slot] for slot in slots]),
        )
        mshr = self._mshr.snapshot_state() if self._mshr is not None else None
        wb = (
            self._write_buffer.snapshot_state()
            if self._write_buffer is not None else None
        )
        return lines, dict(vars(self.stats)), mshr, wb

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(self._count)
