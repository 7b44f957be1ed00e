"""Composition of the cache levels into per-core and shared memory systems.

This module is also where the memory backend's *telemetry spine* is
assembled: every contention resource (per-level MSHR files and write
buffers, the DRAM controller queues) reports through one uniform per-level
dict shape (:func:`level_telemetry` / :func:`dram_telemetry`), which
``SimulationOutcome.memsys`` / ``DlaOutcome.memsys`` carry out of a
simulation.  New resources should extend these dicts rather than grow
bespoke counter plumbing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.memory.cache import Cache, CacheConfig
from repro.memory.dram import DramConfig, DramModel
from repro.memory.tlb import Tlb, TlbConfig


class AccessType(enum.Enum):
    INSTRUCTION = "instruction"
    LOAD = "load"
    STORE = "store"


def _mshr_counters(cache: Cache) -> Dict[str, int]:
    """The MSHR slice of one cache's stats (per-level occupancy telemetry)."""
    stats = cache.stats
    return {
        "stalls": stats.mshr_stalls,
        "stall_cycles": stats.mshr_stall_cycles,
        "allocations": stats.mshr_allocations,
        "coalesced": stats.mshr_coalesced,
        "peak_occupancy": stats.mshr_peak_occupancy,
        "prefetches_dropped": stats.prefetches_dropped,
        "bank_conflicts": stats.mshr_bank_conflicts,
        "bank_conflict_cycles": stats.mshr_bank_conflict_cycles,
    }


def _write_buffer_counters(cache: Cache) -> Dict[str, int]:
    """The write-buffer slice of one cache's stats."""
    stats = cache.stats
    return {
        "enqueued": stats.wb_enqueued,
        "stalls": stats.wb_stalls,
        "stall_cycles": stats.wb_stall_cycles,
        "peak_occupancy": stats.wb_peak_occupancy,
    }


def level_telemetry(cache: Cache) -> Dict[str, object]:
    """One cache level's slice of the unified ``memsys`` telemetry dict."""
    return {
        "mshr": _mshr_counters(cache),
        "write_buffer": _write_buffer_counters(cache),
        "writebacks": cache.stats.writebacks,
        "evictions": cache.stats.evictions,
    }


def dram_telemetry(dram: DramModel) -> Dict[str, object]:
    """The DRAM slice of the unified ``memsys`` telemetry dict."""
    stats = dram.stats
    return {
        "traffic": dram.traffic_breakdown(),
        "row_hits": stats.row_hits,
        "row_misses": stats.row_misses,
        "row_hit_rate": stats.row_hit_rate,
        "busy_delay_cycles": stats.busy_delay_cycles,
        "queue": {
            "stalls": stats.queue_stalls,
            "stall_cycles": stats.queue_stall_cycles,
            "peak_occupancy": stats.queue_peak_occupancy,
        },
    }


@dataclass(slots=True)
class AccessResult:
    """Outcome of one demand access through the hierarchy."""

    #: Cycle at which the data is available to the core.
    ready_cycle: int
    #: Total added latency relative to the issuing cycle.
    latency: int
    #: Name of the level that supplied the data ("l1", "l2", "l3", "dram").
    supplied_by: str
    #: True when the L1 lookup missed (used for MPKI accounting).
    l1_miss: bool
    #: True when the access had to go all the way to DRAM.
    dram_access: bool


#: The level that supplied a demand access, by its packed info word.
_SUPPLIED_BY = {0: "l1", 9: "l2", 3: "l3", 7: "dram"}


def access_result(ready: int, info: int, now: int) -> AccessResult:
    """The :class:`AccessResult` of a packed ``(ready, info)`` demand access
    issued at ``now`` (see :meth:`CoreMemorySystem.access_data_fast`)."""
    return AccessResult(ready, ready - now, _SUPPLIED_BY[info],
                        info & 1 == 1, info & 4 == 4)


@dataclass(frozen=True)
class MemoryHierarchyConfig:
    """Cache/TLB/DRAM parameters mirroring Table I of the paper."""

    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="l1i", size_bytes=32 * 1024, associativity=4, latency=1, mshr_entries=32))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="l1d", size_bytes=32 * 1024, associativity=4, latency=3, mshr_entries=32))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="l2", size_bytes=256 * 1024, associativity=8, latency=9, mshr_entries=32))
    l3: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="l3", size_bytes=2 * 1024 * 1024, associativity=16, latency=36, mshr_entries=64))
    tlb: TlbConfig = field(default_factory=TlbConfig)
    dram: DramConfig = field(default_factory=DramConfig)


class SharedMemorySystem:
    """The shared L3 plus main memory, used by every core in the system."""

    def __init__(self, config: Optional[MemoryHierarchyConfig] = None) -> None:
        self.config = config if config is not None else MemoryHierarchyConfig()
        self.l3 = Cache(self.config.l3)
        self.dram = DramModel(self.config.dram)

    def access(self, address: int, now: int, is_write: bool = False,
               source: str = "demand") -> AccessResult:
        """Access that already missed the private levels of some core."""
        ready = self.l3.lookup(address, now, is_write)
        if ready is not None:
            return AccessResult(ready, ready - now, "l3", l1_miss=True, dram_access=False)
        # A full L3 MSHR file delays when the miss can be sent to memory.
        issue = now + self.l3.last_miss_stall + self.config.l3.latency
        dram_ready = self.dram.access(address, issue, is_write, source=source)
        writeback = self.l3.fill(address, dram_ready, dirty=is_write, now=now)
        ready = dram_ready
        if writeback is not None:
            self._spill_l3_victim(writeback, dram_ready)
            # A full write buffer back-pressures the fill (and therefore the
            # demand data) by the same wait the victim spent queueing.
            wb_stall = self.l3.last_wb_stall
            if wb_stall:
                ready = dram_ready + wb_stall
        return AccessResult(ready, ready - now, "dram", l1_miss=True, dram_access=True)

    def _spill_l3_victim(self, victim_address: int, fill_time: float) -> None:
        """Drain one dirty L3 victim to DRAM (write-buffer aware).

        The write is tagged ``source="writeback"`` so the traffic split can
        separate it from demand stores; with a write buffer configured the
        victim occupies a buffer slot until the DRAM write completes.
        """
        wb_stall = self.l3.last_wb_stall
        drain_start = fill_time + wb_stall if wb_stall else fill_time
        done = self.dram.access(victim_address, drain_start, is_write=True,
                                source="writeback")
        self.l3.writeback_admit(done, at=drain_start)

    def access_for_prefetch(self, address: int, now: int) -> Optional[AccessResult]:
        """Like :meth:`access`, but for speculative (prefetch) traffic.

        A prefetch that would miss L3 while its MSHR file is full is refused
        (returns ``None``) *before* any lookup or DRAM work happens: demand
        misses stall for a free miss register, speculative requests never do
        — and a refused request must not generate traffic, pop an in-flight
        demand entry, or count a demand ``mshr_stall``.  With a free file
        (or an unbounded one) the behaviour is exactly :meth:`access`.
        """
        if not self.l3.probe(address) and not self.l3.mshr_available(now, address):
            self.l3.stats.prefetches_dropped += 1
            return None
        return self.access(address, now, source="prefetch")

    def prefetch(self, address: int, now: int) -> Optional[int]:
        """Install ``address`` into L3 (if absent); returns its fill time.

        Returns ``None`` when the prefetch had to be dropped because the L3
        MSHR file had no free entry — speculative requests never stall.
        """
        if self.l3.probe(address):
            return now
        if not self.l3.mshr_available(now, address):
            self.l3.stats.prefetches_dropped += 1
            return None
        dram_ready = self.dram.access(address, now + self.config.l3.latency,
                                      source="prefetch")
        writeback = self.l3.fill(address, dram_ready, from_prefetch=True, now=now)
        # Dirty victims of speculative installs historically vanished; the
        # write-buffer model makes them drain like any other writeback.
        # Without a buffer the legacy drop is kept (bit-identical timing).
        if writeback is not None and self.l3.has_write_buffer:
            self._spill_l3_victim(writeback, dram_ready)
        return dram_ready

    def drain_mshrs(self) -> None:
        """Quiesce every shared-level contention resource (L3 MSHRs and
        write buffer, DRAM controller queues) at a simulated-clock-domain
        boundary."""
        self.l3.drain_mshrs()
        self.dram.drain_queues()

    def memsys_telemetry(self) -> Dict[str, Dict[str, object]]:
        """The shared system's slice of the unified ``memsys`` dict."""
        return {
            "l3": level_telemetry(self.l3),
            "dram": dram_telemetry(self.dram),
        }

    def snapshot_state(self) -> tuple:
        """A copy of the L3's and DRAM's mutable state (a state view)."""
        return self.l3.snapshot_state(), self.dram.snapshot_state()

    @property
    def traffic(self) -> int:
        """Total DRAM transfers (the memory-traffic metric of Fig. 12b)."""
        return self.dram.traffic

    def traffic_breakdown(self) -> Dict[str, int]:
        """Per-source read/write split of :attr:`traffic` — in particular
        the dirty-victim writebacks that the aggregate count used to hide."""
        return self.dram.traffic_breakdown()


class CoreMemorySystem:
    """Private L1 I/D, L2 and TLB of one core, backed by a shared system.

    ``lookahead_mode`` enables the containment-of-speculation behaviour from
    Sec. III-A: the private caches never write back dirty data (it is simply
    discarded on eviction) and never supply data to other cores.
    """

    def __init__(self, shared: SharedMemorySystem,
                 config: Optional[MemoryHierarchyConfig] = None,
                 lookahead_mode: bool = False) -> None:
        self.config = config if config is not None else shared.config
        self.shared = shared
        self.lookahead_mode = lookahead_mode
        self.l1i = Cache(self.config.l1i, lookahead_mode=lookahead_mode)
        self.l1d = Cache(self.config.l1d, lookahead_mode=lookahead_mode)
        self.l2 = Cache(self.config.l2, lookahead_mode=lookahead_mode)
        self.tlb = Tlb(self.config.tlb)

    # ------------------------------------------------------------------
    # demand path
    # ------------------------------------------------------------------
    # A demand access returns ``(ready_cycle, packed_info)``; the
    # interpreter, warm replay and the compiled kernel's miss callbacks
    # consume that word directly, and :meth:`access` is its AccessResult
    # view (:func:`access_result`).  The info bits:
    #
    #   bit 0  L1 miss
    #   bit 1  supplied from beyond the L2 (L3 or DRAM)
    #   bit 2  DRAM access
    #   bit 3  supplied exactly by the L2
    #
    # so an access packs to 0 (L1), 9 (L2), 3 (L3) or 7 (DRAM).
    def access(self, address: int, now: int, access_type: AccessType) -> AccessResult:
        """Demand access for data or instructions."""
        if access_type is AccessType.INSTRUCTION:
            ready, info = self._access_inst(address, now)
        else:
            ready, info = self._access_data(
                address, now, access_type is AccessType.STORE)
        return access_result(ready, info, now)

    def access_data_fast(self, address: int, now: int, is_write: bool):
        """Demand data access; returns ``(ready_cycle, packed_info)``."""
        l1 = self.l1d
        start = now + self.tlb.access(address, now)
        ready = l1.lookup(address, start, is_write)
        if ready is not None:
            return ready, 0
        return self._miss(l1, address, now, start, is_write)

    def access_inst_fast(self, address: int, now: int):
        """Instruction-block access; returns ``(ready_cycle, packed_info)``."""
        l1 = self.l1i
        ready = l1.lookup(address, now, False)
        if ready is not None:
            return ready, 0
        return self._miss(l1, address, now, now, False)

    # What :meth:`access` calls: a tracer wrapping the public names then
    # sees one span per reference call.
    _access_data = access_data_fast
    _access_inst = access_inst_fast

    def _miss(self, l1: Cache, address: int, now: int, start: int,
              is_write: bool):
        """The rest of a demand access whose ``l1`` lookup at ``start``
        missed: L2, the shared levels, the fills on the way back up."""
        # Each level's MSHR wait (0 with free entries or an unbounded file)
        # delays when the miss can issue to the next level down.
        issue = start + l1.last_miss_stall + l1.config.latency
        l2_ready = self.l2.lookup(address, issue, is_write)
        if l2_ready is not None:
            self._fill_l1(l1, address, l2_ready, is_write, now)
            wb_stall = l1.last_wb_stall
            return (l2_ready + wb_stall if wb_stall else l2_ready), 9
        shared_result = self.shared.access(
            address, issue + self.l2.last_miss_stall + self.l2.config.latency, is_write
        )
        ready = shared_result.ready_cycle
        self._fill_l2(address, ready, is_write, now)
        # Capture the L2 fill's back-pressure *before* the L1 fill runs: a
        # dirty L1 victim spilling into L2 below would overwrite
        # l2.last_wb_stall with the victim install's own (separately
        # charged) wait.
        l2_wb_stall = self.l2.last_wb_stall
        self._fill_l1(l1, address, ready, is_write, now)
        # Full write buffers back-pressure the fills on the way up.
        wb_stall = l2_wb_stall + l1.last_wb_stall
        if wb_stall:
            ready += wb_stall
        return ready, 7 if shared_result.dram_access else 3

    def _fill_l1(self, l1: Cache, address: int, fill_time: int, dirty: bool,
                 now: Optional[float] = None) -> None:
        writeback = l1.fill(address, fill_time, dirty=dirty, now=now)
        if writeback is not None and not self.lookahead_mode:
            self._spill_l1_victim(l1, writeback, fill_time)

    def _fill_l2(self, address: int, fill_time: int, dirty: bool,
                 now: Optional[float] = None) -> None:
        writeback = self.l2.fill(address, fill_time, dirty=dirty, now=now)
        if writeback is not None and not self.lookahead_mode:
            self._spill_l2_victim(writeback, fill_time)

    def _spill_l1_victim(self, l1: Cache, victim_address: int,
                         fill_time: float) -> None:
        """Route one dirty L1 victim into L2 (write-buffer aware).

        Victim writebacks carry data that is already on chip: they never
        occupy a miss register.  With a write buffer on the L1, the victim
        holds a buffer slot until its write lands in L2 (one L2 hit latency
        after the drain starts).
        """
        wb_stall = l1.last_wb_stall
        drain_start = fill_time + wb_stall if wb_stall else fill_time
        cascade = self.l2.fill(victim_address, drain_start, dirty=True,
                               allocate_mshr=False)
        l1.writeback_admit(drain_start + self.l2.config.latency, at=drain_start)
        # The incoming victim can displace a dirty L2 line in turn.  Without
        # a write buffer this cascade victim is dropped (the legacy,
        # bit-identical behaviour); with one it drains to DRAM like any
        # other L2 writeback.
        if cascade is not None and self.l2.has_write_buffer:
            self._spill_l2_victim(cascade, drain_start)

    def _spill_l2_victim(self, victim_address: int, fill_time: float) -> None:
        """Drain one dirty L2 victim to DRAM as write traffic."""
        wb_stall = self.l2.last_wb_stall
        drain_start = fill_time + wb_stall if wb_stall else fill_time
        done = self.shared.dram.access(victim_address, drain_start,
                                       is_write=True, source="writeback")
        self.l2.writeback_admit(done, at=drain_start)

    # ------------------------------------------------------------------
    # prefetch path
    # ------------------------------------------------------------------
    def prefetch(self, address: int, now: int, level: str = "l1") -> Optional[int]:
        """Prefetch ``address`` into ``level`` ("l1" or "l2"); returns fill time.

        Prefetches traverse the hierarchy like demand misses (so they create
        real DRAM traffic and timing), but fill with ``from_prefetch=True`` so
        usefulness statistics can be collected.  Unlike a demand miss, a
        prefetch never waits for a miss register: when the target level's
        MSHR file is full at issue time the request is dropped and ``None``
        is returned so the issuing prefetcher can account for it.
        """
        if level not in ("l1", "l2"):
            raise ValueError("prefetch level must be 'l1' or 'l2'")
        if level == "l1":
            return self._prefetch_into_l1(self.l1d, address, now)
        return self._prefetch_fill_time_from_l2(address, now)

    def _prefetch_into_l1(self, l1: Cache, address: int, now: int) -> Optional[int]:
        """MSHR-gated prefetch into the L1 D-cache ``l1``.

        The install-level gate runs *before* any downstream work: a dropped
        prefetch must not generate DRAM traffic or allocate lower-level
        miss registers.
        """
        if l1.probe(address):
            return now
        if not l1.mshr_available(now, address):
            l1.stats.prefetches_dropped += 1
            return None
        fill_time = self._prefetch_fill_time_from_l2(address, now)
        if fill_time is None:
            return None
        writeback = l1.fill(address, fill_time, from_prefetch=True, now=now)
        # Dirty victims of speculative installs historically vanished; the
        # write-buffer model drains them, the legacy path keeps the drop.
        if writeback is not None and not self.lookahead_mode and l1.has_write_buffer:
            self._spill_l1_victim(l1, writeback, fill_time)
        return fill_time

    def _prefetch_fill_time_from_l2(self, address: int, now: int) -> Optional[int]:
        """When a prefetch's block is ready at L2 (refilling L2 first, MSHR-
        gated, when absent); ``None`` when any level refused the request."""
        if self.l2.probe(address):
            return now + self.l2.config.latency
        if not self.l2.mshr_available(now, address):
            self.l2.stats.prefetches_dropped += 1
            return None
        shared_result = self.shared.access_for_prefetch(
            address, now + self.l2.config.latency
        )
        if shared_result is None:   # refused at L3 (file full)
            return None
        fill_time = shared_result.ready_cycle
        writeback = self.l2.fill(address, fill_time, from_prefetch=True, now=now)
        if writeback is not None and not self.lookahead_mode and self.l2.has_write_buffer:
            self._spill_l2_victim(writeback, fill_time)
        return fill_time

    def prefill_tlb(self, address: int, now: int) -> None:
        self.tlb.prefill(address, now)

    def snapshot_state(self) -> tuple:
        """A copy of the private levels' mutable state (the shared system
        has its own view, shared by every core on it)."""
        return (
            self.l1i.snapshot_state(),
            self.l1d.snapshot_state(),
            self.l2.snapshot_state(),
            self.tlb.snapshot_state(),
        )

    # ------------------------------------------------------------------
    def drain_mshrs(self) -> None:
        """Quiesce every private level's contention resources (MSHR files
        and write buffers) at a simulated-clock-domain boundary."""
        self.l1i.drain_mshrs()
        self.l1d.drain_mshrs()
        self.l2.drain_mshrs()

    def memsys_telemetry(self) -> Dict[str, Dict[str, object]]:
        """The private levels' slice of the unified ``memsys`` dict."""
        return {
            "l1i": level_telemetry(self.l1i),
            "l1d": level_telemetry(self.l1d),
            "l2": level_telemetry(self.l2),
        }
