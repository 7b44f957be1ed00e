"""The shared occupancy layer and the contention models built on it:
banked MSHR files, victim write buffers, DRAM read/write queues, the
per-source traffic split and the unified ``memsys`` telemetry spine."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.system import simulate_baseline
from repro.memory.cache import Cache, CacheConfig
from repro.memory.dram import DramConfig, DramModel
from repro.memory.hierarchy import (
    AccessType,
    CoreMemorySystem,
    MemoryHierarchyConfig,
    SharedMemorySystem,
)
from repro.memory.resources import (
    BankedMshrFile,
    MshrFile,
    OccupancyQueue,
    WriteBufferConfig,
)


# ---------------------------------------------------------------------------
# OccupancyQueue (anonymous resource: write buffers, DRAM queues)
# ---------------------------------------------------------------------------
def test_queue_entries_occupy_until_completion():
    queue = OccupancyQueue(capacity=2)
    queue.push(100.0)
    queue.push(150.0)
    assert queue.occupancy(now=50) == 2
    assert queue.occupancy(now=120) == 1
    assert queue.occupancy(now=200) == 0


def test_queue_reserve_delay_waits_for_earliest_and_consumes_slot():
    queue = OccupancyQueue(capacity=2)
    queue.push(100.0)
    queue.push(150.0)
    # Full at t=40: wait for the t=100 entry; the freed slot is consumed so
    # a back-to-back reservation queues behind the t=150 entry.
    assert queue.reserve_delay(now=40) == 60.0
    queue.push(300.0)
    assert queue.reserve_delay(now=40) == 110.0


def test_queue_entries_never_coalesce_even_with_equal_completions():
    queue = OccupancyQueue(capacity=4)
    queue.push(100.0)
    queue.push(100.0)
    queue.push(100.0)
    assert queue.occupancy(now=0) == 3


def test_queue_snapshot_round_trips_token_counter():
    queue = OccupancyQueue(capacity=2)
    queue.push(100.0)
    queue.push(200.0)
    snapshot = queue.snapshot_state()
    restored = OccupancyQueue(capacity=2)
    restored.restore_state(snapshot)
    assert restored.occupancy(now=0) == 2
    # New pushes after restore must not collide with restored tokens.
    restored.reserve_delay(now=300)   # retires nothing; both done by 300
    restored.push(400.0)
    assert restored.occupancy(now=350) == 1


def test_queue_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        OccupancyQueue(0)


def test_write_buffer_config_rejects_nonpositive_entries():
    with pytest.raises(ValueError):
        WriteBufferConfig(entries=0)


# ---------------------------------------------------------------------------
# BankedMshrFile
# ---------------------------------------------------------------------------
def test_banked_file_routes_blocks_by_interleave():
    file = BankedMshrFile(entries=4, banks=2)
    assert file.allocate(block=2, completion=100.0) is True   # bank 0
    assert file.allocate(block=3, completion=100.0) is True   # bank 1
    assert file._banks[0].occupancy(now=0) == 1
    assert file._banks[1].occupancy(now=0) == 1
    assert len(file) == 2
    assert file.occupancy(now=0) == 2


def test_bank_conflict_flagged_when_other_banks_have_room():
    # 2 banks x 2 entries each.
    file = BankedMshrFile(entries=4, banks=2)
    file.allocate(0, 100.0)
    file.allocate(2, 150.0)   # bank 0 now full; bank 1 empty
    delay = file.acquire_delay(block=4, now=10)   # bank 0
    assert delay == 90.0
    assert file.last_conflict is True
    # Refill bank 0 and also fill bank 1: the next stall is a capacity
    # stall, not a conflict.
    file.allocate(4, 300.0)
    file.allocate(1, 300.0)
    file.allocate(3, 300.0)
    delay = file.acquire_delay(block=6, now=10)   # bank 0, all banks full
    assert delay > 0
    assert file.last_conflict is False


def test_banked_available_asks_the_blocks_bank():
    file = BankedMshrFile(entries=2, banks=2)
    file.allocate(0, 100.0)   # bank 0 (1 entry per bank) now full
    assert not file.available(now=0, key=2)   # bank 0
    assert file.available(now=0, key=3)       # bank 1
    assert file.available(now=0)              # some bank has room


def test_banked_entries_must_divide_evenly():
    with pytest.raises(ValueError):
        BankedMshrFile(entries=5, banks=2)
    with pytest.raises(ValueError):
        CacheConfig(name="bad", mshr_entries=6, mshr_banks=4)


def test_banked_snapshot_round_trips_per_bank():
    file = BankedMshrFile(entries=4, banks=2)
    file.allocate(0, 100.0)
    file.allocate(3, 200.0)
    restored = BankedMshrFile(entries=4, banks=2)
    restored.restore_state(file.snapshot_state())
    assert restored.occupancy(now=0) == 2
    assert restored._banks[1].snapshot_state() == file._banks[1].snapshot_state()


def test_unbanked_file_never_reports_conflicts():
    file = MshrFile(capacity=1)
    file.allocate(0, 100.0)
    assert file.acquire_delay(block=1, now=0) == 100.0
    assert file.last_conflict is False


def test_cache_counts_bank_conflicts_separately():
    config = CacheConfig(name="t", size_bytes=1024, associativity=2,
                         block_bytes=64, latency=2,
                         mshr_entries=2, mshr_banks=2)
    cache = Cache(config)
    # Occupy bank 0 (1 entry/bank): block 0.
    assert cache.lookup(0x000, now=0) is None      # block 0 -> bank 0
    cache.fill(0x000, fill_time=500)
    # Second miss to bank 0 while bank 1 is empty: a bank conflict.
    assert cache.lookup(0x080, now=0) is None      # block 2 -> bank 0
    assert cache.stats.mshr_stalls == 1
    assert cache.stats.mshr_bank_conflicts == 1
    assert cache.stats.mshr_bank_conflict_cycles == 500.0


# ---------------------------------------------------------------------------
# write buffer: cache-level semantics
# ---------------------------------------------------------------------------
def _wb_cache(entries=1):
    return Cache(CacheConfig(
        name="t", size_bytes=256, associativity=2, block_bytes=64, latency=2,
        mshr_entries=None, write_buffer=WriteBufferConfig(entries=entries),
    ))


def test_dirty_victim_computes_no_stall_with_free_buffer():
    cache = _wb_cache(entries=1)
    cache.fill(0x000, fill_time=10, dirty=True)    # set 0
    cache.fill(0x080, fill_time=12, dirty=True)    # set 0 (2-way full)
    victim = cache.fill(0x100, fill_time=20)       # evicts dirty 0x000
    assert victim == 0x000
    assert cache.last_wb_stall == 0.0
    cache.writeback_admit(completion=500.0, at=20)
    assert cache.stats.wb_enqueued == 1
    assert cache.stats.wb_peak_occupancy == 1
    assert cache.wb_occupancy(now=100) == 1
    assert cache.wb_occupancy(now=600) == 0


def test_full_write_buffer_back_pressures_the_next_evicting_fill():
    cache = _wb_cache(entries=1)
    cache.fill(0x000, fill_time=10, dirty=True)
    cache.fill(0x080, fill_time=12, dirty=True)
    assert cache.fill(0x100, fill_time=20) == 0x000
    cache.writeback_admit(completion=500.0, at=20)   # drains at t=500
    # The next dirty eviction at t=30 finds the single slot occupied until
    # 500: the fill stalls 470 cycles and the incoming line lands late.
    victim = cache.fill(0x180, fill_time=30)
    assert victim == 0x080
    assert cache.last_wb_stall == 470.0
    assert cache.stats.wb_stalls == 1
    assert cache.stats.wb_stall_cycles == 470.0
    line_ready = cache.lookup(0x180, now=40)
    assert line_ready == 500 + cache.config.latency
    # A later fill with the (now drained) buffer free stalls no more.
    cache.writeback_admit(completion=700.0, at=500)
    cache.fill(0x100, fill_time=800, dirty=True)
    assert cache.last_wb_stall == 0.0


def test_clean_evictions_never_touch_the_write_buffer():
    cache = _wb_cache(entries=1)
    cache.fill(0x000, fill_time=10)
    cache.fill(0x080, fill_time=12)
    assert cache.fill(0x100, fill_time=20) is None   # clean victim
    assert cache.stats.wb_enqueued == 0
    assert cache.stats.wb_stalls == 0


def test_lookahead_mode_discards_dirty_victims_without_buffer_activity():
    config = CacheConfig(name="t", size_bytes=256, associativity=2,
                         block_bytes=64, latency=2, mshr_entries=None,
                         write_buffer=WriteBufferConfig(entries=1))
    cache = Cache(config, lookahead_mode=True)
    cache.fill(0x000, fill_time=10, dirty=True)
    cache.fill(0x080, fill_time=12, dirty=True)
    # Containment of speculation (no writeback, no buffer slot, no stall).
    assert cache.fill(0x100, fill_time=20) is None
    assert cache.stats.writebacks == 0
    assert cache.stats.wb_enqueued == 0
    assert cache.last_wb_stall == 0.0


def test_writeback_admit_is_noop_without_buffer():
    cache = Cache(CacheConfig(name="t", size_bytes=256, associativity=2,
                              block_bytes=64, latency=2, mshr_entries=None))
    cache.writeback_admit(completion=100.0, at=0)
    assert cache.stats.wb_enqueued == 0
    assert not cache.has_write_buffer


def test_cache_snapshot_round_trips_write_buffer_state():
    cache = _wb_cache(entries=2)
    cache.fill(0x000, fill_time=10, dirty=True)
    cache.fill(0x080, fill_time=12, dirty=True)
    cache.fill(0x100, fill_time=20)
    cache.writeback_admit(completion=500.0, at=20)
    snapshot = cache.snapshot_state()
    restored = _wb_cache(entries=2)
    restored.restore_state(snapshot)
    assert restored.wb_occupancy(now=100) == 1
    assert vars(restored.stats) == vars(cache.stats)


def test_drain_quiesces_write_buffer_too():
    cache = _wb_cache(entries=1)
    cache.fill(0x000, fill_time=10, dirty=True)
    cache.fill(0x080, fill_time=12, dirty=True)
    cache.fill(0x100, fill_time=20)
    cache.writeback_admit(completion=500.0, at=20)
    cache.drain_mshrs()
    assert cache.wb_occupancy(now=0) == 0
    assert cache.last_wb_stall == 0.0
    assert cache.stats.wb_enqueued == 1   # counters survive the quiesce


# ---------------------------------------------------------------------------
# write buffer: hierarchy integration
# ---------------------------------------------------------------------------
def _small_hierarchy(system_config: SystemConfig):
    shared = SharedMemorySystem(system_config.memory)
    return shared, CoreMemorySystem(shared, system_config.memory)


def _stream_dirty_blocks(memory, count, stride, start=0x40000, step_cycles=50):
    now = 0
    for i in range(count):
        memory.access(start + i * stride, now, AccessType.STORE)
        now += step_cycles
    return now


def test_hierarchy_routes_victims_through_write_buffers_to_dram():
    config = SystemConfig().with_write_buffer(4)
    shared, memory = _small_hierarchy(config)
    l1d = memory.l1d
    stride = l1d.config.num_sets * l1d.config.block_bytes
    # March dirty lines through one L1D set until victims spill to L2.
    _stream_dirty_blocks(memory, l1d.config.associativity + 8, stride)
    assert l1d.stats.writebacks > 0
    assert l1d.stats.wb_enqueued == l1d.stats.writebacks
    # The L1 victims landed in L2 as dirty lines (not silently dropped).
    assert memory.l2.stats.accesses >= 0   # structural smoke
    assert shared.dram.stats.writes >= 0


def test_l2_fill_back_pressure_survives_the_l1_victim_spill():
    """Regression: the demand access's ready time must include the *L2
    fill's* write-buffer stall even when the subsequent L1 fill evicts a
    dirty victim into L2 (which overwrites ``l2.last_wb_stall`` with the
    victim install's own wait)."""
    from repro.memory.resources import WriteBufferConfig as WBC

    config = MemoryHierarchyConfig(
        l1d=CacheConfig(name="l1d", size_bytes=256, associativity=2,
                        block_bytes=64, latency=3, mshr_entries=None,
                        write_buffer=WBC(entries=4)),
        l2=CacheConfig(name="l2", size_bytes=512, associativity=2,
                       block_bytes=64, latency=9, mshr_entries=None,
                       write_buffer=WBC(entries=1)),
    )
    shared = SharedMemorySystem(config)
    memory = CoreMemorySystem(shared, config)
    # Dirty L1D set 0 and L2 set 0 with the same two blocks (0x000, 0x100).
    memory.access(0x000, 0, AccessType.STORE)
    memory.access(0x100, 100, AccessType.STORE)
    # Occupy L2's single write-buffer slot until the far future.
    memory.l2._write_buffer.push(1_000_000.0)
    # A load to a third conflicting block: the L2 fill must evict a dirty
    # L2 victim, stalling ~1M cycles on the full buffer; the L1 fill then
    # evicts its own dirty victim into L2.  The demand data's ready time
    # must carry the L2 fill's stall.
    result = memory.access(0x200, 1000, AccessType.LOAD)
    assert memory.l2.stats.wb_stalls >= 1
    assert result.ready_cycle > 900_000


def test_l2_victim_drain_counts_as_dram_writeback_write():
    config = SystemConfig().with_write_buffer(2)
    shared, memory = _small_hierarchy(config)
    l2 = memory.l2
    stride = l2.config.num_sets * l2.config.block_bytes
    _stream_dirty_blocks(memory, l2.config.associativity + 4, stride)
    assert l2.stats.writebacks > 0
    assert shared.dram.stats.writeback_writes >= l2.stats.writebacks
    breakdown = shared.traffic_breakdown()
    assert breakdown["writeback_writes"] == shared.dram.stats.writeback_writes
    assert breakdown["total"] == shared.traffic


# ---------------------------------------------------------------------------
# DRAM read/write queues
# ---------------------------------------------------------------------------
def test_full_dram_queue_delays_next_access():
    model = DramModel(DramConfig(queue_depth=1, queue_groups=1))
    first = model.access(0, now=0)                      # row miss: 190
    assert first == 190
    # Different bank (no bank_busy interaction), same global read queue.
    second = model.access(8192, now=0)
    assert second == 380                                # waited for slot
    assert model.stats.queue_stalls == 1
    assert model.stats.queue_stall_cycles == 190.0


def test_reads_and_writes_use_separate_queues():
    model = DramModel(DramConfig(queue_depth=1, queue_groups=1))
    model.access(0, now=0)                              # read queue full
    done = model.access(8192, now=0, is_write=True)     # write queue empty
    assert done == 190
    assert model.stats.queue_stalls == 0


def test_bank_groups_get_independent_queues():
    model = DramModel(DramConfig(queue_depth=1, queue_groups=2))
    model.access(0, now=0)            # bank 0 -> group 0
    done = model.access(8192, now=0)  # bank 1 -> group 1: free queue
    assert done == 190
    assert model.stats.queue_stalls == 0


def test_unbounded_queue_depth_builds_no_queues():
    model = DramModel(DramConfig())
    assert model._queues is None
    model.access(0, now=0)
    assert model.stats.queue_stalls == 0


def test_dram_snapshot_round_trips_queue_state():
    model = DramModel(DramConfig(queue_depth=2, queue_groups=1))
    model.access(0, now=0)
    model.access(8192, now=10, is_write=True)
    restored = DramModel(DramConfig(queue_depth=2, queue_groups=1))
    restored.restore_state(model.snapshot_state())
    assert vars(restored.stats) == vars(model.stats)
    # The restored read queue still holds its in-flight transfer.
    assert restored._queue_for(bank=0, is_write=False).occupancy(now=0) == 1


def test_drain_queues_quiesces_without_touching_stats():
    model = DramModel(DramConfig(queue_depth=1, queue_groups=1))
    model.access(0, now=0)
    model.access(8192, now=0)
    assert model.stats.queue_stalls == 1
    model.drain_queues()
    third = model.access(2 * 8192, now=0)
    assert model.stats.queue_stalls == 1     # no new stall after the drain
    assert third == 190


def test_dram_config_validates_queue_knobs():
    with pytest.raises(ValueError):
        DramConfig(queue_depth=0)
    with pytest.raises(ValueError):
        DramConfig(queue_groups=0)


# ---------------------------------------------------------------------------
# per-source traffic split (the L3 dirty-victim accounting fix)
# ---------------------------------------------------------------------------
def test_l3_victim_writeback_counted_in_traffic_split():
    shared = SharedMemorySystem(MemoryHierarchyConfig())
    l3 = shared.l3
    stride = l3.config.num_sets * l3.config.block_bytes
    # Dirty one L3 set's worth of lines via store misses, then stream clean
    # conflicting blocks through the same set until a dirty victim spills.
    now = 0
    for i in range(l3.config.associativity + 4):
        shared.access(0x100000 + i * stride, now, is_write=True)
        now += 1000
    assert l3.stats.writebacks > 0
    split = shared.traffic_breakdown()
    assert split["writeback_writes"] == l3.stats.writebacks
    assert split["demand_writes"] == shared.dram.stats.writes - l3.stats.writebacks
    assert split["total"] == shared.traffic
    assert (split["demand_reads"] + split["prefetch_reads"]
            + split["demand_writes"] + split["writeback_writes"]) == split["total"]


def test_prefetch_traffic_tagged_as_prefetch_reads():
    shared = SharedMemorySystem(MemoryHierarchyConfig())
    shared.prefetch(0x200000, now=0)
    assert shared.dram.stats.prefetch_reads == 1
    assert shared.traffic_breakdown()["prefetch_reads"] == 1
    result = shared.access_for_prefetch(0x300000, now=0)
    assert result is not None
    assert shared.dram.stats.prefetch_reads == 2


def test_demand_store_miss_stays_demand_write():
    shared = SharedMemorySystem(MemoryHierarchyConfig())
    shared.access(0x400000, now=0, is_write=True)
    split = shared.traffic_breakdown()
    assert split["demand_writes"] == 1
    assert split["writeback_writes"] == 0


# ---------------------------------------------------------------------------
# end-to-end: defaults bit-identical, contended machine diverges, memo sound
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def triad_windows():
    from repro.emulator.machine import Emulator
    from repro.util.rng import DeterministicRng
    from repro.workloads.kernels import build_kernel

    program = build_kernel("stream_triad", elements=1200, payload=4,
                          rng=DeterministicRng(77), name="memsys-triad")
    trace = Emulator(program).run(max_instructions=7000)
    return trace.entries[:2000], trace.entries[2000:6000]


def _contended_config() -> SystemConfig:
    return SystemConfig().with_memsys(
        mshr_entries=8, mshr_banks=2, write_buffer_entries=2,
        dram_queue_depth=2,
    )


def test_explicitly_unbounded_knobs_are_bit_identical_to_default(triad_windows):
    warm, timed = triad_windows
    default = simulate_baseline(timed, SystemConfig(), warmup_entries=warm)
    explicit = simulate_baseline(
        timed,
        SystemConfig().with_memsys(mshr_banks=None, write_buffer_entries=None,
                                   dram_queue_depth=None),
        warmup_entries=warm,
    )
    assert explicit.cycles == default.cycles
    assert explicit.memory_traffic == default.memory_traffic
    assert explicit.dram_energy == default.dram_energy
    assert explicit.memsys == default.memsys


def test_contended_machine_reports_through_the_memsys_spine(triad_windows):
    warm, timed = triad_windows
    outcome = simulate_baseline(timed, _contended_config(), warmup_entries=warm)
    assert set(outcome.memsys) == {"l1i", "l1d", "l2", "l3", "dram"}
    for level in ("l1i", "l1d", "l2", "l3"):
        info = outcome.memsys[level]
        assert set(info) >= {"mshr", "write_buffer", "writebacks", "evictions"}
    assert outcome.memsys["dram"]["queue"]["stalls"] >= 0
    # The derived mshr view keeps the pre-memsys shape for old consumers.
    assert set(outcome.mshr) == {"l1i", "l1d", "l2", "l3"}
    assert "stall_cycles" in outcome.mshr["l1d"]


def test_warm_memo_restore_is_bit_identical_under_contention(triad_windows):
    """Warm-vs-cold equality with banked MSHRs, write buffers and DRAM
    queues all in the snapshot: first call replays, second restores."""
    warm, timed = triad_windows
    config = _contended_config()
    first = simulate_baseline(timed, config, warmup_entries=warm)
    second = simulate_baseline(timed, config, warmup_entries=warm)
    assert first.cycles == second.cycles
    assert first.memory_traffic == second.memory_traffic
    assert first.memsys == second.memsys
