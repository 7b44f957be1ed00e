"""MSHR model tests: allocation, coalescing, stall timing, release, snapshot."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.system import simulate_baseline
from repro.memory.cache import Cache, CacheConfig, MshrFile
from repro.memory.hierarchy import CoreMemorySystem, SharedMemorySystem
from repro.workloads.suites import get_workload


def _cache(mshr_entries, **overrides):
    defaults = dict(name="test", size_bytes=1024, associativity=2,
                    block_bytes=64, latency=2, mshr_entries=mshr_entries)
    defaults.update(overrides)
    return Cache(CacheConfig(**defaults))


# ---------------------------------------------------------------------------
# MshrFile semantics
# ---------------------------------------------------------------------------
def test_primary_miss_allocates_one_entry():
    file = MshrFile(capacity=4)
    assert file.allocate(block=10, completion=100.0) is True
    assert len(file) == 1
    assert file.occupancy(now=50) == 1


def test_secondary_fill_coalesces_no_double_entry():
    file = MshrFile(capacity=4)
    assert file.allocate(10, 100.0) is True
    # Second fill for the same block coalesces, keeping the earliest arrival.
    assert file.allocate(10, 80.0) is False
    assert len(file) == 1
    # The earlier arrival time won: the entry retires at 80, not 100.
    assert file.occupancy(now=90) == 0


def test_entries_release_as_fill_times_pass():
    file = MshrFile(capacity=4)
    file.allocate(1, 10.0)
    file.allocate(2, 20.0)
    file.allocate(3, 30.0)
    assert file.occupancy(now=5) == 3
    assert file.occupancy(now=15) == 2
    assert file.occupancy(now=35) == 0


def test_acquire_delay_stalls_until_earliest_entry_retires():
    file = MshrFile(capacity=2)
    file.allocate(1, 100.0)
    file.allocate(2, 150.0)
    # Full at t=40: the new primary miss waits for the t=100 entry, and the
    # freed slot is consumed (a second stalled miss queues behind, at 150).
    assert file.acquire_delay(block=3, now=40) == 60.0
    file.allocate(3, 300.0)
    assert file.acquire_delay(block=4, now=40) == 110.0


def test_re_miss_to_retired_block_is_a_fresh_primary_miss():
    """A block whose earlier flight completed must re-allocate a real slot
    (not coalesce onto the stale entry with its stale arrival time)."""
    file = MshrFile(capacity=2)
    file.allocate(1, 100.0)   # A: in flight until t=100
    file.allocate(2, 300.0)   # B: in flight until t=300
    # At t=150 block A has retired; its re-miss is primary, no stall (one
    # free slot), and the new flight occupies the file until t=400.
    assert file.acquire_delay(block=1, now=150) == 0.0
    file.allocate(1, 400.0)
    assert file.occupancy(now=200) == 2
    assert not file.available(now=200)
    # A third miss at t=200 must stall for B (t=300), not sail through.
    assert file.acquire_delay(block=3, now=200) == 100.0


def test_acquire_delay_zero_with_free_entries_or_inflight_block():
    file = MshrFile(capacity=2)
    file.allocate(1, 100.0)
    assert file.acquire_delay(block=2, now=0) == 0.0
    file.allocate(2, 200.0)
    # A miss to an already-in-flight block coalesces: no stall, no new slot.
    assert file.acquire_delay(block=1, now=0) == 0.0


def test_unbounded_capacity_rejected():
    with pytest.raises(ValueError):
        MshrFile(capacity=0)


# ---------------------------------------------------------------------------
# Cache integration
# ---------------------------------------------------------------------------
def test_lookup_charges_stall_when_file_full():
    cache = _cache(mshr_entries=2)
    # Two outstanding misses occupy the whole file.
    assert cache.lookup(0x000, now=0) is None
    cache.fill(0x000, fill_time=200)
    assert cache.lookup(0x040, now=0) is None
    cache.fill(0x040, fill_time=210)
    # Third miss at t=0 must wait for the t=200 entry.
    assert cache.lookup(0x080, now=0) is None
    assert cache.last_miss_stall == 200.0
    assert cache.stats.mshr_stall_cycles == 200
    assert cache.stats.mshr_stalls == 1
    cache.fill(0x080, fill_time=420)
    # After the in-flight fills complete, misses stall no more.
    assert cache.lookup(0x0C0, now=500) is None
    assert cache.last_miss_stall == 0.0
    assert cache.stats.mshr_stalls == 1


def test_unbounded_cache_never_stalls_and_keeps_zero_stats():
    cache = _cache(mshr_entries=None)
    for i in range(64):
        assert cache.lookup(i * 64, now=0) is None
        cache.fill(i * 64, fill_time=1000 + i)
    assert cache.last_miss_stall == 0.0
    assert cache.stats.mshr_stall_cycles == 0
    assert cache.stats.mshr_stalls == 0
    assert cache.stats.mshr_allocations == 0
    assert cache.stats.mshr_peak_occupancy == 0


def test_fill_tracks_allocations_coalescing_and_peak():
    cache = _cache(mshr_entries=4)
    cache.lookup(0x000, now=0)
    cache.fill(0x000, fill_time=100)
    cache.lookup(0x040, now=0)
    cache.fill(0x040, fill_time=120)
    assert cache.stats.mshr_allocations == 2
    assert cache.stats.mshr_peak_occupancy == 2
    # Prefetch fill for an in-flight block coalesces instead of re-allocating.
    cache.fill(0x040, fill_time=90, from_prefetch=True)
    assert cache.stats.mshr_allocations == 2
    assert cache.stats.mshr_coalesced == 1


def test_writeback_fills_do_not_occupy_mshrs():
    cache = _cache(mshr_entries=4)
    cache.fill(0x000, fill_time=50, dirty=True, allocate_mshr=False)
    assert cache.stats.mshr_allocations == 0
    assert cache.mshr_occupancy(now=0) == 0


def test_snapshot_restore_round_trips_mshr_state():
    cache = _cache(mshr_entries=4)
    cache.lookup(0x000, now=0)
    cache.fill(0x000, fill_time=300)
    cache.lookup(0x040, now=0)
    cache.fill(0x040, fill_time=400)
    snapshot = cache.snapshot_state()

    restored = _cache(mshr_entries=4)
    restored.restore_state(snapshot)
    assert restored.mshr_occupancy(now=0) == 2
    assert restored._mshr.snapshot_state() == cache._mshr.snapshot_state()
    assert vars(restored.stats) == vars(cache.stats)


def test_drain_quiesces_file_but_keeps_lines_and_stats():
    cache = _cache(mshr_entries=2)
    cache.lookup(0x000, now=0)
    cache.fill(0x000, fill_time=500)
    cache.drain_mshrs()
    assert cache.mshr_occupancy(now=0) == 0
    assert cache.probe(0x000)
    assert cache.stats.mshr_allocations == 1


# ---------------------------------------------------------------------------
# hierarchy integration
# ---------------------------------------------------------------------------
def _tiny_hierarchy(mshr_entries):
    config = SystemConfig().with_mshr_entries(mshr_entries).memory
    shared = SharedMemorySystem(config)
    memory = CoreMemorySystem(shared, config)
    return shared, memory


def test_prefetch_dropped_when_mshr_file_full():
    from repro.memory.hierarchy import AccessType

    shared, memory = _tiny_hierarchy(2)
    # Saturate the private files with demand misses (they allocate in both
    # L1D and L2).
    memory.access(0x10000, 0, AccessType.LOAD)
    memory.access(0x20000, 0, AccessType.LOAD)
    assert memory.l1d.mshr_occupancy(now=0) == 2
    assert memory.l2.mshr_occupancy(now=0) == 2
    # The install-level gate fires first (before any downstream work).
    assert memory.prefetch(0x30000, now=0, level="l1") is None
    assert memory.l1d.stats.prefetches_dropped == 1
    # With L1D free but L2 still full, the L2 gate fires next.
    memory.l1d.drain_mshrs()
    assert memory.prefetch(0x30000, now=0, level="l1") is None
    assert memory.l2.stats.prefetches_dropped == 1
    # With a free file the same prefetch succeeds.
    memory.drain_mshrs()
    shared.drain_mshrs()
    assert memory.prefetch(0x40000, now=0, level="l1") is not None


def test_prefetcher_notify_drop_hook_is_safe_noop():
    from repro.prefetch.base import NullPrefetcher, PrefetchRequest

    # The base hook must be callable on any prefetcher without overriding
    # (the drop count itself lives on CacheStats.prefetches_dropped).
    NullPrefetcher().notify_drop(PrefetchRequest(address=0x100))


def test_l3_refuses_prefetch_traffic_when_file_full():
    """A prefetch that would miss a full L3 must be refused before any
    lookup/DRAM work: no demand stall, no popped demand entry, no traffic."""
    shared, memory = _tiny_hierarchy(2)
    # Two outstanding L3 demand misses fill its file.
    shared.access(0x100000, 0)
    shared.access(0x200000, 0)
    assert shared.l3.mshr_occupancy(now=0) == 2
    traffic_before = shared.traffic
    stalls_before = shared.l3.stats.mshr_stalls
    accesses_before = shared.l3.stats.accesses
    result = shared.access_for_prefetch(0x300000, 0)
    assert result is None
    assert shared.l3.stats.prefetches_dropped == 1
    assert shared.traffic == traffic_before          # no DRAM work
    assert shared.l3.stats.mshr_stalls == stalls_before
    assert shared.l3.stats.accesses == accesses_before
    assert shared.l3.mshr_occupancy(now=0) == 2      # no popped entry


def test_dropped_l1_prefetch_generates_no_downstream_traffic():
    from repro.memory.hierarchy import AccessType

    shared, memory = _tiny_hierarchy(2)
    # Fill only the L1D file (L2/L3 have room): drain the deeper levels.
    memory.access(0x10000, 0, AccessType.LOAD)
    memory.access(0x20000, 0, AccessType.LOAD)
    memory.l2.drain_mshrs()
    shared.drain_mshrs()
    traffic_before = shared.traffic
    l2_allocs_before = memory.l2.stats.mshr_allocations
    assert memory.prefetch(0x30000, now=0, level="l1") is None
    assert memory.l1d.stats.prefetches_dropped == 1
    # The drop happened before any downstream work.
    assert shared.traffic == traffic_before
    assert memory.l2.stats.mshr_allocations == l2_allocs_before


# ---------------------------------------------------------------------------
# end-to-end acceptance: the dead counter is live, and only when bounded
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def mcf_windows():
    trace = get_workload("mcf").trace(9000)
    return trace.entries[:4000], trace.entries[4000:8000]


def _total_stall_cycles(outcome):
    return sum(level["stall_cycles"] for level in outcome.mshr.values())


def test_mshr_stall_cycles_live_under_tiny_file(mcf_windows):
    """Guards against the counter going dead again: a miss-heavy workload
    with 4-entry files must record stalls, and the timing must move."""
    warm, timed = mcf_windows
    tiny = simulate_baseline(timed, SystemConfig().with_mshr_entries(4),
                             warmup_entries=warm)
    assert _total_stall_cycles(tiny) > 0
    assert tiny.private.l1d.stats.mshr_stall_cycles > 0
    unbounded = simulate_baseline(timed, SystemConfig().with_mshr_entries(None),
                                  warmup_entries=warm)
    assert tiny.cycles > unbounded.cycles


def test_mshr_stall_cycles_exactly_zero_when_unbounded(mcf_windows):
    warm, timed = mcf_windows
    outcome = simulate_baseline(timed, SystemConfig().with_mshr_entries(None),
                                warmup_entries=warm)
    assert _total_stall_cycles(outcome) == 0
    for cache in (outcome.private.l1i, outcome.private.l1d,
                  outcome.private.l2, outcome.shared.l3):
        assert cache.stats.mshr_stall_cycles == 0
        assert cache.stats.mshr_stalls == 0
        assert cache.stats.mshr_allocations == 0


def test_warm_memo_replay_and_restore_agree_with_bounded_mshrs(mcf_windows):
    """Warm-vs-cold bit-identity must hold with MSHR state in the snapshot:
    the first call replays the warmup, the second restores the snapshot."""
    warm, timed = mcf_windows
    config = SystemConfig().with_mshr_entries(4)
    first = simulate_baseline(timed, config, warmup_entries=warm)
    second = simulate_baseline(timed, config, warmup_entries=warm)
    assert first.cycles == second.cycles
    assert first.core.l1d_misses == second.core.l1d_misses
    assert first.memory_traffic == second.memory_traffic
    assert first.mshr == second.mshr
