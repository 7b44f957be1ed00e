"""Tests for the composed memory hierarchy."""

from repro.memory.hierarchy import (
    AccessType,
    CoreMemorySystem,
    MemoryHierarchyConfig,
    SharedMemorySystem,
)


def _core_memory(lookahead=False):
    config = MemoryHierarchyConfig()
    shared = SharedMemorySystem(config)
    return shared, CoreMemorySystem(shared, config, lookahead_mode=lookahead)


def test_first_access_goes_to_dram_then_hits_l1():
    shared, memory = _core_memory()
    first = memory.access(0x8000, 0, AccessType.LOAD)
    assert first.supplied_by == "dram"
    assert first.dram_access and first.l1_miss
    second = memory.access(0x8000, first.ready_cycle + 1, AccessType.LOAD)
    assert second.supplied_by == "l1"
    assert not second.l1_miss


def test_latency_ordering_across_levels():
    shared, memory = _core_memory()
    dram_access = memory.access(0x10000, 0, AccessType.LOAD)
    # Evict nothing; a different core missing its private levels hits L3.
    other = CoreMemorySystem(shared, shared.config)
    l3_access = other.access(0x10000, 10_000, AccessType.LOAD)
    assert l3_access.supplied_by in ("l3", "dram")
    assert l3_access.latency < dram_access.latency


def test_shared_l3_serves_second_core():
    shared, memory_a = _core_memory()
    memory_b = CoreMemorySystem(shared, shared.config)
    memory_a.access(0x20000, 0, AccessType.LOAD)
    result = memory_b.access(0x20000, 5_000, AccessType.LOAD)
    assert result.supplied_by == "l3"
    assert not result.dram_access


def test_prefetch_into_l1_turns_demand_miss_into_hit():
    shared, memory = _core_memory()
    fill_time = memory.prefetch(0x30000, now=0, level="l1")
    result = memory.access(0x30000, fill_time + 10, AccessType.LOAD)
    assert result.supplied_by == "l1"


def test_prefetch_into_l2_leaves_l1_miss_but_short_latency():
    shared, memory = _core_memory()
    fill_time = memory.prefetch(0x40000, now=0, level="l2")
    result = memory.access(0x40000, fill_time + 10, AccessType.LOAD)
    assert result.l1_miss
    assert result.supplied_by == "l2"


def test_store_counts_as_write_traffic_on_miss():
    shared, memory = _core_memory()
    before = shared.traffic
    memory.access(0x50000, 0, AccessType.STORE)
    assert shared.traffic > before


def test_lookahead_mode_never_writes_back_dirty_data():
    shared, memory = _core_memory(lookahead=True)
    # Dirty a line, then stream enough conflicting blocks through the same
    # set to force its eviction; DRAM write traffic must not grow.
    memory.access(0x60000, 0, AccessType.STORE)
    writes_before = shared.dram.stats.writes
    block = shared.config.l1d.block_bytes
    stride = shared.config.l1d.num_sets * block
    for i in range(1, 40):
        memory.access(0x60000 + i * stride, i * 10, AccessType.LOAD)
    assert shared.dram.stats.writes == writes_before


def test_tlb_miss_penalty_included_in_data_access():
    shared, memory = _core_memory()
    memory.access(0x70000, 0, AccessType.LOAD)
    assert memory.tlb.stats.misses >= 1


def test_prefetch_level_validation():
    shared, memory = _core_memory()
    try:
        memory.prefetch(0x100, 0, level="l3")
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("invalid prefetch level accepted")


# ---------------------------------------------------------------------------
# AccessResult source across every hit level, writeback counters,
# look-ahead dirty-discard containment
# ---------------------------------------------------------------------------
def test_access_result_source_reports_every_supply_level():
    shared, memory = _core_memory()
    address = 0x90000

    dram_hit = memory.access(address, 0, AccessType.LOAD)
    assert dram_hit.supplied_by == "dram"
    assert dram_hit.l1_miss and dram_hit.dram_access

    l1_hit = memory.access(address, dram_hit.ready_cycle + 1, AccessType.LOAD)
    assert l1_hit.supplied_by == "l1"
    assert not l1_hit.l1_miss and not l1_hit.dram_access

    # A second core sharing the L3 misses its private levels but hits L3.
    other = CoreMemorySystem(shared, shared.config)
    l3_hit = other.access(address, 20_000, AccessType.LOAD)
    assert l3_hit.supplied_by == "l3"
    assert l3_hit.l1_miss and not l3_hit.dram_access

    # An L2-resident block (prefetched there) supplies from L2.
    l2_address = 0xA0000
    memory.prefetch(l2_address, now=30_000, level="l2")
    l2_hit = memory.access(l2_address, 40_000, AccessType.LOAD)
    assert l2_hit.supplied_by == "l2"
    assert l2_hit.l1_miss and not l2_hit.dram_access


def _evict_set(memory, count, start, stride, access_type, start_cycle=0):
    now = start_cycle
    for i in range(count):
        memory.access(start + i * stride, now, access_type)
        now += 200
    return now


def test_writeback_counters_follow_dirty_victims_down_the_levels():
    shared, memory = _core_memory()
    l1d = memory.l1d
    stride = l1d.config.num_sets * l1d.config.block_bytes
    # Dirty more lines than one L1D set holds: victims must be written back
    # (counted at L1D) and land dirty in L2, not silently disappear.
    _evict_set(memory, l1d.config.associativity + 4, 0xB0000, stride,
               AccessType.STORE)
    assert l1d.stats.writebacks > 0
    assert l1d.stats.writebacks <= l1d.stats.evictions
    # Clean evictions never count as writebacks.
    shared2, memory2 = _core_memory()
    _evict_set(memory2, memory2.l1d.config.associativity + 4, 0xB0000, stride,
               AccessType.LOAD)
    assert memory2.l1d.stats.evictions > 0
    assert memory2.l1d.stats.writebacks == 0


def test_lookahead_dirty_discard_containment_end_to_end():
    """cache.py's look-ahead containment: dirty victims of the speculative
    core are discarded — no writeback counter, no downstream write traffic
    — while the same sequence on a normal core writes its victims back."""
    stride_of = lambda memory: (memory.l1d.config.num_sets
                                * memory.l1d.config.block_bytes)

    shared, lookahead = _core_memory(lookahead=True)
    stride = stride_of(lookahead)
    # Dirty one set's ways, then stream clean loads through the same set to
    # evict them.  The store misses themselves are demand traffic; only the
    # *eviction* behaviour differs between the cores.
    ways = lookahead.l1d.config.associativity
    end = _evict_set(lookahead, ways, 0xC0000, stride, AccessType.STORE)
    writes_after_stores = shared.dram.stats.writes
    _evict_set(lookahead, ways + 6, 0xC0000 + ways * stride, stride,
               AccessType.LOAD, start_cycle=end)
    assert lookahead.l1d.stats.evictions > 0
    assert lookahead.l1d.stats.writebacks == 0
    assert shared.dram.stats.writes == writes_after_stores
    assert shared.dram.stats.writeback_writes == 0

    shared_n, normal = _core_memory(lookahead=False)
    end = _evict_set(normal, ways, 0xC0000, stride, AccessType.STORE)
    _evict_set(normal, ways + 6, 0xC0000 + ways * stride, stride,
               AccessType.LOAD, start_cycle=end)
    assert normal.l1d.stats.writebacks > 0
