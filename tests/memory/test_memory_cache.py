"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import Cache, CacheConfig


def _small_cache(**overrides):
    defaults = dict(name="test", size_bytes=1024, associativity=2, block_bytes=64,
                    latency=2, mshr_entries=4)
    defaults.update(overrides)
    return Cache(CacheConfig(**defaults))


def test_miss_then_hit_after_fill():
    cache = _small_cache()
    assert cache.lookup(0x100, now=0) is None
    cache.fill(0x100, fill_time=10)
    ready = cache.lookup(0x100, now=20)
    assert ready == 20 + cache.config.latency
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_same_block_addresses_share_a_line():
    cache = _small_cache()
    cache.fill(0x100, 0)
    assert cache.lookup(0x100 + 63, now=5) is not None
    assert cache.lookup(0x100 + 64, now=5) is None


def test_late_prefetch_pays_residual_latency():
    cache = _small_cache()
    cache.fill(0x200, fill_time=100, from_prefetch=True)
    ready = cache.lookup(0x200, now=40)
    assert ready == 100 + cache.config.latency
    assert cache.stats.late_prefetch_hits == 1
    assert cache.stats.prefetch_hits == 1


def test_timely_prefetch_has_no_residual_latency():
    cache = _small_cache()
    cache.fill(0x200, fill_time=10, from_prefetch=True)
    assert cache.lookup(0x200, now=50) == 50 + cache.config.latency
    assert cache.stats.late_prefetch_hits == 0


def test_lru_eviction_within_a_set():
    cache = _small_cache()          # 8 sets, 2 ways
    sets = cache.config.num_sets
    block = cache.config.block_bytes
    a, b, c = 0, sets * block, 2 * sets * block      # same set, different tags
    cache.fill(a, 0)
    cache.fill(b, 1)
    cache.lookup(a, now=10)          # make `a` most recently used
    cache.fill(c, 20)                # should evict `b`
    assert cache.probe(a)
    assert not cache.probe(b)
    assert cache.probe(c)
    assert cache.stats.evictions == 1


def test_dirty_eviction_produces_writeback_address():
    cache = _small_cache()
    sets = cache.config.num_sets
    block = cache.config.block_bytes
    cache.fill(0, 0, dirty=True)
    cache.fill(sets * block, 1)
    victim = cache.fill(2 * sets * block, 2)
    assert victim == 0
    assert cache.stats.writebacks == 1


def test_lookahead_mode_discards_dirty_victims():
    cache = Cache(CacheConfig(size_bytes=1024, associativity=2, block_bytes=64),
                  lookahead_mode=True)
    sets = cache.config.num_sets
    block = cache.config.block_bytes
    cache.fill(0, 0, dirty=True)
    cache.fill(sets * block, 1)
    victim = cache.fill(2 * sets * block, 2)
    assert victim is None
    assert cache.stats.writebacks == 0


def test_useless_prefetch_statistic():
    cache = _small_cache()
    sets = cache.config.num_sets
    block = cache.config.block_bytes
    cache.fill(0, 0, from_prefetch=True)
    cache.fill(sets * block, 1)
    cache.fill(2 * sets * block, 2)      # evicts the unused prefetch
    assert cache.stats.prefetches_useless == 1


def test_invalidate_all_clears_contents():
    cache = _small_cache()
    cache.fill(0x40, 0)
    cache.invalidate_all()
    assert cache.occupancy == 0
    assert not cache.probe(0x40)


def test_snapshot_of_an_empty_cache_carries_no_line_payload():
    """Snapshots scale with resident lines, not capacity: an empty 2 MB
    L3 (32k line slots) snapshots to empty line columns."""
    l3 = Cache(CacheConfig(name="l3", size_bytes=2 * 1024 * 1024,
                           associativity=16, latency=36, mshr_entries=64))
    lines, _, _, _ = l3.snapshot_state()
    assert all(len(column) == 0 for column in lines)


def test_geometry_validation():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1000, associativity=3, block_bytes=64)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300))
def test_occupancy_never_exceeds_capacity(addresses):
    cache = _small_cache()
    capacity_lines = cache.config.size_bytes // cache.config.block_bytes
    for i, address in enumerate(addresses):
        if cache.lookup(address, now=i) is None:
            cache.fill(address, i)
        assert cache.occupancy <= capacity_lines


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=200))
def test_second_access_to_recent_block_hits(addresses):
    """Immediately re-accessing the block just filled must hit (LRU keeps it)."""
    cache = _small_cache()
    for i, address in enumerate(addresses):
        if cache.lookup(address, now=i) is None:
            cache.fill(address, i)
        assert cache.lookup(address, now=i + 1) is not None
