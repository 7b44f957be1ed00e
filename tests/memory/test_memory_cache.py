"""Tests for the set-associative cache model."""

import json
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import cache as cache_module
from repro.memory.cache import (
    LINE_FLOAT_FILL,
    Cache,
    CacheConfig,
    WriteBufferConfig,
)


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


def test_fill_makes_a_line_resident():
    cache = _small_cache()
    assert cache.occupancy == 0
    assert not cache.probe(0x40)
    cache.fill(0x40, 0)
    assert cache.occupancy == 1
    assert cache.probe(0x40)


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


# ---------------------------------------------------------------------------
# recycled line arrays
# ---------------------------------------------------------------------------
_STREAM_CONFIG = CacheConfig(name="recycled", size_bytes=1024, associativity=2,
                             block_bytes=64, latency=2, mshr_entries=4,
                             write_buffer=WriteBufferConfig(entries=2))
_STREAM_BLOCKS = 48


def _line_set(cache):
    return (cache._tags, cache._fill, cache._last_use, cache._flags,
            cache._stamp)


def _poisoned_lines(config, blocks):
    """A line-array set for ``config`` whose every slot holds a stale line
    a stream over ``blocks`` would match: a tag that stream looks up in
    that set, fill and use times before any access, every flag bit set
    but a fill type bit that is wrong both ways (even slots call their
    fractional fill time an int, odd slots their whole one a float) and
    the smallest stamp."""
    sets, ways = config.num_sets, config.associativity
    tags_by_set = {}
    for block in sorted(set(blocks)):
        tags_by_set.setdefault(block % sets, []).append(block // sets)
    slots = sets * ways
    tags = array("q", bytes(8 * slots))
    for index in range(sets):
        candidates = tags_by_set.get(index) or [index]
        for way in range(ways):
            tags[index * ways + way] = candidates[way % len(candidates)]
    fill = array("d", [-1.0 if slot % 2 else -0.5 for slot in range(slots)])
    flags = array("B", [0xFF if slot % 2 else 0xFF ^ LINE_FLOAT_FILL
                        for slot in range(slots)])
    return (tags, fill, array("d", fill), flags, array("q", [-1]) * slots)


def _drive(cache, seed=7):
    """Demand reads and writes (int and float times), prefetch fills, and
    dirty victims admitted to the write buffer; returns every answer."""
    rng = random.Random(seed)
    answers = []
    for step in range(800):
        now = step * 3 if step % 2 else step * 3 + 0.5
        address = rng.randrange(_STREAM_BLOCKS) * 64 + rng.randrange(64)
        if rng.random() < 0.2:
            if cache.probe(address):
                answers.append("resident")
            else:
                answers.append(cache.fill(address, now + 40, from_prefetch=True,
                                          now=now))
            continue
        is_write = rng.random() < 0.3
        ready = cache.lookup(address, now, is_write)
        answers.append(ready)
        if ready is None:
            victim = cache.fill(address, now + 20, dirty=is_write, now=now)
            answers.append((victim, cache.last_wb_stall))
            if victim is not None:
                cache.writeback_admit(now + 90, at=now)
    return answers


def _state(cache, answers):
    state = (answers, cache.snapshot_state(), cache.lines(), cache.occupancy)
    # Type-strict: ``==`` alone takes 3 for 3.0.
    return state, json.dumps(state, sort_keys=True, default=repr)


def test_a_cache_on_poisoned_recycled_arrays_equals_a_fresh_one(monkeypatch):
    """Stale slots past each set's count are never observed: a cache built
    on a free set whose stale lines carry the stream's own tags, early
    times, wrong fill type bits and every other flag bit ends a stream with evictions, dirty victims
    and prefetch fills in exactly a fresh cache's state."""
    config = _STREAM_CONFIG
    slots = config.num_sets * config.associativity
    poisoned = _poisoned_lines(config, range(_STREAM_BLOCKS))
    monkeypatch.setattr(cache_module, "_FREE_LINES", {slots: [poisoned]})
    recycled = Cache(config)
    assert _line_set(recycled) == poisoned
    assert all(mine is theirs
               for mine, theirs in zip(_line_set(recycled), poisoned))
    monkeypatch.setattr(cache_module, "_FREE_LINES", {})
    fresh = Cache(config)

    recycled_state = _state(recycled, _drive(recycled))
    fresh_state = _state(fresh, _drive(fresh))
    stats = fresh.stats
    assert stats.evictions and stats.writebacks and stats.prefetches_issued
    assert stats.prefetch_hits and stats.wb_enqueued
    assert recycled_state == fresh_state


def test_live_caches_never_share_line_arrays(monkeypatch):
    """Two live caches of one size own distinct arrays; a collected cache's
    set goes to the next cache of its slot count (any geometry); the free
    store never holds more than its bound per size."""
    monkeypatch.setattr(cache_module, "_FREE_LINES", {})
    config = _STREAM_CONFIG
    slots = config.num_sets * config.associativity
    first, second = Cache(config), Cache(config)
    assert not {id(a) for a in _line_set(first)} & {id(a) for a in _line_set(second)}

    lines = _line_set(first)
    del first
    assert cache_module._FREE_LINES[slots] == [lines]
    other_size = Cache(CacheConfig(name="other", size_bytes=2048,
                                   associativity=2, block_bytes=64))
    assert all(mine is not theirs
               for mine, theirs in zip(_line_set(other_size), lines))
    # Same slot count, other geometry: 4 sets of 4 ways.
    reshaped = Cache(CacheConfig(name="reshaped", size_bytes=1024,
                                 associativity=4, block_bytes=64))
    assert all(mine is theirs for mine, theirs in zip(_line_set(reshaped), lines))
    assert cache_module._FREE_LINES[slots] == []
    assert len(reshaped._count) == 4

    many = [Cache(config) for _ in range(cache_module.FREE_LINES_PER_SIZE + 3)]
    assert len({id(cache._tags) for cache in many + [second, reshaped]}) == len(many) + 2
    del many
    assert len(cache_module._FREE_LINES[slots]) == cache_module.FREE_LINES_PER_SIZE
