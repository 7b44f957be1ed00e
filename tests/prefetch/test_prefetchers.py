"""Tests for the hardware prefetchers."""

import pytest

from repro.prefetch import make_prefetcher, PREFETCHER_FACTORIES
from repro.prefetch.base import NullPrefetcher
from repro.prefetch.best_offset import BestOffsetConfig, BestOffsetPrefetcher
from repro.prefetch.stride import StridePrefetcher, StridePrefetcherConfig


def test_factory_knows_every_registered_prefetcher():
    for name in PREFETCHER_FACTORIES:
        assert make_prefetcher(name) is not None
    with pytest.raises(KeyError):
        make_prefetcher("bogus")


def test_null_prefetcher_never_prefetches():
    pf = NullPrefetcher()
    assert pf.observe(1, 0x1000, hit=False, cycle=0) == []


def test_stride_prefetcher_learns_constant_stride():
    pf = StridePrefetcher(StridePrefetcherConfig(degree=2))
    addresses = [0x1000 + i * 256 for i in range(6)]
    emitted = []
    for i, address in enumerate(addresses):
        emitted.extend(pf.observe(7, address, hit=False, cycle=i))
    assert emitted, "a steady stride stream must trigger prefetches"
    # Prefetches continue the stride pattern.
    assert all((r.address - 0x1000) % 256 == 0 for r in emitted)
    assert all(r.level == "l1" for r in emitted)


def test_stride_prefetcher_ignores_irregular_stream():
    pf = StridePrefetcher()
    addresses = [0x1000, 0x5000, 0x2000, 0x9000, 0x1234, 0x8888]
    emitted = []
    for i, address in enumerate(addresses):
        emitted.extend(pf.observe(3, address, hit=False, cycle=i))
    assert emitted == []


def test_stride_prefetcher_table_capacity_eviction():
    pf = StridePrefetcher(StridePrefetcherConfig(table_entries=4))
    for pc in range(10):
        pf.observe(pc, 0x1000 * pc, hit=False, cycle=pc)
    assert len(pf._table) <= 4


def test_best_offset_learns_a_constant_offset_stream():
    pf = BestOffsetPrefetcher(BestOffsetConfig())
    block = 64
    emitted = []
    for i in range(400):
        address = i * block                     # offset-1 stream
        emitted.extend(pf.observe(1, address, hit=False, cycle=i))
    assert pf.current_offset is not None
    assert emitted, "BOP must issue prefetches on a sequential stream"
    assert all(r.level == "l2" for r in emitted)


def test_best_offset_turns_off_on_random_stream():
    pf = BestOffsetPrefetcher(BestOffsetConfig(round_max=30, bad_score=2))
    import random
    rng = random.Random(5)
    for i in range(300):
        pf.observe(1, rng.randrange(0, 1 << 24) * 64, hit=False, cycle=i)
    # After several rounds of hopeless scoring the prefetcher disables
    # itself: no confident offset, and no prefetch for the next miss.
    assert pf.current_offset is None
    assert pf.observe(1, 0x123400, False, 1000) == []


def test_best_offset_reset_restores_initial_state():
    pf = BestOffsetPrefetcher()
    for i in range(100):
        pf.observe(1, i * 64, hit=False, cycle=i)
    pf.reset()
    assert pf.current_offset == 1


def test_best_offset_rejects_repeated_candidate_offsets():
    # Scores are kept per candidate in ``offsets`` order, one per offset.
    with pytest.raises(ValueError):
        BestOffsetConfig(offsets=[1, 2, 2])
