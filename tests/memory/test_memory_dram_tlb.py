"""Tests for the DRAM timing/energy model and the TLB."""

from repro.memory.dram import DramConfig, DramModel
from repro.memory.tlb import Tlb, TlbConfig


def test_row_hit_is_faster_than_row_miss():
    dram = DramModel(DramConfig())
    first = dram.access(0x1000, now=0)
    second = dram.access(0x1008, now=first + 50)       # same row
    assert first - 0 == dram.config.row_miss_latency
    assert second - (first + 50) <= dram.config.row_hit_latency + dram.config.bank_busy_penalty
    assert dram.stats.row_hits == 1
    assert dram.stats.row_misses == 1


def test_bank_conflict_adds_queueing_delay():
    dram = DramModel(DramConfig())
    dram.access(0x2000, now=0)
    finish = dram.access(0x2000 + 8, now=1)            # immediately behind on the same bank
    assert finish > 1 + dram.config.row_hit_latency - 1
    assert dram.stats.busy_delay_cycles > 0


def test_reads_and_writes_counted_separately():
    dram = DramModel()
    dram.access(0x0, 0, is_write=False)
    dram.access(0x4000000, 0, is_write=True)
    assert dram.stats.reads == 1
    assert dram.stats.writes == 1
    assert dram.traffic == 2


def test_energy_grows_with_accesses_and_time():
    dram = DramModel()
    idle_energy = dram.energy(10_000)
    for i in range(50):
        dram.access(i * 131072, now=i * 10)
    busy_energy = dram.energy(10_000)
    assert busy_energy > idle_energy
    assert dram.energy(0) > 0               # the accesses' dynamic share


def test_tlb_hit_after_miss():
    tlb = Tlb(TlbConfig(entries=4, miss_penalty=30))
    assert tlb.access(0x1000, 0) == 30
    assert tlb.access(0x1008, 1) == 0                  # same page
    assert tlb.stats.misses == 1 and tlb.stats.hits == 1


def test_tlb_lru_eviction():
    tlb = Tlb(TlbConfig(entries=2, page_bytes=4096))
    tlb.access(0x0000, 0)
    tlb.access(0x1000, 1)
    tlb.access(0x2000, 2)                              # evicts page 0
    assert not tlb.contains(0x0000)
    assert tlb.contains(0x1000)
    assert tlb.contains(0x2000)


def test_tlb_prefill_avoids_later_miss():
    tlb = Tlb(TlbConfig())
    tlb.prefill(0x5000, 0)
    assert tlb.access(0x5008, 1) == 0
    assert tlb.stats.prefills == 1


