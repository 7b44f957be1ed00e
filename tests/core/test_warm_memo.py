"""Warmed-memory memoization: restored state must equal replayed state."""

from __future__ import annotations

import pytest

from repro.core.compile import kernel_available
from repro.core.config import SystemConfig
from repro.core.system import (
    WarmupMemo,
    _replay_warmup,
    build_single_core,
    simulate_baseline,
    warm_memo_enabled,
)
from repro.dla.config import DlaConfig
from repro.dla.system import DlaSystem
from repro.workloads.suites import get_workload

WORKLOAD = "libquantum"


@pytest.fixture(scope="module")
def warm_entries():
    """A warm-up window: the memo keys it by its rows' content key."""
    return get_workload(WORKLOAD).trace(4000).window(0, 2500)


def _cache_state(cache):
    # Item lists, not dicts: each set's order is its LRU tie-break order.
    return {"sets": [list(lines.items()) for lines in cache.lines()],
            "stats": dict(vars(cache.stats))}


def _memory_state(memory):
    return {
        "l1i": _cache_state(memory.l1i),
        "l1d": _cache_state(memory.l1d),
        "l2": _cache_state(memory.l2),
        "tlb_entries": list(memory.tlb.entries().items()),
        "tlb_stats": dict(vars(memory.tlb.stats)),
    }


def _shared_state(shared):
    return {
        "l3": _cache_state(shared.l3),
        "dram_stats": dict(vars(shared.dram.stats)),
        "dram_open_rows": list(shared.dram._open_rows),
        "dram_bank_ready": list(shared.dram._bank_ready),
        "dram_energy": shared.dram._dynamic_energy,
    }


def test_restore_equals_replay_single_core(warm_entries):
    """A memo restore reproduces every bit of state a replay produces."""
    config = SystemConfig()
    memo = WarmupMemo()

    shared_a, private_a, _ = build_single_core(config)
    memo.warm((private_a,), warm_entries)          # first warm: replays
    shared_b, private_b, _ = build_single_core(config)
    memo.warm((private_b,), warm_entries)          # second warm: restores

    assert memo.replays == 1 and memo.restores == 1
    assert _memory_state(private_a) == _memory_state(private_b)
    assert _shared_state(shared_a) == _shared_state(shared_b)

    # Reference: a plain (un-memoized) replay gives the same state too.
    shared_c, private_c, _ = build_single_core(config)
    _replay_warmup(private_c, warm_entries)
    assert _memory_state(private_a) == _memory_state(private_c)
    assert _shared_state(shared_a) == _shared_state(shared_c)


def test_memo_keys_distinguish_geometry_and_mode(warm_entries):
    memo = WarmupMemo()
    config = SystemConfig()

    _, private, _ = build_single_core(config)
    memo.warm((private,), warm_entries)
    # Same entries, look-ahead containment mode -> distinct key -> replay.
    _, lookahead_private, _ = build_single_core(config, lookahead_mode=True)
    memo.warm((lookahead_private,), warm_entries)
    assert memo.replays == 2 and memo.restores == 0
    # Different pacing is a different key too.
    _, private2, _ = build_single_core(config)
    memo.warm((private2,), warm_entries, cycles_per_access=4)
    assert memo.replays == 3


def test_memo_is_bounded(warm_entries):
    """Old snapshots (and their windows' replay arrays) are evicted FIFO."""
    memo = WarmupMemo(max_snapshots=2)
    config = SystemConfig()
    windows = [warm_entries.window(200 * k, 200) for k in range(4)]
    for window in windows:
        _, private, _ = build_single_core(config)
        memo.warm((private,), window)
    assert memo.replays == 4
    assert len(memo._snapshots) <= 2
    assert len(memo._inputs) <= 2
    # The newest snapshot still restores, from a fresh cut of its rows.
    _, private, _ = build_single_core(config)
    memo.warm((private,), warm_entries.window(600, 200))
    assert memo.restores == 1


def test_eviction_keeps_replay_inputs_of_the_incoming_window(warm_entries):
    """Regression: evicting a victim that shares the incoming key's window
    must not drop the replay arrays that window's snapshots still use."""
    memo = WarmupMemo(max_snapshots=1)
    config = SystemConfig()
    window = warm_entries.window(0, 200)

    _, private, _ = build_single_core(config)
    memo.warm((private,), window)                          # snapshot (W, 2)
    # Same window, different pacing: the (W, 2) victim shares window W
    # with the incoming (W, 4) key.
    _, private2, _ = build_single_core(config)
    memo.warm((private2,), window, cycles_per_access=4)
    assert [key[0] for key in memo._snapshots] == [window.key]
    if kernel_available():
        assert window.key in memo._inputs                  # still held


def test_an_entry_list_is_keyed_afresh(warm_entries):
    """An entry list has no content key of its own: each call replays, and
    the restore path never serves it another list's snapshot."""
    memo = WarmupMemo()
    config = SystemConfig()
    entries = warm_entries.entries[:200]
    for _ in range(2):
        _, private, _ = build_single_core(config)
        memo.warm((private,), entries)
    assert memo.replays == 2 and memo.restores == 0


def test_group_warm_requires_shared_system(warm_entries):
    config = SystemConfig()
    _, private_a, _ = build_single_core(config)
    _, private_b, _ = build_single_core(config)
    with pytest.raises(ValueError):
        WarmupMemo().warm((private_a, private_b), warm_entries)


def test_simulation_outcomes_identical_with_and_without_memo(monkeypatch):
    """End-to-end: memoized warms never change simulation results."""
    assert warm_memo_enabled()
    workload = get_workload(WORKLOAD)
    trace = workload.trace(5000)
    warmup, timed = trace.entries[:2000], trace.entries[2000:4000]
    config = SystemConfig()

    # Two baseline runs through the process-global memo: the second run's
    # warm is a restore, and must give a bit-identical outcome.
    first = simulate_baseline(timed, config, warmup_entries=warmup)
    second = simulate_baseline(timed, config, warmup_entries=warmup)
    assert first.cycles == second.cycles
    assert first.core.l1d_misses == second.core.l1d_misses
    assert first.energy.total == second.energy.total

    # And against a memo-disabled replay run.
    monkeypatch.setenv("REPRO_WARM_MEMO", "0")
    replayed = simulate_baseline(timed, config, warmup_entries=warmup)
    assert replayed.cycles == first.cycles
    assert replayed.core.branch_mispredicts == first.core.branch_mispredicts
    monkeypatch.delenv("REPRO_WARM_MEMO")

    # DLA path (two-core warm group) as well.
    program = workload.build_program()
    from repro.dla.profiling import profile_workload

    profile = profile_workload(program, trace.window(0, 3000), config)
    dla_config = DlaConfig().baseline_dla()

    def run_dla():
        system = DlaSystem(program, config, dla_config, profile=profile)
        return system.simulate(timed, warmup_entries=warmup)

    memo_first = run_dla()
    memo_second = run_dla()
    assert memo_first.main.cycles == memo_second.main.cycles
    assert memo_first.reboots == memo_second.reboots
    monkeypatch.setenv("REPRO_WARM_MEMO", "0")
    replayed_dla = run_dla()
    assert replayed_dla.main.cycles == memo_first.main.cycles
    assert replayed_dla.lookahead.cycles == memo_first.lookahead.cycles
