"""Warm-up replay: every warm replays, and equal warms give equal state."""

from __future__ import annotations

import pytest

from repro.core.compile import kernel_available
from repro.core.config import SystemConfig
from repro.core import system
from repro.core.system import (
    WarmupMemo,
    _replay_warmup,
    build_single_core,
    simulate_baseline,
    warm_memo_stats,
    warm_memory_systems,
)
from repro.dla.config import DlaConfig
from repro.dla.system import DlaSystem
from repro.experiments.memsys_sweep import MEMSYS_MACHINES, machine_config
from repro.memory.hierarchy import CoreMemorySystem, SharedMemorySystem
from repro.workloads.suites import get_workload

WORKLOAD = "libquantum"


@pytest.fixture(scope="module")
def warm_entries():
    """A warm-up window: the memo keys its replay arrays by its content."""
    return get_workload(WORKLOAD).trace(4000).window(0, 2500)


def _contended() -> SystemConfig:
    return machine_config(SystemConfig(), dict(MEMSYS_MACHINES)["contended"])


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
        "snapshot": memory.snapshot_state(),
    }


def _shared_state(shared):
    return {
        "l3": _cache_state(shared.l3),
        "dram_stats": dict(vars(shared.dram.stats)),
        "snapshot": shared.snapshot_state(),
    }


def _group_state(shared, memories):
    return _shared_state(shared), [_memory_state(memory) for memory in memories]


def _dla_group(config):
    """A main core and a look-ahead core on one shared system."""
    shared = SharedMemorySystem(config.memory)
    return shared, (CoreMemorySystem(shared, config.memory),
                    CoreMemorySystem(shared, config.memory,
                                     lookahead_mode=True))


def test_replay_is_deterministic_single_core(warm_entries):
    """Two warms of fresh hierarchies replay twice and leave equal state,
    the state a plain replay leaves."""
    config = SystemConfig()
    memo = WarmupMemo()
    states = []
    for _ in range(2):
        shared, private, _ = build_single_core(config)
        memo.warm((private,), warm_entries)
        states.append(_group_state(shared, (private,)))
    assert memo.replays == 2
    assert states[0] == states[1]

    shared, private, _ = build_single_core(config)
    _replay_warmup(private, warm_entries)
    assert _group_state(shared, (private,)) == states[0]


def test_dla_group_warms_identically_on_a_contended_machine(warm_entries):
    """A main + look-ahead group (banked MSHRs, write buffers and DRAM
    queues) warms to equal state twice, drained for the timed region."""
    config = _contended()
    states = []
    for _ in range(2):
        shared, memories = _dla_group(config)
        warm_memory_systems(memories, warm_entries)
        states.append(_group_state(shared, memories))
        for memory in memories:
            assert memory.l1d.mshr_occupancy(now=0) == 0
        assert shared.l3.mshr_occupancy(now=0) == 0
    assert states[0] == states[1]
    shared_state, (main, lookahead) = states[0]
    assert main["l1d"]["sets"] and lookahead["l1d"]["sets"]
    assert shared_state["dram_stats"]["reads"] > 0


def test_replay_inputs_are_shared_across_geometries(warm_entries):
    """One window's replay arrays serve every geometry and look-ahead mode."""
    memo = WarmupMemo()
    _, private, _ = build_single_core(SystemConfig())
    memo.warm((private,), warm_entries)
    _, lookahead, _ = build_single_core(SystemConfig(), lookahead_mode=True)
    memo.warm((lookahead,), warm_entries)
    _, contended, _ = build_single_core(_contended())
    memo.warm((contended,), warm_entries, cycles_per_access=4)
    assert memo.replays == 3
    assert list(memo._inputs) == ([warm_entries.key] if kernel_available()
                                  else [])


def test_memo_is_bounded(warm_entries):
    """Old windows' replay arrays are evicted FIFO."""
    memo = WarmupMemo(max_windows=2)
    config = SystemConfig()
    windows = [warm_entries.window(200 * k, 200) for k in range(4)]
    for window in windows:
        _, private, _ = build_single_core(config)
        memo.warm((private,), window)
    assert memo.replays == 4
    assert len(memo._inputs) <= 2
    if kernel_available():
        assert list(memo._inputs) == [window.key for window in windows[2:]]
        # A fresh cut of a held window's rows reuses its arrays.
        held = memo._inputs[windows[3].key]
        _, private, _ = build_single_core(config)
        memo.warm((private,), warm_entries.window(600, 200))
        assert memo._inputs[windows[3].key] is held


def test_eviction_keeps_replay_inputs_of_the_incoming_window(warm_entries):
    """At a bound of one, a window warmed again at another pacing keeps its
    arrays; the next window replaces them."""
    memo = WarmupMemo(max_windows=1)
    config = SystemConfig()
    window = warm_entries.window(0, 200)
    for cycles_per_access in (2, 4):
        _, private, _ = build_single_core(config)
        memo.warm((private,), window, cycles_per_access=cycles_per_access)
    if kernel_available():
        assert list(memo._inputs) == [window.key]
    other = warm_entries.window(200, 200)
    _, private, _ = build_single_core(config)
    memo.warm((private,), other)
    assert list(memo._inputs) == ([other.key] if kernel_available() else [])


def test_group_warm_requires_shared_system(warm_entries):
    config = SystemConfig()
    _, private_a, _ = build_single_core(config)
    _, private_b, _ = build_single_core(config)
    with pytest.raises(ValueError):
        WarmupMemo().warm((private_a, private_b), warm_entries)


def test_simulation_outcomes_identical_with_and_without_memo():
    """End-to-end: two cold simulations, the second on memoised replay
    arrays, and a third on an emptied memo, give bit-identical outcomes."""
    workload = get_workload(WORKLOAD)
    trace = workload.trace(5000)
    warmup, timed = trace.window(0, 2000), trace.window(2000, 2000)
    config = SystemConfig()

    def runs(run):
        system._WARM_MEMO.clear()
        replays = warm_memo_stats()["warm_replays"]
        outcomes = [run(), run()]
        system._WARM_MEMO.clear()
        outcomes.append(run())
        assert warm_memo_stats() == {"warm_replays": replays + 3,
                                     "warm_restores": 0}
        return outcomes

    first, second, third = runs(
        lambda: simulate_baseline(timed, config, warmup_entries=warmup))
    for other in (second, third):
        assert other.cycles == first.cycles
        assert other.core.l1d_misses == first.core.l1d_misses
        assert other.core.branch_mispredicts == first.core.branch_mispredicts
        assert other.energy.total == first.energy.total
        assert other.memsys == first.memsys

    # DLA path (two-core warm group) as well.
    program = workload.build_program()
    from repro.dla.profiling import profile_workload

    profile = profile_workload(program, trace.window(0, 3000), config)
    dla_config = DlaConfig().baseline_dla()

    def run_dla():
        return DlaSystem(program, config, dla_config,
                         profile=profile).simulate(timed, warmup_entries=warmup)

    first, second, third = runs(run_dla)
    for other in (second, third):
        assert other.main.cycles == first.main.cycles
        assert other.lookahead.cycles == first.lookahead.cycles
        assert other.reboots == first.reboots


@pytest.mark.xfail(strict=True, reason=(
    "modelling bug (ROADMAP item 1): warm-up replay runs on its own cycle "
    "numbers and the timed region restarts at 0, but only the occupancy "
    "resources are drained, so line fill times and bank ready times leak "
    "into the timed region"))
def test_warm_up_times_do_not_lie_past_the_timed_region_start(warm_entries):
    """After the warm-up, no resident line's fill time and no DRAM bank's
    ready time lies past cycle 0, where the timed region starts."""
    shared, private, _ = build_single_core(SystemConfig())
    warm_memory_systems((private,), warm_entries)
    fills = [line[1] for cache in (private.l1i, private.l1d, private.l2,
                                   shared.l3)
             for lines in cache.lines() for line in lines.values()]
    bank_ready = shared.dram.snapshot_state()[1]
    assert fills and max(fills) <= 0
    assert max(bank_ready) <= 0
