"""Tests for the out-of-order core timing model."""

import pytest

from repro.core.config import CoreConfig, SystemConfig, sm_half_core_config, smt_full_core_config
from repro.core.energy import EnergyModel, EnergyParams
from repro.core.pipeline import BranchHint, CoreHooks, OutOfOrderCore, ValueHint
from repro.core.results import CoreResult
from repro.core.system import build_single_core, simulate_baseline, warm_memory_system
from repro.memory.hierarchy import CoreMemorySystem, SharedMemorySystem


def _run(entries, config=None, hooks=None, collect=False):
    config = config or SystemConfig()
    shared, private, core = build_single_core(config)
    return core.run(list(entries), hooks=hooks, collect_timings=collect)


def test_every_instruction_commits_once(stream_trace):
    result = _run(stream_trace.entries[:3000])
    assert result.committed == 3000
    assert result.cycles > 0
    assert 0 < result.ipc <= 4.0          # bounded by the commit width


def test_ipc_bounded_by_machine_width(stream_trace, branchy_trace):
    for trace in (stream_trace, branchy_trace):
        result = _run(trace.entries[:2500])
        assert result.ipc <= SystemConfig().core.commit_width


def test_timings_are_monotonic_per_instruction(stream_trace):
    result = _run(stream_trace.entries[:1500], collect=True)
    for timing in result.timings:
        assert timing.fetch <= timing.dispatch <= timing.complete <= timing.commit + 1e-9


def test_commit_times_nondecreasing(pointer_trace):
    result = _run(pointer_trace.entries[:1500], collect=True)
    commits = [t.commit for t in result.timings]
    assert all(b >= a for a, b in zip(commits, commits[1:]))


def test_accumulate_concatenates_timing_columns(stream_trace):
    first = _run(stream_trace.entries[:500], collect=True)
    second = _run(stream_trace.entries[500:900], collect=True)
    total = CoreResult()
    total.accumulate(first)
    total.accumulate(second)
    assert len(total.timings) == 900
    rows = list(total.timings)
    assert rows[:500] == list(first.timings)
    assert rows[500:] == list(second.timings)
    assert rows[0].dispatch_to_execute == rows[0].complete - rows[0].dispatch


def test_branchy_workload_has_mispredictions(branchy_trace):
    result = _run(branchy_trace.entries[:4000])
    assert result.branches > 0
    assert result.branch_mispredicts > 0
    assert result.branch_accuracy < 1.0


def test_predictable_workload_has_high_accuracy(stream_trace):
    result = _run(stream_trace.entries[:4000])
    assert result.branch_accuracy > 0.98


def test_perfect_branch_hints_remove_mispredictions(branchy_trace):
    entries = branchy_trace.entries[:4000]
    hooks = CoreHooks(branch_hint=lambda entry: BranchHint(available=0.0, correct=True))
    with_hints = _run(entries, hooks=hooks)
    without = _run(entries)
    assert with_hints.branch_mispredicts == 0
    assert with_hints.hint_mispredicts == 0
    assert with_hints.cycles < without.cycles


def test_incorrect_branch_hints_are_counted_and_penalised(branchy_trace):
    entries = branchy_trace.entries[:2000]
    hooks = CoreHooks(branch_hint=lambda entry: BranchHint(available=0.0, correct=False))
    result = _run(entries, hooks=hooks)
    assert result.hint_mispredicts == result.branches
    assert result.branch_mispredicts == result.branches


def test_late_branch_hints_stall_fetch(branchy_trace):
    entries = branchy_trace.entries[:2000]
    hooks = CoreHooks(
        branch_hint=lambda entry: BranchHint(available=1e7, correct=True)
    )
    result = _run(entries, hooks=hooks)
    assert result.fetch_stall_on_hint > 0
    assert result.cycles > 1e6


def test_value_hints_shorten_dependent_chains(pointer_trace):
    entries = pointer_trace.entries[:3000]
    baseline = _run(entries)
    hooks = CoreHooks(
        value_hint=lambda entry: ValueHint(available=0.0, correct=True)
        if entry.is_load else None
    )
    hinted = _run(entries, hooks=hooks)
    assert hinted.value_predictions_used > 0
    assert hinted.cycles < baseline.cycles


def test_value_mispredictions_add_penalty(stream_trace):
    entries = stream_trace.entries[:2000]
    good = _run(entries, hooks=CoreHooks(
        value_hint=lambda e: ValueHint(0.0, correct=True) if e.is_load else None))
    bad = _run(entries, hooks=CoreHooks(
        value_hint=lambda e: ValueHint(0.0, correct=False) if e.is_load else None))
    assert bad.value_mispredictions > 0
    assert bad.cycles > good.cycles


def test_skip_validation_reduces_executed_count(stream_trace):
    entries = stream_trace.entries[:2000]
    hooks = CoreHooks(
        value_hint=lambda e: ValueHint(0.0, correct=True, skip_validation=True)
        if e.static.op_class.name == "INT_ALU" else None
    )
    result = _run(entries, hooks=hooks)
    plain = _run(entries)
    assert result.validations_skipped > 0
    assert result.executed < plain.executed


def test_on_commit_and_on_fetch_hooks_fire_for_every_instruction(stream_trace):
    entries = stream_trace.entries[:1000]
    seen = {"fetch": 0, "commit": 0}
    hooks = CoreHooks(
        on_fetch=lambda e, c: seen.__setitem__("fetch", seen["fetch"] + 1),
        on_commit=lambda e, c: seen.__setitem__("commit", seen["commit"] + 1),
    )
    _run(entries, hooks=hooks)
    assert seen["fetch"] == len(entries)
    assert seen["commit"] == len(entries)


def test_memory_hook_observes_loads(pointer_trace):
    entries = pointer_trace.entries[:1000]
    observed = []
    hooks = CoreHooks(on_memory_access=lambda e, access, c: observed.append(access))
    _run(entries, hooks=hooks)
    loads = sum(1 for e in entries if e.is_load)
    stores = sum(1 for e in entries if e.is_store)
    assert len(observed) == loads + stores


def test_prefetcher_reduces_misses_for_streaming(stream_trace):
    entries = stream_trace.entries[:6000]
    with_pf = simulate_baseline(entries, SystemConfig(l2_prefetcher="bop"))
    without = simulate_baseline(entries, SystemConfig(l2_prefetcher="none"))
    assert with_pf.core.cycles <= without.core.cycles


def test_warmup_improves_measured_ipc(pointer_trace):
    warm = pointer_trace.entries[:4000]
    timed = pointer_trace.entries[4000:8000]
    cold = simulate_baseline(timed)
    warmed = simulate_baseline(timed, warmup_entries=warm)
    assert warmed.core.l1d_misses <= cold.core.l1d_misses
    assert warmed.cycles <= cold.cycles


def test_larger_window_helps_or_matches(pointer_trace):
    entries = pointer_trace.entries[:4000]
    small = simulate_baseline(entries, SystemConfig().with_overrides(rob_entries=32, lsq_entries=16))
    large = simulate_baseline(entries, SystemConfig().with_overrides(rob_entries=256, lsq_entries=128))
    assert large.cycles <= small.cycles * 1.02


def test_empty_trace_returns_empty_result():
    result = _run([])
    assert result.committed == 0
    assert result.cycles == 0.0


def test_fetch_queue_histogram_is_populated(stream_trace):
    result = _run(stream_trace.entries[:2000])
    assert result.fetch_queue_histogram
    assert all(0 <= occupancy <= SystemConfig().core.fetch_buffer_entries
               for occupancy in result.fetch_queue_histogram)


def test_core_config_scaling_and_smt_configs():
    base = CoreConfig()
    doubled = base.scaled(2.0)
    assert doubled.rob_entries == 2 * base.rob_entries
    assert doubled.fetch_width == 2 * base.fetch_width
    full = smt_full_core_config()
    half = sm_half_core_config()
    assert full.fetch_width == 16 and full.rob_entries == 512
    assert half.rob_entries == full.rob_entries // 2


def test_result_accumulate_merges_counters():
    a = CoreResult(cycles=10, committed=5, decoded=6, executed=6, branches=2)
    b = CoreResult(cycles=20, committed=7, decoded=8, executed=7, branches=3)
    a.accumulate(b)
    assert a.cycles == 30 and a.committed == 12 and a.branches == 5


def test_energy_model_tracks_activity(stream_trace):
    entries = stream_trace.entries[:2000]
    result = _run(entries)
    breakdown = EnergyModel().evaluate(result)
    assert breakdown.dynamic > 0 and breakdown.static > 0
    assert breakdown.total == pytest.approx(breakdown.dynamic + breakdown.static)
    assert breakdown.total_power > 0
    # A run with double the activity costs roughly double the dynamic energy.
    double = _run(stream_trace.entries[:4000])
    assert EnergyModel().evaluate(double).dynamic > 1.5 * breakdown.dynamic


def test_energy_params_dla_structures_add_static_power(stream_trace):
    result = _run(stream_trace.entries[:1000])
    plain = EnergyModel().evaluate(result)
    with_dla = EnergyModel().evaluate(result, includes_dla_structures=True)
    assert with_dla.static > plain.static


def test_warm_memory_system_populates_caches(stream_trace):
    shared = SharedMemorySystem()
    memory = CoreMemorySystem(shared, shared.config)
    warm_memory_system(memory, stream_trace.entries[:3000])
    assert memory.l1d.occupancy > 0
    assert memory.l1i.occupancy > 0
