"""Compiled tick pipeline: specialized-vs-reference equivalence.

The compiled kernel (``repro.core.compile``) is a pure performance change:
with the fast path enabled, every simulation statistic must be
*bit-identical* to what the interpreted reference loop in
:mod:`repro.core.pipeline` produces.  These tests run the same cell twice —
once with ``REPRO_FAST_PIPELINE=0`` forcing the reference interpreter, once
with the compiled path — and assert exact equality of the full compared
field set, for every golden section (``default``/``unbounded``/
``contended``), for a DLA co-simulation, and for an SMT pair.

The kill-switch is read per run, so the toggle round-trips within one
process; the ``compiled_ticks`` counter distinguishes a genuinely compiled
run from a silent interpreter fallback.

The capture helpers are imported from ``test_fast_path_equivalence`` (the
module the golden regen tool also uses), so the compared field set can
never drift between the golden pins and these A/B comparisons.
"""

from __future__ import annotations

import importlib.util
import json
import random
import zlib
from array import array
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.baselines import BFetchConfig, simulate_bfetch, simulate_cre
from repro.baselines.bfetch import bfetch_hooks
from repro.baselines.runahead import runahead_hooks
from repro.branch.predictors import make_predictor
from repro.core.compile import (
    FAST_PIPELINE_ENV,
    compiled_ticks_total,
    counters,
    fast_pipeline_enabled,
    kernel_available,
)
from repro.core.compile.decoded import decoded_cache_stats
from repro.core.compile.driver import T1_TABLE
from repro.core.compile.hookspec import (
    BFetchWalker,
    CommitLog,
    CompiledHookSpec,
    RunaheadTable,
)
from repro.core.compile.plan import plan_run
from repro.core.config import SystemConfig
from repro.core.pipeline import CoreHooks, OutOfOrderCore
from repro.core.results import InstructionTimings
from repro.core.system import (
    _replay_warmup,
    build_single_core,
    simulate_baseline,
    warm_memory_system,
)
from repro.dla.analytic import empirical_distributions
from repro.dla.config import DlaConfig
from repro.dla.profiling import profile_workload
from repro.dla.smt import simulate_smt_modes
from repro.dla.system import DlaSystem
from repro.emulator.machine import Emulator
from repro.emulator.trace import (
    HAS_EA,
    HAS_RESULT,
    IS_CONTROL,
    TAKEN,
    Trace,
    TraceColumns,
)
from repro.experiments.memsys_sweep import MEMSYS_MACHINES, machine_config
from repro.experiments.runner import ExperimentRunner
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.memory.cache import Cache
from repro.util.rng import DeterministicRng
from repro.workloads.kernels import build_kernel

_HARNESS_PATH = Path(__file__).resolve().parent / "test_fast_path_equivalence.py"


def _load_harness():
    spec = importlib.util.spec_from_file_location(
        "compiled_pipeline_harness", _HARNESS_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_harness = _load_harness()

#: One representative kernel per golden section: a branch-heavy kernel for
#: the stock machine, a pointer chase for the inert-MSHR machine, and the
#: store-heavy triad for the contended backend (the only section whose
#: write-buffer paths a store-free kernel would leave unpinned).
SECTION_KERNELS = {
    "default": "branchy",
    "unbounded": "chase",
    "contended": "triad",
}


@pytest.fixture(scope="module")
def prepared():
    return _harness.prepare_kernels()


def _reference(monkeypatch):
    monkeypatch.setenv(FAST_PIPELINE_ENV, "0")


def _fast(monkeypatch):
    monkeypatch.setenv(FAST_PIPELINE_ENV, "1")


# ---------------------------------------------------------------------------
# the kill-switch itself
# ---------------------------------------------------------------------------
def test_kill_switch_is_read_per_run(monkeypatch):
    _reference(monkeypatch)
    assert not fast_pipeline_enabled()
    _fast(monkeypatch)
    assert fast_pipeline_enabled()
    monkeypatch.delenv(FAST_PIPELINE_ENV)
    assert fast_pipeline_enabled()   # on by default


# ---------------------------------------------------------------------------
# baseline + DLA equivalence across the three golden sections
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("section", sorted(SECTION_KERNELS))
def test_baseline_compiled_matches_reference(prepared, monkeypatch, section):
    _, warmup, timed, _, _ = prepared[SECTION_KERNELS[section]]
    config = _harness.SYSTEM_PROFILES[section]()
    _reference(monkeypatch)
    reference = _harness.capture_baseline(timed, warmup, config)
    _fast(monkeypatch)
    compiled = _harness.capture_baseline(timed, warmup, config)
    assert compiled == reference


@pytest.mark.parametrize("section", sorted(SECTION_KERNELS))
@pytest.mark.parametrize("config_name", ["dla", "r3"])
def test_dla_compiled_matches_reference(prepared, monkeypatch, section, config_name):
    program, warmup, timed, profile, _ = prepared[SECTION_KERNELS[section]]
    config = _harness.SYSTEM_PROFILES[section]()
    dla_config = (
        DlaConfig().baseline_dla() if config_name == "dla" else DlaConfig().r3()
    )
    _reference(monkeypatch)
    reference = _harness.capture_dla(
        program, timed, warmup, profile, config, dla_config
    )
    _fast(monkeypatch)
    compiled = _harness.capture_dla(
        program, timed, warmup, profile, config, dla_config
    )
    assert compiled == reference


# ---------------------------------------------------------------------------
# SMT cell (shared memory system, halved core, back-to-back pair)
# ---------------------------------------------------------------------------
def test_smt_cell_compiled_matches_reference(prepared, monkeypatch):
    program, warmup, timed, profile, config = prepared["chase"]
    trace = _harness.Emulator(program).run(
        max_instructions=_harness.WARMUP + _harness.TIMED
    )
    _reference(monkeypatch)
    reference = simulate_smt_modes(program, trace, profile, config)
    _fast(monkeypatch)
    compiled = simulate_smt_modes(program, trace, profile, config)
    assert compiled.as_dict() == reference.as_dict()


# ---------------------------------------------------------------------------
# round-trip: off -> on -> off produces one result, ticks only move when on
# ---------------------------------------------------------------------------
def test_fast_pipeline_round_trip(prepared, monkeypatch):
    _, warmup, timed, _, config = prepared["branchy"]

    _reference(monkeypatch)
    before_off = compiled_ticks_total()
    first_off = _harness.capture_baseline(timed, warmup, config)
    assert compiled_ticks_total() == before_off, \
        "the kill-switch must keep the compiled kernel out of the run"

    _fast(monkeypatch)
    on = _harness.capture_baseline(timed, warmup, config)

    _reference(monkeypatch)
    second_off = _harness.capture_baseline(timed, warmup, config)

    assert first_off == on == second_off


def test_compiled_ticks_counter_advances(prepared, monkeypatch):
    if not kernel_available():
        pytest.skip("no C compiler / kernel build failed: fast path inert")
    _, warmup, timed, _, config = prepared["branchy"]
    _fast(monkeypatch)
    before = compiled_ticks_total()
    _harness.capture_baseline(timed, warmup, config)
    advanced = compiled_ticks_total() - before
    assert advanced >= len(timed), \
        "a compiled baseline run must retire the timed window via the kernel"


# ---------------------------------------------------------------------------
# per-instruction timing columns (collect_timings runs compiled)
# ---------------------------------------------------------------------------
def _assert_columns_equal(compiled, reference):
    assert compiled is not None and reference is not None
    assert len(compiled) == len(reference)
    for column in InstructionTimings.COLUMNS:
        assert getattr(compiled, column) == getattr(reference, column), column


@pytest.mark.parametrize("section", sorted(SECTION_KERNELS))
def test_baseline_timing_columns_match_reference(prepared, monkeypatch, section):
    _, warmup, timed, _, _ = prepared[SECTION_KERNELS[section]]
    config = _harness.SYSTEM_PROFILES[section]()

    def timings():
        return simulate_baseline(timed, config, warmup_entries=warmup,
                                 collect_timings=True).core.timings

    _reference(monkeypatch)
    reference = timings()
    _fast(monkeypatch)
    compiled = timings()
    assert len(compiled) == len(timed)
    _assert_columns_equal(compiled, reference)


def _dla_core_runs(monkeypatch, program, timed, warmup, profile, config):
    """Every core run of one R3-DLA cell, each forced to collect timings."""
    runs = []
    run = OutOfOrderCore.run

    def collecting_run(self, entries, hooks=None, start_cycle=0.0,
                       collect_timings=False):
        result = run(self, entries, hooks, start_cycle, True)
        runs.append(result)
        return result

    monkeypatch.setattr(OutOfOrderCore, "run", collecting_run)
    DlaSystem(program, config, DlaConfig().r3(), profile=profile).simulate(
        timed, warmup_entries=warmup)
    monkeypatch.setattr(OutOfOrderCore, "run", run)
    return runs


def test_dla_timing_columns_match_reference(prepared, monkeypatch):
    """Value hints pin the issue formula on its skip/correct/mispredict paths."""
    program, warmup, timed, profile, config = prepared["chase"]
    _reference(monkeypatch)
    reference = _dla_core_runs(monkeypatch, program, timed, warmup, profile,
                               config)
    _fast(monkeypatch)
    compiled = _dla_core_runs(monkeypatch, program, timed, warmup, profile,
                              config)
    main = [result for result in compiled if result.name == "main-thread"]
    assert sum(r.validations_skipped for r in main) > 0
    assert sum(r.value_predictions_used - r.value_mispredictions
               for r in main) > 0
    assert sum(r.value_mispredictions for r in main) > 0
    assert len(compiled) == len(reference)
    for ours, theirs in zip(compiled, reference):
        _assert_columns_equal(ours.timings, theirs.timings)


def _profile_form(profile):
    """A profile with every dict as its item list (insertion order is the
    first-execution order the skeleton builder iterates in), the loop set
    in its iteration order, and every number keeping its type."""
    return [list(profile.instruction_counts.items()),
            [(pc, vars(stats)) for pc, stats in profile.memory.items()],
            [(pc, vars(stats)) for pc, stats in profile.branches.items()],
            list(profile.dispatch_to_execute.items()),
            list(profile.dependents.items()),
            list(profile.loop_branch_pcs), profile.dynamic_instructions]


def _joined(*windows):
    """One trace (its own root) of the rows of consecutive ``windows``."""
    columns = TraceColumns.empty(windows[0].columns.seq0)
    for window in windows:
        for name in ("pc", "ea", "result", "flags", "next_pc"):
            getattr(columns, name).extend(getattr(window.columns, name))
    return Trace(windows[0].program, columns)


def test_profile_workload_compiled_matches_reference(monkeypatch):
    """The kernel's profiling passes leave the reference's profile, type-
    and order-strictly, over a training trace that runs on into the timed
    window and over the setup's own warm-up window."""
    runner = ExperimentRunner(quick=True, disk_cache=False)
    for name in runner.workload_names:
        setup = runner.setup(name)
        longer = _joined(setup.warmup_trace, setup.timed_trace.window(0, 4000))
        for training in (longer, setup.warmup_trace):

            def profile():
                return profile_workload(
                    setup.program, training, runner.system_config,
                    timing_window=min(6000, runner.warmup_instructions))

            _reference(monkeypatch)
            reference = profile()
            _fast(monkeypatch)
            profiled = counters()["native_profiled"]
            compiled = profile()
            assert compiled.dispatch_to_execute, name
            assert_identical(_profile_form(compiled), _profile_form(reference))
            if kernel_available():
                assert counters()["native_profiled"] - profiled == len(training)


@pytest.mark.parametrize("fast", [True, False], ids=["compiled", "reference"])
def test_profile_workload_of_an_empty_window(prepared, monkeypatch, fast):
    """An empty training window, or ``timing_window=0``, profiles to empty
    statistics: an empty timing run returns empty timings on both paths."""
    program, warmup, _, _, config = prepared["stream"]
    (_fast if fast else _reference)(monkeypatch)
    for empty in (Trace(program, TraceColumns.empty()), warmup.window(10, 0)):
        assert not len(empty)
        timings = OutOfOrderCore(config.core, build_single_core(config)[1]).run(
            empty, collect_timings=True).timings
        assert isinstance(timings, InstructionTimings) and not len(timings)
        profile = profile_workload(program, empty, config)
        assert _profile_form(profile) == [[], [], [], [], [], [], 0]
    untimed = profile_workload(program, warmup.window(0, 800), config,
                               timing_window=0)
    assert untimed.instruction_counts and untimed.dispatch_to_execute == {}


def _decoded_form(decoded):
    return {name: (value.typecode, list(value)) if isinstance(value, array)
            else value for name, value in vars(decoded).items()}


def _columns_form(columns):
    return [(column.typecode, list(column)) for column in (
        columns.pc, columns.ea, columns.result, columns.flags,
        columns.next_pc)] + [list(columns.seqs())]


def test_native_gather_and_selection_match_the_reference(monkeypatch):
    """On every quick workload's timed window and its default skeleton:
    the kernel's selection has the Python selection's columns (seqs
    included) and builds the filtered entries; its decode gather equals
    the reference gather."""
    from repro.core.compile.decoded import _gather, decode_trace, static_table

    if not kernel_available():
        pytest.skip("no C compiler / kernel build failed: nothing to compare")
    runner = ExperimentRunner(quick=True, disk_cache=False)
    for name in runner.workload_names:
        setup = runner.setup(name)
        window = setup.timed_trace
        pcs = DlaSystem(setup.program, runner.system_config,
                        profile=setup.profile).default_skeleton().included_pcs
        _reference(monkeypatch)
        reference = window.select(pcs)
        _fast(monkeypatch)
        selection = window.select(pcs)
        assert _columns_form(selection.columns) == _columns_form(
            reference.columns), name
        assert selection.entries == [e for e in window.entries
                                     if e.static.pc in pcs]
        for rows in (window, selection):
            assert _decoded_form(decode_trace(rows)) == _decoded_form(
                _gather(static_table(rows.program), rows.columns)), name


def test_profile_timing_pass_runs_compiled(prepared, monkeypatch):
    if not kernel_available():
        pytest.skip("no C compiler / kernel build failed: fast path inert")
    program, warmup, timed, _, config = prepared["branchy"]
    training = _joined(warmup, timed)
    _fast(monkeypatch)
    before = compiled_ticks_total()
    profile_workload(program, training, config, run_timing=True,
                     timing_window=2000)
    assert compiled_ticks_total() - before >= 2000, \
        "the profiling timing pass fell back to the reference interpreter"


def test_timing_runs_do_not_retain_decoded_windows(prepared, monkeypatch):
    """One-shot profiling windows must not pin rows in the decode memo."""
    program, warmup, timed, _, config = prepared["stream"]
    training = _joined(warmup, timed)
    _fast(monkeypatch)
    before = decoded_cache_stats()
    profile_workload(program, training, config, timing_window=2000)
    empirical_distributions(timed.window(0, 1500), config)
    assert decoded_cache_stats() == before


# ---------------------------------------------------------------------------
# native L1/TLB hit path: memory-hierarchy state, not just the counters
# ---------------------------------------------------------------------------
def assert_identical(compiled, reference):
    """Equal *and* of the same types throughout: ``==`` alone takes ``3``
    for ``3.0``, which the perfbench digests (``json.dumps`` of the stats)
    do not."""
    assert compiled == reference
    assert (json.dumps(compiled, sort_keys=True, default=repr)
            == json.dumps(reference, sort_keys=True, default=repr))


def _resource_view(resource):
    if resource is None:
        return None
    banks = getattr(resource, "_banks", [resource])
    return [bank.entries() for bank in banks]


def _cache_view(cache):
    # Item lists, not dicts: each set's order is its LRU tie-break order.
    return {"stats": dict(vars(cache.stats)),
            "lines": [list(lines.items()) for lines in cache.lines()],
            "mshr": _resource_view(cache._mshr),
            "write_buffer": _resource_view(cache._write_buffer)}


def _private_view(memory):
    return {
        "l1i": _cache_view(memory.l1i),
        "l1d": _cache_view(memory.l1d),
        "l2": _cache_view(memory.l2),
        "tlb": {"stats": dict(vars(memory.tlb.stats)),
                "entries": list(memory.tlb.entries().items())},
    }


def _dram_view(dram):
    return {"stats": dict(vars(dram.stats)),
            "open_rows": list(dram._open_rows),
            "bank_ready": list(dram._bank_ready),
            "energy": dram._dynamic_energy,
            "last_access": dram._last_access_cycle,
            "queues": [queue.entries() for queue in dram._queues or ()]}


def _bop_view(bop):
    if bop is None:
        return None
    rr = sorted(zip(bop._rr_blocks[:bop._rr_len], bop._rr_orders[:bop._rr_len]))
    return {"rr": rr, "scores": list(bop._scores),
            "scalars": [bop._rr_order, bop._test_index, bop._round_accesses,
                        bop._prefetch_on, bop._current_offset]}


def _t1_view(t1):
    """A T1 engine's stats and every slot array of its table."""
    if t1 is None:
        return None
    return {"stats": dict(vars(t1.stats)),
            "table": {name: list(getattr(t1, name)) for name in T1_TABLE}}


def _hierarchy_view(shared, privates):
    return {
        "l3": _cache_view(shared.l3),
        "dram": _dram_view(shared.dram),
        "private": [_private_view(memory) for memory in privates],
    }


def _dla_states(monkeypatch, run):
    """Every DLA ``_State`` ``run`` builds, and every look-ahead pass's
    prefetch-hint list."""
    states, hints = [], []
    fresh_state = DlaSystem._fresh_state
    lookahead_pass = DlaSystem._lookahead_pass

    def recording_state(self):
        state = fresh_state(self)
        states.append(state)
        return state

    def recording_pass(self, state, entries, skeleton):
        products, result = lookahead_pass(self, state, entries, skeleton)
        hints.append(list(products.prefetch_hints))
        return products, result

    monkeypatch.setattr(DlaSystem, "_fresh_state", recording_state)
    monkeypatch.setattr(DlaSystem, "_lookahead_pass", recording_pass)
    run()
    monkeypatch.setattr(DlaSystem, "_fresh_state", fresh_state)
    monkeypatch.setattr(DlaSystem, "_lookahead_pass", lookahead_pass)
    views = [(_hierarchy_view(state.shared, (state.mt_memory, state.lt_memory)),
              state.prefetch_hints_installed, _t1_view(state.t1))
             for state in states]
    return views, hints


#: Memory points of the state A/B tests: each golden section on its kernel,
#: and every memsys machine (stock caches, BOP on) on the store-heavy triad.
MEMORY_POINTS = sorted(SECTION_KERNELS) + [
    f"machine-{name}" for name, _ in MEMSYS_MACHINES]


#: DLA memory points whose main pass does not fit the kernel (an L1
#: prefetcher, a non-BOP L2 prefetcher): the interpreter carries it, next to
#: a look-ahead pass that fits unless it shares the L2 prefetcher.
UNFIT_POINTS = ["contended+l1_stride", "contended+l2_next_line"]


def _memory_point(prepared, point):
    """``(prepared kernel, SystemConfig)`` of one memory point."""
    if point in UNFIT_POINTS:
        kernel, config = _memory_point(prepared, "contended")
        if point.endswith("l1_stride"):
            return kernel, config.with_l1_stride()
        return kernel, replace(config, l2_prefetcher="next_line")
    if point.startswith("machine-"):
        knobs = dict(MEMSYS_MACHINES)[point[len("machine-"):]]
        return prepared["triad"], machine_config(SystemConfig(), knobs)
    return (prepared[SECTION_KERNELS[point]],
            _harness.SYSTEM_PROFILES[point]())


@pytest.mark.parametrize("section", MEMORY_POINTS)
def test_baseline_memory_state_matches_reference(prepared, monkeypatch, section):
    """Every stats field (with its type), every resident line in LRU order,
    the MSHRs, write buffers, DRAM and BOP state agree."""
    (_, warmup, timed, _, _), config = _memory_point(prepared, section)

    def view():
        shared, private, core = build_single_core(config)
        warm_memory_system(private, warmup)
        core.run(timed)
        return (_hierarchy_view(shared, (private,)),
                _bop_view(core.l2_prefetcher))

    _reference(monkeypatch)
    reference = view()
    _fast(monkeypatch)
    hits = counters()["native_mem_hits"]
    compiled = view()
    assert_identical(compiled, reference)
    assert reference[1] is not None
    if kernel_available():
        assert counters()["native_mem_hits"] > hits


@pytest.mark.parametrize("section", MEMORY_POINTS + UNFIT_POINTS)
@pytest.mark.parametrize("config_name", ["dla", "r3"])
def test_dla_memory_state_and_hints_match_reference(prepared, monkeypatch,
                                                     section, config_name):
    """Both cores' hierarchies (type-strict, see
    :func:`test_baseline_memory_state_matches_reference`), the look-ahead
    pass's load-miss log (its prefetch hints), the hints the main pass
    installed and T1's table and stats agree with the reference, whether
    the kernel or the interpreter carried each pass."""
    (program, warmup, timed, profile, _), config = _memory_point(prepared,
                                                                 section)
    dla_config = (
        DlaConfig().baseline_dla() if config_name == "dla" else DlaConfig().r3()
    )

    def run():
        DlaSystem(program, config, dla_config, profile=profile).simulate(
            timed, warmup_entries=warmup)

    _reference(monkeypatch)
    reference = _dla_states(monkeypatch, run)
    _fast(monkeypatch)
    stepped = counters()["native_t1_commits"]
    interpreted = counters()["interpreted_runs"]
    compiled = _dla_states(monkeypatch, run)
    if kernel_available():
        assert (counters()["interpreted_runs"] > interpreted) == (
            section in UNFIT_POINTS)
    if section.startswith("contended"):   # the shrunken L1D: hints exist
        assert any(hints for hints in reference[1])
        assert sum(installed for _, installed, _ in reference[0]) > 0
    if config_name == "r3" and program.name.endswith("triad"):
        # The triad's strided loads keep T1 busy: natively stepped when the
        # main pass fits the kernel.
        assert all(t1["stats"]["strides_confirmed"]
                   for _, _, t1 in reference[0])
        if kernel_available():
            native = counters()["native_t1_commits"] > stepped
            assert native == (section not in UNFIT_POINTS)
    assert_identical(compiled, reference)


def test_store_hits_on_clean_lines_match_reference(monkeypatch):
    """Read-modify-write buckets: a load brings each line in clean and the
    store then hits it, so the native store hit must set the dirty bit
    (and the writebacks it causes) exactly as ``Cache.lookup`` does."""
    program = build_kernel("histogram", samples=1500, buckets=2048,
                           rng=DeterministicRng(15), name="ab-histogram")
    trace = Emulator(program).run(max_instructions=9000)
    warmup, timed = trace.window(0, 3000), trace.window(3000, len(trace))
    config = _harness.SYSTEM_PROFILES["contended"]()

    def view():
        outcome = simulate_baseline(timed, config, warmup_entries=warmup)
        return _hierarchy_view(outcome.shared, (outcome.private,))

    _reference(monkeypatch)
    reference = view()
    _fast(monkeypatch)
    compiled = view()
    assert compiled == reference
    l1d = reference["private"][0]["l1d"]
    assert l1d["stats"]["writebacks"] > 0
    assert any(line[3] for lines in l1d["lines"] for _, line in lines)


@pytest.mark.parametrize("section", sorted(SECTION_KERNELS))
@pytest.mark.parametrize("kernel", ["branchy", "chase", "stream", "triad"])
def test_load_miss_log_matches_reference(prepared, monkeypatch, kernel,
                                         section):
    """Both engines fill a declared load-miss log identically: the issue
    cycle and trace index of every load missing the L1, in program order.
    A run declaring only the log fits the kernel."""
    _, warmup, timed, _, _ = prepared[kernel]
    config = _harness.SYSTEM_PROFILES[section]()

    def run():
        shared, private, core = build_single_core(config)
        warm_memory_system(private, warmup)
        misses = []
        hooks = CoreHooks(fast_hints=CompiledHookSpec(load_miss_log=misses))
        assert plan_run(core, hooks)
        core.run(timed, hooks=hooks)
        return misses, _hierarchy_view(shared, (private,))

    _reference(monkeypatch)
    reference = run()
    _fast(monkeypatch)
    ticks = compiled_ticks_total()
    compiled = run()
    if kernel_available():
        assert compiled_ticks_total() > ticks
    assert_identical(compiled, reference)
    indices = [index for _, index in reference[0]]
    assert indices == sorted(set(indices))
    assert all(timed[index].static.is_load for index in indices)
    # The chase's window stays in the L1 unless the caches shrink.
    assert indices or (kernel == "chase" and section != "contended")


def _assert_routed(monkeypatch, run, interpreted):
    """Run ``run()`` on the kill-switch, then with the kernel loaded: the
    interpreter carries ``interpreted`` runs of it (counted as
    ``counters()["interpreted_runs"]``), and both outcomes are identical,
    type-strictly.  Returns the reference outcome."""
    _reference(monkeypatch)
    reference = run()
    _fast(monkeypatch)
    before = counters()["interpreted_runs"]
    compiled = run()
    if kernel_available():
        assert counters()["interpreted_runs"] - before == interpreted
    assert_identical(compiled, reference)
    return reference


def test_lookahead_pass_keeps_fast_accessors(prepared, monkeypatch):
    """The look-ahead pass declares only its commit and load-miss logs, so
    it fits the kernel, and so does the R3 main pass; a generic memory
    hook does not fit."""
    from repro.core.compile import plan

    program, warmup, timed, profile, config = prepared["chase"]
    plans = {}
    original = plan.plan_run

    def recording_plan(core, hooks):
        plans[core.name] = fits = original(core, hooks)
        return fits

    monkeypatch.setattr(plan, "plan_run", recording_plan)
    _fast(monkeypatch)
    DlaSystem(program, config, DlaConfig().r3(), profile=profile).simulate(
        timed, warmup_entries=warmup)
    if not kernel_available():
        pytest.skip("no C compiler / kernel build failed: fast path inert")
    assert plans == {"look-ahead": True, "main-thread": True}
    assert not original(build_single_core(config)[2],
                        CoreHooks(on_memory_access=lambda *args: None))


@pytest.mark.parametrize("config_name", ["default", "l1_stride"])
def test_generic_memory_hook_matches_reference(prepared, monkeypatch,
                                               config_name):
    """A generic ``on_memory_access`` hook sends the run to the interpreter,
    and it observes the same access stream — every field of every
    AccessResult, and the cycle it is passed — as on the kill-switch, and
    the run leaves the same CoreResult and cache/TLB state."""
    _, warmup, timed, _, _ = prepared["triad"]
    config = (SystemConfig() if config_name == "default"
              else SystemConfig().with_l1_stride())

    def run():
        shared, private, core = build_single_core(config)
        warm_memory_system(private, warmup)
        seen = []

        def on_memory_access(entry, access, cycle):
            seen.append((entry.seq, access.ready_cycle, access.latency,
                         access.supplied_by, access.l1_miss,
                         access.dram_access, cycle))

        result = core.run(timed,
                          hooks=CoreHooks(on_memory_access=on_memory_access))
        return seen, asdict(result), _hierarchy_view(shared, (private,))

    reference = _assert_routed(monkeypatch, run, 1)
    seen = reference[0]
    stores = {entry.seq for entry in timed if entry.static.is_store}
    assert any(seq in stores for seq, *_ in seen)
    assert any(seq not in stores for seq, *_ in seen)
    if config_name == "default":
        assert {"l1", "l2", "dram"} <= {access[3] for access in seen}
    else:   # every access trains the stride prefetcher
        l1d = reference[2]["private"][0]["l1d"]
        assert l1d["stats"]["prefetches_issued"] > 0


def test_l1_prefetcher_config_keeps_data_hits_in_python(prepared, monkeypatch):
    """An L1 prefetcher observes every data access, which the kernel does
    not model: the run goes to the interpreter and stays bit-identical to
    the kill-switch run."""
    _, warmup, timed, _, _ = prepared["stream"]
    config = SystemConfig().with_l1_stride()
    assert not plan_run(build_single_core(config)[2], CoreHooks())

    def capture():
        outcome = simulate_baseline(timed, config, warmup_entries=warmup)
        return (asdict(outcome.core),
                _hierarchy_view(outcome.shared, (outcome.private,)))

    reference = _assert_routed(monkeypatch, capture, 1)
    assert reference[1]["private"][0]["l1d"]["stats"]["prefetches_issued"] > 0


def test_non_bop_l2_prefetcher_keeps_misses_in_python(prepared, monkeypatch):
    """The kernel trains only BOP: another L2 prefetcher sends the run to
    the interpreter, and it stays bit-identical to the kill-switch run."""
    _, warmup, timed, _, _ = prepared["stream"]
    config = replace(SystemConfig(), l2_prefetcher="next_line")
    assert not plan_run(build_single_core(config)[2], CoreHooks())

    def view():
        shared, private, core = build_single_core(config)
        warm_memory_system(private, warmup)
        return asdict(core.run(timed)), _hierarchy_view(shared, (private,))

    reference = _assert_routed(monkeypatch, view, 1)
    assert reference[1]["private"][0]["l2"]["stats"]["prefetches_issued"] > 0


class _SubclassedCache(Cache):
    """A :class:`Cache` subclass: stock behaviour, not the stock type."""


#: Single-core runs the kernel does not fit, beyond the prefetcher and
#: memory-hook cases above: another branch unit, a non-stock cache type
#: (whose warm-up replay also runs in Python), and an ``on_commit`` hook no
#: declared T1 engine covers.
@pytest.mark.parametrize("case", ["gshare_core", "cache_subclass",
                                  "commit_hook"])
def test_run_outside_the_kernel_goes_to_the_interpreter(prepared, monkeypatch,
                                                        case):
    """A run the kernel does not fit goes to the reference interpreter
    whole, and its result, hierarchy and BOP state (and the hook's calls)
    equal the kill-switch run's."""
    _, warmup, timed, _, _ = prepared["triad"]
    config = SystemConfig()
    if case == "gshare_core":
        config = config.with_overrides(branch_predictor="gshare")

    def run():
        shared, private, core = build_single_core(config)
        if case == "cache_subclass":
            private.l1d.__class__ = _SubclassedCache
        _replay_warmup(private, warmup)
        fired = []
        hooks = CoreHooks(on_commit=(lambda entry, cycle: fired.append(
            (entry.seq, cycle))) if case == "commit_hook" else None)
        assert not plan_run(core, hooks)
        result = core.run(timed, hooks=hooks)
        return (asdict(result), _hierarchy_view(shared, (private,)),
                _bop_view(core.l2_prefetcher), fired)

    reference = _assert_routed(monkeypatch, run, 1)
    assert reference[0]["l1d_misses"] and reference[0]["branches"]
    if case == "commit_hook":   # every commit, in order
        assert [seq for seq, _ in reference[3]] == [e.seq for e in timed]


@pytest.mark.parametrize("machine", [name for name, _ in MEMSYS_MACHINES])
def test_native_replay_matches_reference_replay(prepared, monkeypatch, machine):
    """Warm-up replay on the kernel leaves the exact state (lines, LRU
    order, stats, MSHRs, write buffers, DRAM) the reference loop leaves,
    on every memory-system machine; a look-ahead core warms after the
    main core, as in a DLA group."""
    _, warmup, _, _, _ = prepared["triad"]
    config = machine_config(SystemConfig(), dict(MEMSYS_MACHINES)[machine])

    def replay():
        from repro.memory.hierarchy import CoreMemorySystem

        shared, private, _ = build_single_core(config)
        lookahead = CoreMemorySystem(shared, config.memory, lookahead_mode=True)
        for memory in (private, lookahead):
            _replay_warmup(memory, warmup)
        return (_hierarchy_view(shared, (private, lookahead)),
                shared.snapshot_state(), private.snapshot_state(),
                lookahead.snapshot_state())

    _reference(monkeypatch)
    reference = replay()
    _fast(monkeypatch)
    hits = counters()["native_mem_hits"]
    compiled = replay()
    assert_identical(compiled, reference)
    if kernel_available():
        assert counters()["native_mem_hits"] > hits


def test_native_hits_counter_advances(prepared, monkeypatch):
    """Engagement guard: a BL run and a warm replay both serve hits natively
    and a cold warm replay serves its misses natively (a silent fallback to
    the Python accessors would keep these at 0)."""
    if not kernel_available():
        pytest.skip("no C compiler / kernel build failed: fast path inert")
    _, warmup, timed, _, config = prepared["branchy"]
    _fast(monkeypatch)
    shared, private, core = build_single_core(config)
    assert plan_run(core, CoreHooks())
    before = counters()["native_mem_hits"]
    misses = counters()["native_mem_misses"]
    _replay_warmup(private, warmup)
    replayed = counters()["native_mem_hits"]
    assert replayed > before, "warm replay served no hit natively"
    assert counters()["native_mem_misses"] > misses, "warm replay missed in Python"
    core.run(timed)
    assert counters()["native_mem_hits"] > replayed, "the BL run served no hit natively"


# ---------------------------------------------------------------------------
# native DLA hint unit under stress
# ---------------------------------------------------------------------------
#: Error rates and queue depths that make every hint-unit path fire: reboots
#: (and their FQ flushes), BOQ-capacity gating, FQ saturation, SIF disables.
STRESS = dict(risky_branch_error_rate=0.2, safe_branch_error_rate=0.02,
              value_error_rate=0.2, boq_entries=4, fq_entries=4)


def _stress_run(monkeypatch, run):
    """``run()``'s outcome plus every DLA state's queues, T1 and RNG, and
    every main pass's hint unit."""
    states, units = [], []
    fresh_state = DlaSystem._fresh_state
    main_pass = DlaSystem._main_pass

    def recording_state(self):
        state = fresh_state(self)
        states.append(state)
        return state

    def recording_pass(self, *args):
        result, hint_source = main_pass(self, *args)
        units.append(hint_source.unit)
        return result, hint_source

    monkeypatch.setattr(DlaSystem, "_fresh_state", recording_state)
    monkeypatch.setattr(DlaSystem, "_main_pass", recording_pass)
    outcome = run()
    monkeypatch.setattr(DlaSystem, "_fresh_state", fresh_state)
    monkeypatch.setattr(DlaSystem, "_main_pass", main_pass)
    views = [{
        "boq": vars(state.boq),
        "fq": vars(state.fq),
        "t1": _t1_view(state.t1),
        "rng": state.rng._rng.getstate(),
    } for state in states]
    return outcome, views, units


def _stencil():
    """A stencil window prepared as the golden kernels are: three strided
    loads, one more than a two-entry T1 table holds."""
    program = build_kernel("stencil", width=64, height=32, iterations=2,
                           payload=4, rng=DeterministicRng(16),
                           name="ab-stencil")
    trace = Emulator(program).run(max_instructions=7000)
    config = SystemConfig()
    profile = profile_workload(program, trace.window(0, 4000), config,
                               timing_window=2000)
    assert len(profile.strided_pcs()) == 3
    return (program, trace.window(0, 2000), trace.window(2000, 4000), profile,
            config)


@pytest.mark.parametrize("mode", ["dla", "r3", "static", "dynamic", "gshare",
                                  "r3-t1x2"])
def test_hint_unit_under_stress_matches_reference(prepared, monkeypatch, mode):
    """Compiled and interpreted runs agree on the whole outcome, the queue
    counters, T1 (stats and table) and the RNG stream's final state, with
    every hint-unit path exercised.  ``gshare`` (a branch unit the kernel
    does not transcribe) runs R3 on the interpreter, hint hooks and all;
    ``r3-t1x2`` shrinks T1 to two entries and runs a stencil, whose three
    strided loads then keep evicting each other."""
    from repro.dla.recycle import RecycleController, build_skeleton_versions

    # The triad has prefetch hints to saturate the FQ with, value targets
    # and strided loads for T1.
    program, warmup, timed, profile, config = (
        _stencil() if mode == "r3-t1x2" else prepared["triad"])
    base = DlaConfig().baseline_dla() if mode == "dla" else DlaConfig().r3()
    dla_config = replace(base, **STRESS)
    if mode == "r3-t1x2":
        dla_config = replace(dla_config, t1_entries=2)
    if mode == "gshare":
        config = config.with_overrides(branch_predictor="gshare")

    def run():
        system = DlaSystem(program, config, dla_config, profile=profile)
        if mode in ("dla", "r3", "gshare", "r3-t1x2"):
            return system.simulate(timed, warmup_entries=warmup)
        versions = build_skeleton_versions(system.builder, enable_t1=True)
        controller = RecycleController(versions, dla_config,
                                       profile.loop_branch_pcs)
        plan = controller.plan(system, timed, dynamic=mode == "dynamic")
        return (plan.chosen_versions, system.simulate_segmented(
            plan.segments, warmup_entries=warmup))

    _reference(monkeypatch)
    reference, reference_views, units = _stress_run(monkeypatch, run)
    _fast(monkeypatch)
    hinted = counters()["native_hint_branches"]
    stepped = counters()["native_t1_commits"]
    interpreted = counters()["interpreted_runs"]
    compiled, compiled_views, _ = _stress_run(monkeypatch, run)
    assert compiled == reference
    assert compiled_views == reference_views
    assert_identical([view["t1"] for view in compiled_views],
                     [view["t1"] for view in reference_views])
    if kernel_available():
        native = mode != "gshare"
        assert (counters()["native_hint_branches"] > hinted) == native
        assert (counters()["interpreted_runs"] == interpreted) == native
        assert (counters()["native_t1_commits"] > stepped) == (mode not in (
            "dla", "gshare"))

    # Every path fired on the reference side.
    assert sum(unit.reboots for unit in units) > 0
    assert any(len(unit.branch_seqs) > STRESS["boq_entries"] for unit in units)
    assert any(unit.fq_prefetches + unit.fq_values < unit.prefetch_cursor
               + unit.value_verdicts.count(1) + unit.value_verdicts.count(2)
               for unit in units)
    if mode != "dla":
        assert any(unit.value_verdicts.count(0) for unit in units)
    if mode == "r3-t1x2":
        t1 = reference_views[0]["t1"]
        assert t1["stats"]["entries_allocated"] > 2   # evictions


# ---------------------------------------------------------------------------
# native memory hierarchy: differential test over generated access streams
# ---------------------------------------------------------------------------
def _access_stream(name: str, count: int):
    """A seeded ``(ba, flags, ea)`` stream mixing I-fetches, loads, stores
    (some training the L2 prefetcher), L1/L2 prefetches and TLB prefills
    over a hot set, strided runs and a region larger than every level."""
    from repro.core.compile.decoded import F_LOAD, F_STORE
    from repro.core.compile.driver import R_PF_L1, R_PF_L2, R_PREFILL, R_TRAIN

    rng = random.Random(zlib.crc32(name.encode()))
    ba, flags, ea = array("q"), array("q"), array("q")
    pc, stride_base = 0x1000, 0x200000
    for k in range(count):
        if rng.random() < 0.2:
            pc = 0x1000 + 64 * rng.randrange(1024)
        roll = rng.random()
        if roll < 0.3:
            address = 0x100000 + 64 * rng.randrange(48)           # hot set
        elif roll < 0.6:
            address = stride_base + 64 * (k % 512) * 3           # strided
        else:
            address = 0x400000 + 8 * rng.randrange(1 << 17)      # 1 MB
        op = rng.random()
        if op < 0.45:
            f = F_LOAD | (R_TRAIN if rng.random() < 0.7 else 0)
        elif op < 0.7:
            f = F_STORE | (R_TRAIN if rng.random() < 0.7 else 0)
        elif op < 0.8:
            f = R_PF_L1
        elif op < 0.9:
            f = R_PF_L2
        elif op < 0.95:
            f = R_PREFILL
        else:
            f = 0                                                # fetch only
        ba.append(pc)
        flags.append(f)
        ea.append(address)
    return ba, flags, ea


def _python_stream(memory, core, ba, flags, ea, pace):
    """The reference: the kernel replay loop over the Python accessors."""
    from repro.core.compile.decoded import F_LOAD, F_STORE
    from repro.core.compile.driver import R_PF_L1, R_PF_L2, R_PREFILL, R_TRAIN

    block = memory.config.l1i.block_bytes
    cycle, last_block = 0, None
    for address, f, data in zip(ba, flags, ea):
        if address // block != last_block:
            last_block = address // block
            memory.access_inst_fast(address, cycle)
        if f & (F_LOAD | F_STORE):
            _, info = memory.access_data_fast(data, cycle, not f & F_LOAD)
            if f & R_TRAIN:
                core._run_prefetchers(0, data, info, cycle)
        if f & R_PF_L1:
            memory.prefetch(data, cycle, level="l1")
        if f & R_PF_L2:
            memory.prefetch(data, cycle, level="l2")
        if f & R_PREFILL:
            memory.prefill_tlb(data, cycle)
        cycle += pace


def _shrunk(config):
    """``config`` with small data-side caches, so short streams evict,
    write back and fill the write buffers at every level."""
    memory = replace(
        config.memory,
        l1d=replace(config.memory.l1d, size_bytes=2 * 1024),
        l2=replace(config.memory.l2, size_bytes=8 * 1024),
        l3=replace(config.memory.l3, size_bytes=64 * 1024),
    )
    return replace(config, memory=memory)


@pytest.mark.parametrize("lookahead", [False, True], ids=["main", "lookahead"])
@pytest.mark.parametrize("machine", [name for name, _ in MEMSYS_MACHINES])
def test_native_memory_matches_python_on_access_streams(monkeypatch, machine,
                                                        lookahead):
    """Every memory operation the kernel runs natively — demand accesses,
    BOP training, L1/L2 prefetches, TLB prefills — leaves the exact state
    the Python accessors leave, checked type-strictly after every chunk of
    a generated stream, on every memsys machine (data-side caches shrunk)
    and in main and look-ahead mode."""
    if not kernel_available():
        pytest.skip("no C compiler / kernel build failed: fast path inert")
    from repro.core.compile.build import load_kernel
    from repro.core.compile.driver import replay_warmup
    from repro.memory.hierarchy import CoreMemorySystem

    _fast(monkeypatch)
    config = _shrunk(machine_config(SystemConfig(),
                                    dict(MEMSYS_MACHINES)[machine]))
    ba, flags, ea = _access_stream(f"stream-{machine}-{lookahead}", 1800)

    def build():
        shared, private, core = build_single_core(config)
        if lookahead:
            private = CoreMemorySystem(shared, config.memory,
                                       lookahead_mode=True)
            core.memory = private
        return shared, private, core

    native, python = build(), build()
    misses = counters()["native_mem_misses"]
    for lo in range(0, len(ba), 600):
        chunk = (ba[lo:lo + 600], flags[lo:lo + 600], ea[lo:lo + 600])
        replay_warmup(load_kernel(), native[1], chunk, 1,
                      l2_prefetcher=native[2].l2_prefetcher)
        _python_stream(python[1], python[2], *chunk, pace=1)
        assert_identical(
            (_hierarchy_view(native[0], (native[1],)),
             _bop_view(native[2].l2_prefetcher)),
            (_hierarchy_view(python[0], (python[1],)),
             _bop_view(python[2].l2_prefetcher)))
    assert counters()["native_mem_misses"] > misses
    # The stream reaches every level and its write-back machinery.
    stats = python[0].l3.stats
    assert stats.misses and python[0].dram.stats.reads
    assert python[1].tlb.stats.misses and python[1].tlb.stats.prefills
    if not lookahead:
        assert python[1].l1d.stats.writebacks and python[1].l2.stats.writebacks


# ---------------------------------------------------------------------------
# native hint verdict draws: differential test over generated streams
# ---------------------------------------------------------------------------
def _hint_source(products, dla_config, risky, biased, direction, rng):
    from repro.dla.hints import MainThreadHintSource
    from repro.dla.queues import BranchOutcomeQueue, FootnoteQueue
    from repro.memory.hierarchy import CoreMemorySystem, SharedMemorySystem

    shared = SharedMemorySystem()
    return MainThreadHintSource(
        products, dla_config, CoreMemorySystem(shared, shared.config),
        BranchOutcomeQueue(dla_config.boq_entries),
        FootnoteQueue(dla_config.fq_entries), risky, biased, direction,
        rng=rng)


@pytest.mark.parametrize("stream", range(6))
def test_native_verdict_draws_match_python(prepared, monkeypatch, stream):
    """``draw_verdicts`` draws every branch and value verdict, and leaves
    the generator, exactly as the Python ``_draw`` does, on CRC-32-seeded
    streams over two kernels' windows: random value-target PCs, risky and
    biased branch PCs (biased ones with and without a recorded
    direction), error rates, and a generator advanced to an arbitrary
    point of its 624-word block."""
    from repro.core.compile.hookspec import VALUE_NONE
    from repro.dla.hints import LookaheadProducts

    rng = random.Random(zlib.crc32(f"draws-{stream}".encode()))
    window = prepared[("branchy", "stream")[stream % 2]][2]
    entries = window.entries
    pcs = sorted({entry.static.pc for entry in entries})
    branch_pcs = sorted({entry.static.pc for entry in entries
                         if entry.static.is_branch})
    value_pcs = tuple(sorted(rng.sample(pcs, max(1, len(pcs) // 3))))
    commits = CommitLog(pcs=value_pcs)
    commits.fill(entries, [0.0] * len(entries))
    risky = set(rng.sample(branch_pcs, len(branch_pcs) // 2))
    # Biased PCs include one whose outcomes differ, so some outcome goes
    # against its bias whatever the direction.
    outcomes = {}
    for entry in entries:
        if entry.static.is_branch:
            outcomes.setdefault(entry.static.pc, set()).add(bool(entry.taken))
    mixed = [pc for pc in branch_pcs if len(outcomes[pc]) == 2]
    biased = {rng.choice(mixed), *rng.sample(branch_pcs, len(branch_pcs) // 2)}
    direction = {pc: rng.random() < 0.5 for pc in biased if rng.random() < 0.7}
    dla_config = replace(
        DlaConfig().r3(), safe_branch_error_rate=rng.uniform(0.02, 0.3),
        risky_branch_error_rate=rng.uniform(0.3, 0.7),
        value_error_rate=rng.uniform(0.05, 0.4))
    skip = rng.randrange(2000)

    def draw():
        generator = DeterministicRng(stream)
        for _ in range(skip):
            generator.random()
        products = LookaheadProducts(window, commits, [])
        unit = _hint_source(products, dla_config, risky, biased, direction,
                            generator).unit
        return ((unit.branch_seqs, unit.branch_correct, unit.value_seqs,
                 unit.value_verdicts), generator.getstate())

    _reference(monkeypatch)
    reference = draw()
    _fast(monkeypatch)
    draws = counters()["native_verdict_draws"]
    compiled = draw()
    assert_identical(compiled, reference)
    if kernel_available():
        assert counters()["native_verdict_draws"] > draws
    # The stream reaches every rule: branches and values, SIF disables,
    # and biased branches whose outcome went against the bias.
    branch_seqs, branch_correct, value_seqs, verdicts = reference[0]
    assert len(branch_seqs) and len(value_seqs)
    assert verdicts.count(VALUE_NONE)
    by_seq = {entry.seq: entry for entry in entries}
    assert any(by_seq[seq].static.pc in biased
               and bool(by_seq[seq].taken) != direction.get(
                   by_seq[seq].static.pc, True)
               for seq in branch_seqs)


# ---------------------------------------------------------------------------
# native T1: differential test over a hand-built commit stream
# ---------------------------------------------------------------------------
#: The stream's statics: a chain of eight dependent 12-cycle divides, then
#: one load at a marked PC (8, 9 or 10) whose address the stream chooses.
#: Once the loads run ahead of the chain, each load commits just after the
#: chain's last divide: T1 sees commits exactly 96 cycles apart.
_CHAIN = [Instruction(pc=k, opcode=Opcode.DIV, dst=1, srcs=(1, 2))
          for k in range(8)]
_LOADS = {pc: Instruction(pc=pc, opcode=Opcode.LOAD, dst=3, srcs=(4,))
          for pc in (8, 9, 10)}
_T1_PROGRAM = Program(_CHAIN + list(_LOADS.values()))


def _hand_trace(program, rows):
    """A trace over ``program`` of hand-built ``(pc, address, taken)``
    rows (``None`` where the row has none); every row writes 0 and falls
    through to ``pc + 1``."""
    columns = TraceColumns.empty()
    for pc, address, taken in rows:
        columns.pc.append(pc)
        columns.ea.append(address or 0)
        columns.result.append(0)
        columns.flags.append(
            HAS_RESULT | (0 if address is None else HAS_EA)
            | (0 if taken is None else IS_CONTROL | (TAKEN if taken else 0)))
        columns.next_pc.append(pc + 1)
    return Trace(program, columns)


def _t1_stream(loads):
    """The trace of one chunk: one chain per ``(pc, address)`` load."""
    return _hand_trace(_T1_PROGRAM, [
        row for pc, address in loads
        for row in [(static.pc, None, None) for static in _CHAIN]
        + [(pc, address, None)]])


def _strided(pc, start, stride, count):
    return [(pc, start + k * stride) for k in range(count)]


def test_native_t1_matches_python_on_commit_streams(monkeypatch):
    """The kernel's T1 leaves the table, stats and memory hierarchy the
    Python engine leaves, checked type-strictly after every chunk of a
    stream through a two-entry table: stride resets (transient and
    steady), negative strides, prefetch targets below 0, evictions whose
    ``last_use`` ties break by allocation order (a re-allocated PC last,
    whatever its slot), and a smoothed interval of exactly 96 cycles,
    whose distance 240 / 96 = 2.5 rounds half to even, to 2."""
    if not kernel_available():
        pytest.skip("no C compiler / kernel build failed: fast path inert")
    from repro.dla.t1 import STEADY, T1Config, T1PrefetchEngine

    irregular = [(8, address) for address in (0x9000, 0x2000, 0x7740,
                                              0x40, 0x5500)]
    chunks = [
        # Transient resets, then a steady state at exactly 96 cycles.
        irregular + _strided(8, 0x20000, 64, 12),
        # A reset out of it, then a negative stride running its prefetch
        # targets below 0.
        _strided(8, 11 * 64, -64, 12),
        # (9 and 8 tie on last use: 10 evicts 8, allocated first.)
        _strided(10, 0x40000, 128, 10),
        # (10 and 9 tie: 8 evicts 9 although 10 holds slot 0.)
        _strided(8, 0x60000, -192, 10),
        # Three PCs through two entries: every allocation evicts.
        [load for k in range(8) for load in ((8, 0x80000 + 64 * k),
                                             (9, 0x90000 + 64 * k),
                                             (10, 0xA0000 + 64 * k))],
    ]
    #: Before chunk k: the PCs both engines commit at one cycle (tying
    #: their last use), and the victim the chunk's first allocation takes.
    ties = {2: ((9, 8), 8), 3: ((9, 10), 9)}
    config = SystemConfig()

    def side():
        shared, private, core = build_single_core(config)
        engine = T1PrefetchEngine((8, 9, 10), private, T1Config(entries=2))

        def on_commit(entry, cycle):
            if entry.static.is_load:
                engine.on_commit(entry.static.pc, entry.effective_address,
                                 cycle)

        hooks = CoreHooks(on_commit=on_commit,
                          fast_hints=CompiledHookSpec(t1=engine))
        return shared, private, core, engine, hooks

    native, python = side(), side()
    assert plan_run(native[2], native[4])
    start, stepped = 0.0, counters()["native_t1_commits"]
    for index, loads in enumerate(chunks):
        entries = _t1_stream(loads)
        for pc in ties.get(index, ((), None))[0]:
            for engine in (native[3], python[3]):
                engine.on_commit(pc, 0x100000 + 64 * pc, start)
        allocated = python[3].stats.entries_allocated
        _fast(monkeypatch)
        native[2].run(entries, hooks=native[4], start_cycle=start)
        _reference(monkeypatch)
        start += python[2].run(entries, hooks=python[4],
                               start_cycle=start).cycles
        assert_identical(
            (_t1_view(native[3]), _hierarchy_view(native[0], (native[1],))),
            (_t1_view(python[3]), _hierarchy_view(python[0], (python[1],))))
        engine = python[3]
        k = engine._slot(8)
        if index == 0:
            assert engine.stats.strides_confirmed == 1
            assert (engine._state[k], engine._stride[k]) == (STEADY, 64)
            assert (engine._interval[k], engine._distance[k]) == (96.0, 2)
        if index == 1:
            assert engine.stats.strides_confirmed == 2
            assert engine.stats.entries_reset == 1
            assert (engine._state[k], engine._stride[k]) == (STEADY, -64)
        if index in ties:
            assert engine._slot(ties[index][1]) is None
        if index == 4:   # every load but the first (8, resident) allocates
            assert engine.stats.entries_allocated - allocated == len(loads) - 1
    assert counters()["native_t1_commits"] - stepped == sum(map(len, chunks))


@pytest.mark.parametrize("seed", range(4))
def test_native_verdict_draws_form_floats_like_random(prepared, monkeypatch,
                                                      seed):
    """A draw is ``random() < rate``: with the rate at the generator's next
    ``random()`` value ``x``, or one ulp above it, the first draw is on a
    knife edge that any other 53-bit float formation tips over."""
    import math

    from repro.dla.hints import LookaheadProducts

    window = prepared["branchy"][2]
    entries = window.entries
    commits = CommitLog(pcs=tuple(sorted({e.static.pc for e in entries})))
    commits.fill(entries, [0.0] * len(entries))
    commits.branch_index, commits.branch_times = array("q"), array("d")
    edge = DeterministicRng(seed).random()
    for rate in (edge, math.nextafter(edge, 1.0)):
        dla_config = replace(DlaConfig().r3(), value_error_rate=rate)

        def first_verdict():
            products = LookaheadProducts(window, commits, [])
            return _hint_source(products, dla_config, set(), set(), {},
                                DeterministicRng(seed)).unit.value_verdicts[0]

        _reference(monkeypatch)
        reference = first_verdict()
        _fast(monkeypatch)
        assert first_verdict() == reference


# ---------------------------------------------------------------------------
# native B-Fetch walker and CRE table (fig09's related approaches)
# ---------------------------------------------------------------------------
def _predictor_view(predictor):
    """Every field of a direction predictor, its arrays as lists."""
    return {name: (list(value) if isinstance(value, (array, list))
                   else _predictor_view(value) if hasattr(value, "__dict__")
                   else value)
            for name, value in vars(predictor).items()}


def _walker_view(walker):
    """A B-Fetch walker's predictor tables, confidence and stride table."""
    return {"predictor": _predictor_view(walker.predictor),
            **{name: list(getattr(walker, name)) for name in (
                "confidence", "has_address", "last_address", "last_stride")}}


def _runahead_view(table):
    """A CRE table's columns and its ``seen`` counters."""
    return {name: list(getattr(table, name)) for name in (
        "eligible", "lead", "offset", "count", "future", "seen")}


def _related_state(monkeypatch, simulate):
    """Everything one related-approach run leaves: its CoreResult, energy,
    traffic and memsys telemetry, the cache/TLB/DRAM/BOP state, and the
    model's own state (the declaration its hooks carried)."""
    declared = []
    core_run = OutOfOrderCore.run

    def recording_run(self, entries, hooks=None, **kwargs):
        declared.append((self, hooks.fast_hints))
        return core_run(self, entries, hooks=hooks, **kwargs)

    monkeypatch.setattr(OutOfOrderCore, "run", recording_run)
    outcome = simulate()
    monkeypatch.setattr(OutOfOrderCore, "run", core_run)
    (core, fast), = declared
    model = (_walker_view(fast.bfetch) if fast.bfetch is not None
             else _runahead_view(fast.runahead))
    # Field dicts: json.dumps then sorts the fetch-queue histogram, whose
    # insertion order the two paths do not share.
    return {"core": asdict(outcome.core), "energy": asdict(outcome.energy),
            "traffic": outcome.memory_traffic,
            "dram_energy": outcome.dram_energy,
            "memsys": {**outcome.private.memsys_telemetry(),
                       **outcome.shared.memsys_telemetry()},
            "hierarchy": _hierarchy_view(outcome.shared, (outcome.private,)),
            "bop": _bop_view(core.l2_prefetcher), "model": model}


def _related_simulation(model, prepared_kernel, config, bfetch=None):
    program, warmup, timed, profile, _ = prepared_kernel
    if model == "bfetch":
        return lambda: simulate_bfetch(timed, config, bfetch,
                                       warmup_entries=warmup)
    return lambda: simulate_cre(program, timed, profile, config,
                                warmup_entries=warmup)


@pytest.mark.parametrize("section", sorted(_harness.SYSTEM_PROFILES))
@pytest.mark.parametrize("kernel", ["branchy", "chase", "stream", "triad"])
@pytest.mark.parametrize("model", ["bfetch", "cre"])
def test_related_approach_compiled_matches_reference(prepared, monkeypatch,
                                                     model, kernel, section):
    """B-Fetch and CRE compiled (the kernel stepping the walker or table)
    against the reference interpreter running their Python hooks:
    type-strict equality of the run, the hierarchy and the model state,
    and the kernel stepped the model at every fetch / eligible load."""
    simulate = _related_simulation(model, prepared[kernel],
                                   _harness.SYSTEM_PROFILES[section]())
    _reference(monkeypatch)
    reference = _related_state(monkeypatch, simulate)
    _fast(monkeypatch)
    fetches, steps = counters()["native_bfetch_fetches"], counters()["native_cre_steps"]
    compiled = _related_state(monkeypatch, simulate)
    assert_identical(compiled, reference)
    if model == "cre":
        assert sum(reference["model"]["seen"]) > 0
    if kernel_available():
        stepped = ((counters()["native_bfetch_fetches"] - fetches,
                    counters()["native_cre_steps"] - steps))
        assert stepped == ((len(prepared[kernel][2]), 0) if model == "bfetch"
                           else (0, sum(reference["model"]["seen"])))


@pytest.mark.parametrize("model, route", [("bfetch", "gshare_walker"),
                                          ("bfetch", "l1_stride"),
                                          ("cre", "l1_stride")])
def test_related_approach_off_the_native_path_keeps_callbacks(
        prepared, monkeypatch, model, route):
    """A walker predicting with gshare, or an L1 stride prefetcher, does not
    fit the kernel: the run goes to the interpreter, which runs the model's
    Python hook, and still matches the kill-switch run."""
    config = (SystemConfig().with_l1_stride() if route == "l1_stride"
              else SystemConfig())
    bfetch = BFetchConfig(predictor="gshare") if route == "gshare_walker" else None
    simulate = _related_simulation(model, prepared["triad"], config, bfetch)
    _, private, core = build_single_core(config)
    if model == "bfetch":
        predictor = make_predictor(bfetch.predictor if bfetch else "tage")
        hooks = bfetch_hooks(BFetchWalker.fresh(predictor, private, 8, 4, 1))
    else:
        hooks = runahead_hooks(RunaheadTable.fresh(private, 1))
    assert not plan_run(core, hooks)
    fetches, steps = counters()["native_bfetch_fetches"], counters()["native_cre_steps"]
    reference = _assert_routed(
        monkeypatch, lambda: _related_state(monkeypatch, simulate), 1)
    assert (counters()["native_bfetch_fetches"], counters()["native_cre_steps"]) == (
        fetches, steps)
    if model == "cre":
        assert sum(reference["model"]["seen"]) > 0


#: The hand-built streams' statics: a conditional branch, three loads and a
#: filler add.
_BRANCH = Instruction(pc=0, opcode=Opcode.BNEZ, srcs=(5,), target=1)
_STREAM_LOADS = [Instruction(pc=pc, opcode=Opcode.LOAD, dst=3, srcs=(4,))
                 for pc in (1, 2, 3)]
_FILLER = Instruction(pc=4, opcode=Opcode.ADD, dst=6, srcs=(6, 7))
_STREAM_PROGRAM = Program([_BRANCH, *_STREAM_LOADS, _FILLER])


def _fetch_stream(items):
    """The trace of ``items``: ``True``/``False`` is the branch taken or
    not, ``(pc, address)`` a load, and a filler add follows each item."""
    return _hand_trace(_STREAM_PROGRAM, [
        row for item in items
        for row in ((_BRANCH.pc, None, item) if isinstance(item, bool)
                    else (*item, None), (_FILLER.pc, None, None))])


def _loop(pc, start, stride, count, taken=True):
    """``count`` iterations of a branch then a strided load."""
    return [item for k in range(count)
            for item in (taken, (pc, start + k * stride))]


def _recording(memory):
    """Record every L1 prefetch target ``memory`` is asked for (BOP's go
    to the L2)."""
    targets = []
    prefetch = memory.prefetch

    def recording_prefetch(address, now, level="l1"):
        if level == "l1":
            targets.append(address)
        return prefetch(address, now, level=level)

    memory.prefetch = recording_prefetch
    return targets


def test_native_bfetch_matches_python_on_fetch_streams(monkeypatch):
    """The kernel's B-Fetch walker leaves the walker (TAGE tables,
    confidence, stride table) and the hierarchy the Python hook leaves,
    checked type-strictly after every chunk of a hand-built stream: a
    confident path whose reach ``1 + confidence // 2`` is capped by the
    distance, a negative stride whose prefetch targets run below 0, a
    mispredicted branch resetting the confidence (the strided loads after
    it prefetch nothing), and the climb back."""
    if not kernel_available():
        pytest.skip("no C compiler / kernel build failed: fast path inert")
    distance = 3
    chunks = [
        _loop(1, 0x40000, 4096, 12),
        _loop(2, 11 * 4096, -4096, 12),
        [False, (1, 0x40000 + 12 * 4096), (1, 0x40000 + 13 * 4096)],
        _loop(1, 0x40000 + 14 * 4096, 4096, 3),
    ]
    config = SystemConfig()

    def side():
        shared, private, core = build_single_core(config)
        walker = BFetchWalker.fresh(make_predictor("tage"), private, 8,
                                    distance, 5)
        return shared, private, core, walker, bfetch_hooks(walker)

    native, python = side(), side()
    assert plan_run(native[2], native[4])
    targets = _recording(python[1])
    on_fetch = python[4].on_fetch
    #: Per load fetched on the Python side: (address, its prefetch targets).
    issued = []

    def recording_fetch(entry, cycle):
        before = len(targets)
        on_fetch(entry, cycle)
        if entry.static.is_load:
            issued.append((entry.effective_address, targets[before:]))

    python[4].on_fetch = recording_fetch
    start, fetched = 0.0, counters()["native_bfetch_fetches"]
    for index, items in enumerate(chunks):
        entries = _fetch_stream(items)
        issued.clear()
        _fast(monkeypatch)
        native[2].run(entries, hooks=native[4], start_cycle=start)
        _reference(monkeypatch)
        start += python[2].run(entries, hooks=python[4],
                               start_cycle=start).cycles
        assert_identical(
            (_walker_view(native[3]), _hierarchy_view(native[0], (native[1],))),
            (_walker_view(python[3]), _hierarchy_view(python[0], (python[1],))))
        walker = python[3]
        reaches = {len(pf) for _, pf in issued}
        if index in (0, 1):   # confidence at its cap of 8: reach 5, capped
            assert walker.confidence[0] == 8 and 1 + 8 // 2 > distance
            assert max(reaches) == distance
            stride = 4096 if index == 0 else -4096
            for address, pf in issued:
                assert pf == [address + step * stride
                              for step in range(1, len(pf) + 1)]
        if index == 1:
            assert min(target for _, pf in issued for target in pf) < 0
        if index == 2:        # the not-taken branch mispredicted
            assert walker.confidence[0] == 0 and reaches == {0}
            assert walker.last_stride[1] == 4096
        if index == 3:
            assert walker.confidence[0] == 3 and reaches == {0, 2}
    assert counters()["native_bfetch_fetches"] - fetched == 2 * sum(map(len, chunks))


def test_native_cre_matches_python_on_load_streams(monkeypatch):
    """The kernel's CRE table leaves ``seen`` and the hierarchy the Python
    hook leaves, on a hand-built stream: an independent load (lead 12) and
    a dependent one (lead 1) both run past their future columns, and an
    ineligible load never steps."""
    if not kernel_available():
        pytest.skip("no C compiler / kernel build failed: fast path inert")
    count = 20
    future = {1: [0x10000 + 4096 * k for k in range(count)],
              2: [0x80000 + 192 * (k * 7 % count) for k in range(count)]}
    leads = {1: 12, 2: 1}
    entries = _fetch_stream([
        item for k in range(count)
        for item in ((1, future[1][k]), (2, future[2][k]), (3, 0x200 * k))])
    config = SystemConfig()

    def side():
        shared, private, core = build_single_core(config)
        table = RunaheadTable.fresh(private, 5)
        for pc in (1, 2):
            table.eligible[pc] = 1
            table.lead[pc] = leads[pc]
            table.offset[pc] = len(table.future)
            table.count[pc] = count
            table.future.extend(future[pc])
        return shared, private, core, table, runahead_hooks(table)

    native, python = side(), side()
    assert plan_run(native[2], native[4])
    targets = _recording(python[1])
    steps = counters()["native_cre_steps"]
    _fast(monkeypatch)
    native[2].run(entries, hooks=native[4])
    _reference(monkeypatch)
    python[2].run(entries, hooks=python[4])
    assert_identical(
        (_runahead_view(native[3]), _hierarchy_view(native[0], (native[1],))),
        (_runahead_view(python[3]), _hierarchy_view(python[0], (python[1],))))
    assert list(python[3].seen) == [0, count, count, 0, 0]
    expected = {pc: future[pc][leads[pc]:] for pc in (1, 2)}
    assert sorted(targets) == sorted(expected[1] + expected[2])
    assert counters()["native_cre_steps"] - steps == 2 * count
