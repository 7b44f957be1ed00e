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
from pathlib import Path

import pytest

from repro.core.compile import (
    FAST_PIPELINE_ENV,
    compiled_ticks_total,
    fast_pipeline_enabled,
    kernel_available,
)
from repro.core.compile.decoded import decoded_cache_stats
from repro.core.pipeline import OutOfOrderCore
from repro.core.results import InstructionTimings
from repro.core.system import simulate_baseline
from repro.dla.analytic import empirical_distributions
from repro.dla.config import DlaConfig
from repro.dla.profiling import profile_workload
from repro.dla.smt import simulate_smt_modes
from repro.dla.system import DlaSystem
from repro.emulator.trace import Trace
from repro.experiments.runner import ExperimentRunner

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


def test_profile_workload_compiled_matches_reference(monkeypatch):
    runner = ExperimentRunner(quick=True, disk_cache=False)
    for name in runner.workload_names:
        setup = runner.setup(name)
        training = Trace(setup.program, setup.warmup + setup.timed[:4000],
                         completed=False)

        def profile():
            return profile_workload(
                setup.program, training, runner.system_config,
                timing_window=min(6000, runner.warmup_instructions))

        _reference(monkeypatch)
        reference = profile()
        _fast(monkeypatch)
        compiled = profile()
        assert compiled.dispatch_to_execute, name
        assert compiled == reference, name


def test_profile_timing_pass_runs_compiled(prepared, monkeypatch):
    if not kernel_available():
        pytest.skip("no C compiler / kernel build failed: fast path inert")
    program, warmup, timed, _, config = prepared["branchy"]
    training = Trace(program, warmup + timed, completed=False)
    _fast(monkeypatch)
    before = compiled_ticks_total()
    profile_workload(program, training, config, run_timing=True,
                     timing_window=2000)
    assert compiled_ticks_total() - before >= 2000, \
        "the profiling timing pass fell back to the reference interpreter"


def test_timing_runs_do_not_retain_decoded_windows(prepared, monkeypatch):
    """One-shot profiling windows must not pin entries in the decode memo."""
    program, warmup, timed, _, config = prepared["stream"]
    training = Trace(program, warmup + timed, completed=False)
    _fast(monkeypatch)
    before = decoded_cache_stats()
    profile_workload(program, training, config, timing_window=2000)
    empirical_distributions(timed[:1500], config)
    assert decoded_cache_stats() == before
