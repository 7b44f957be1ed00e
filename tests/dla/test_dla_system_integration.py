"""Integration tests for the coupled DLA system, comparators and experiments."""

import pytest

from repro.baselines import simulate_bfetch, simulate_cre, simulate_slipstream
from repro.core.config import SystemConfig
from repro.core.system import simulate_baseline
from repro.dla.config import DlaConfig
from repro.dla.recycle import RecycleController, build_skeleton_versions
from repro.dla.smt import simulate_smt_modes
from repro.dla.system import DlaSystem


WARM = 4000
TIMED = 5000


def _windows(trace):
    return trace.window(0, WARM), trace.window(WARM, TIMED)


@pytest.fixture(scope="module")
def stream_setup(small_stream_program, stream_trace, stream_profile):
    warm, timed = _windows(stream_trace)
    baseline = simulate_baseline(timed, SystemConfig(), warmup_entries=warm)
    return small_stream_program, stream_profile, warm, timed, baseline


@pytest.fixture(scope="module")
def pointer_setup(small_pointer_program, pointer_trace, pointer_profile):
    warm, timed = _windows(pointer_trace)
    baseline = simulate_baseline(timed, SystemConfig(), warmup_entries=warm)
    return small_pointer_program, pointer_profile, warm, timed, baseline


def _dla(setup, dla_config):
    program, profile, warm, timed, baseline = setup
    system = DlaSystem(program, SystemConfig(), dla_config, profile=profile)
    outcome = system.simulate(timed, warmup_entries=warm)
    return baseline, outcome


def test_dla_main_thread_commits_every_instruction(stream_setup):
    baseline, outcome = _dla(stream_setup, DlaConfig().baseline_dla())
    assert outcome.main.committed == TIMED
    assert outcome.lookahead.committed < TIMED


def test_dla_speeds_up_streaming_workload(stream_setup):
    # The test fixture's array is small enough to be cache-resident after
    # warm-up, so the gain here is modest; the full-size workloads in the
    # benchmark harness show the paper-scale speedups.
    baseline, outcome = _dla(stream_setup, DlaConfig().baseline_dla())
    assert baseline.cycles / outcome.cycles > 1.02
    assert 0.1 < outcome.skeleton_dynamic_fraction < 0.9


def test_dla_branch_hints_remove_most_mispredictions(stream_setup):
    baseline, outcome = _dla(stream_setup, DlaConfig().baseline_dla())
    assert outcome.main.branch_accuracy >= baseline.core.branch_accuracy - 1e-9
    assert outcome.main.branch_accuracy > 0.99


def test_r3_is_at_least_as_fast_as_dla(stream_setup):
    _, dla = _dla(stream_setup, DlaConfig().baseline_dla())
    _, r3 = _dla(stream_setup, DlaConfig().r3())
    assert r3.cycles <= dla.cycles * 1.05
    assert set(r3.optimizations) == {"t1", "value_reuse", "fetch_buffer", "recycle"}


def test_r3_never_slower_than_baseline(stream_setup, pointer_setup):
    for setup in (stream_setup, pointer_setup):
        baseline, r3 = _dla(setup, DlaConfig().r3())
        assert r3.cycles <= baseline.cycles * 1.10


def test_t1_offload_shrinks_lookahead_thread(stream_setup):
    _, dla = _dla(stream_setup, DlaConfig().baseline_dla())
    _, with_t1 = _dla(stream_setup, DlaConfig().with_optimizations(t1=True))
    assert with_t1.skeleton_dynamic_fraction <= dla.skeleton_dynamic_fraction
    assert with_t1.lookahead.committed <= dla.lookahead.committed


def test_value_reuse_produces_predictions(pointer_setup):
    _, outcome = _dla(pointer_setup, DlaConfig().with_optimizations(value_reuse=True))
    assert outcome.main.value_predictions_used >= 0
    # The mechanism's bookkeeping is reported even when few targets exist.
    assert outcome.validations_skipped >= 0


def test_dla_energy_and_traffic_reported(stream_setup):
    baseline, outcome = _dla(stream_setup, DlaConfig().baseline_dla())
    assert outcome.cpu_energy > 0
    assert outcome.dram_energy > 0
    assert outcome.memory_traffic > 0
    assert 0 < outcome.communication_bits_per_instruction < 32
    # Two cores cost more CPU energy than one, but far less than 2x.
    ratio = outcome.cpu_energy / baseline.energy.total
    assert 1.0 < ratio < 2.0


def test_lookahead_thread_activity_is_a_fraction_of_baseline(stream_setup):
    baseline, outcome = _dla(stream_setup, DlaConfig().r3())
    assert outcome.lookahead.decoded < baseline.core.decoded
    assert outcome.lookahead.executed < baseline.core.executed


def test_segmented_simulation_matches_single_pass_instruction_count(stream_setup):
    program, profile, warm, timed, baseline = stream_setup
    config = DlaConfig().r3()
    system = DlaSystem(program, SystemConfig(), config, profile=profile)
    versions = build_skeleton_versions(system.builder, enable_t1=True)
    controller = RecycleController(versions, config, profile.loop_branch_pcs)
    plan = controller.plan(system, timed, dynamic=False)
    outcome = system.simulate_segmented(plan.segments, warmup_entries=warm)
    assert outcome.main.committed == len(timed)
    assert sum(plan.version_distribution.values()) == pytest.approx(1.0)


def test_recycle_static_no_worse_than_dynamic(stream_setup):
    program, profile, warm, timed, baseline = stream_setup
    config = DlaConfig().r3()
    system = DlaSystem(program, SystemConfig(), config, profile=profile)
    versions = build_skeleton_versions(system.builder, enable_t1=True)
    controller = RecycleController(versions, config, profile.loop_branch_pcs)
    static_plan = controller.plan(system, timed, dynamic=False)
    dynamic_plan = controller.plan(system, timed, dynamic=True)
    static = system.simulate_segmented(static_plan.segments, warmup_entries=warm)
    dynamic = system.simulate_segmented(dynamic_plan.segments, warmup_entries=warm)
    assert static.cycles <= dynamic.cycles * 1.05


def test_reboot_penalty_sensitivity_is_small(stream_setup):
    from dataclasses import replace
    _, cheap = _dla(stream_setup, replace(DlaConfig().r3(), reboot_penalty=64))
    _, expensive = _dla(stream_setup, replace(DlaConfig().r3(), reboot_penalty=200))
    assert expensive.cycles <= cheap.cycles * 1.05


def test_dla_requires_profile_or_training_trace(small_stream_program):
    with pytest.raises(ValueError):
        DlaSystem(small_stream_program)


# ---------------------------------------------------------------------------
# comparators
# ---------------------------------------------------------------------------
def test_bfetch_runs_and_reports(stream_setup):
    program, profile, warm, timed, baseline = stream_setup
    outcome = simulate_bfetch(timed, SystemConfig(), warmup_entries=warm)
    assert outcome.core.committed == len(timed)
    assert outcome.cycles > 0


def test_cre_helps_streaming_workload(stream_setup):
    program, profile, warm, timed, baseline = stream_setup
    outcome = simulate_cre(program, timed, profile, SystemConfig(), warmup_entries=warm)
    assert outcome.core.committed == len(timed)
    assert outcome.cycles <= baseline.cycles * 1.05


def test_slipstream_runs_with_reduced_a_stream(stream_setup):
    program, profile, warm, timed, baseline = stream_setup
    outcome = simulate_slipstream(program, timed, profile, SystemConfig(),
                                  warmup_entries=warm)
    assert outcome.main.committed == len(timed)
    assert outcome.skeleton_dynamic_fraction <= 1.0


def test_smt_modes_normalised_to_half_core(small_stream_program, stream_trace, stream_profile):
    comparison = simulate_smt_modes(
        small_stream_program,
        stream_trace.window(WARM, 3000),
        stream_profile,
    )
    values = comparison.as_dict()
    assert set(values) == {"FC", "DLA", "R3-DLA", "SMT"}
    assert all(v > 0 for v in values.values())
    assert comparison.full_core >= 0.9        # a wider core should not be much worse
