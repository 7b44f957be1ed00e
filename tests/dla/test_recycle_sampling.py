"""Loop-unit search sampling in the recycle controller (full-mode speedup)."""

from __future__ import annotations

import pytest

from repro.dla.config import DlaConfig
from repro.dla.recycle import RecycleController, build_skeleton_versions
from repro.dla.system import DlaSystem
from repro.experiments.runner import FULL_MODE_SEARCH_UNITS, ExperimentRunner


@pytest.fixture(scope="module")
def setup_and_system():
    runner = ExperimentRunner(quick=True, workload_names=["cg"],
                              warmup_instructions=800, timed_instructions=2400,
                              disk_cache=False)
    setup = runner.setup("cg")
    config = DlaConfig().r3()
    system = DlaSystem(setup.program, runner.system_config, config,
                       profile=setup.profile)
    versions = build_skeleton_versions(system.builder)
    return setup, system, versions, config


def _controller(versions, config, setup):
    return RecycleController(versions, config, setup.profile.loop_branch_pcs)


def test_sampled_plan_still_covers_whole_trace(setup_and_system):
    setup, system, versions, config = setup_and_system
    controller = _controller(versions, config, setup)
    plan = controller.plan(system, setup.timed_trace, search_unit_limit=1)
    assert sum(len(seg) for seg, _ in plan.segments) == len(setup.timed_trace)
    assert abs(sum(plan.version_distribution.values()) - 1.0) < 1e-9


def test_limit_zero_pins_every_loop_to_default_version(setup_and_system):
    setup, system, versions, config = setup_and_system
    controller = _controller(versions, config, setup)
    plan = controller.plan(system, setup.timed_trace, dynamic=True,
                           search_unit_limit=0)
    assert set(plan.chosen_versions) == {0}
    assert len(controller.lct) == 0                    # nothing was tuned
    # No dynamic trial slices either: one segment per loop unit.
    assert sum(len(seg) for seg, _ in plan.segments) == len(setup.timed_trace)
    assert plan.version_distribution == {0: 1.0}


def test_sampling_bounds_tuned_loops(setup_and_system):
    setup, system, versions, config = setup_and_system
    controller = _controller(versions, config, setup)
    plan = controller.plan(system, setup.timed_trace, search_unit_limit=1)
    assert len(controller.lct) <= 1
    unsampled = _controller(versions, config, setup)
    full_plan = unsampled.plan(system, setup.timed_trace)
    # Same unit structure either way.
    assert len(plan.chosen_versions) == len(full_plan.chosen_versions)


def test_quick_mode_tunes_all_full_mode_samples():
    quick = ExperimentRunner(quick=True, workload_names=["cg"],
                             warmup_instructions=800, timed_instructions=800,
                             disk_cache=False)
    assert quick._search_unit_limit() is None
    full = ExperimentRunner(quick=False, workload_names=["cg"],
                            warmup_instructions=800, timed_instructions=800,
                            disk_cache=False)
    assert full._search_unit_limit() == FULL_MODE_SEARCH_UNITS
    # The sampling parameter is part of the segmented content key, so full-
    # and quick-mode cells can never alias to one cached result.
    workload = quick.setup("cg").workload
    config = DlaConfig().r3()
    assert (quick.segmented_key_for(workload, config, dynamic=False)
            != full.segmented_key_for(workload, config, dynamic=False))
