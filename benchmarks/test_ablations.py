"""Ablation benches for the reproduction's own design choices.

These are not paper figures; they probe the sensitivity of the reproduction
to its own parameters: BOQ depth, reboot penalty, skeleton seeding
thresholds, and value-reuse targeting.
"""

from dataclasses import replace

from conftest import run_once

from repro.dla.config import DlaConfig
from repro.dla.skeleton import SkeletonOptions
from repro.dla.system import DlaSystem
from repro.util.stats_math import geometric_mean


def _speedups(runner, dla_config, label):
    values = []
    for name in runner.workload_names[:4]:
        setup = runner.setup(name)
        baseline = runner.baseline(setup, "bl")
        outcome = runner.dla(setup, dla_config, label)
        values.append(baseline.cycles / outcome.cycles)
    return geometric_mean(values)


def test_ablation_boq_depth(benchmark, runner):
    def study():
        return {
            depth: _speedups(runner, replace(DlaConfig().r3(), boq_entries=depth),
                             f"r3-boq{depth}")
            for depth in (64, 512)
        }
    result = run_once(benchmark, study)
    print("\nBOQ depth ablation:", result)
    # A deeper BOQ (more look-ahead headroom) should not hurt.
    assert result[512] >= result[64] * 0.97


def test_ablation_reboot_penalty(benchmark, runner):
    def study():
        return {
            penalty: _speedups(runner, replace(DlaConfig().r3(), reboot_penalty=penalty),
                               f"r3-reboot{penalty}")
            for penalty in (64, 200)
        }
    result = run_once(benchmark, study)
    print("\nReboot penalty ablation:", result)
    # The paper reports <2% degradation at 200 cycles; reboots are rare.
    assert result[200] >= result[64] * 0.95


def test_ablation_skeleton_seed_thresholds(benchmark, runner):
    setup = runner.setup(runner.workload_names[0])

    def study():
        system = DlaSystem(setup.program, runner.system_config,
                           DlaConfig().baseline_dla(), profile=setup.profile)
        results = {}
        for name, l1, l2 in (("default", 0.01, 0.001), ("l2-only", None, 0.001),
                             ("aggressive", 0.002, 0.0002)):
            skeleton = system.builder.build(SkeletonOptions(
                name=name, l1_miss_threshold=l1, l2_miss_threshold=l2))
            outcome = system.simulate(setup.timed_trace, skeleton=skeleton,
                                      warmup_entries=setup.warmup_trace)
            results[name] = {
                "dynamic_fraction": outcome.skeleton_dynamic_fraction,
                "ipc": outcome.ipc,
            }
        return results
    result = run_once(benchmark, study)
    print("\nSkeleton seeding ablation:", result)
    # Fewer seeds (l2-only) can only shrink the skeleton.
    assert result["l2-only"]["dynamic_fraction"] <= result["default"]["dynamic_fraction"] + 1e-9
    assert result["aggressive"]["dynamic_fraction"] >= result["l2-only"]["dynamic_fraction"] - 1e-9


def test_ablation_value_reuse_threshold(benchmark, runner):
    def study():
        return {
            threshold: _speedups(
                runner,
                replace(DlaConfig().with_optimizations(value_reuse=True),
                        slow_instruction_threshold=threshold),
                f"vr-{threshold}")
            for threshold in (10.0, 20.0, 60.0)
        }
    result = run_once(benchmark, study)
    print("\nValue-reuse slow-instruction threshold ablation:", result)
    # All settings stay within a sane band around plain DLA behaviour.
    assert all(0.9 < value < 3.0 for value in result.values())
