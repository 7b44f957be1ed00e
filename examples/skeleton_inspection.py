#!/usr/bin/env python3
"""Inspect skeleton construction for a graph workload.

Shows the full Appendix-A pipeline on the CRONO-like BFS workload: profile
the training run, build the default skeleton plus the six recycle versions,
and print what each version keeps (static/dynamic fraction, T1-offloaded
loads, biased branches pruned).  This is the tool a user would reach for when
asking "what exactly does the look-ahead thread execute for my program?".
"""

from repro.dla import DlaConfig, DlaSystem, profile_workload
from repro.dla.recycle import build_skeleton_versions
from repro.dla.skeleton import SkeletonBuilder
from repro.workloads import get_workload


def main() -> None:
    workload = get_workload("bfs")
    program = workload.build_program()
    trace = workload.trace(20_000)

    print(f"workload: {workload.name} — {workload.description}")
    print(f"static program size: {len(program)} instructions")
    print(f"training trace: {len(trace)} dynamic instructions\n")

    profile = profile_workload(program, trace)
    print(f"loads with >1% L1 miss rate:  {profile.l1_miss_pcs()}")
    print(f"loads with >0.1% L2 miss rate: {profile.l2_miss_pcs()}")
    print(f"strided loads (T1 targets):    {profile.strided_pcs()}")
    print(f"biased branches (>98%):        {profile.biased_branch_pcs()}")
    print(f"loop branches:                 {sorted(profile.loop_branch_pcs)}")
    print(f"value-reuse candidates:        {profile.slow_pcs()}\n")

    builder = SkeletonBuilder(program, profile)
    print("skeleton versions (as used by the recycle controller):")
    for skeleton in build_skeleton_versions(builder, enable_t1=True):
        dynamic = skeleton.dynamic_fraction(trace)
        print(f"  {skeleton.options.name:24s} static={skeleton.static_fraction:5.0%} "
              f"dynamic={dynamic:5.0%}  t1_offloaded={len(skeleton.t1_pcs):2d} "
              f"biased_pruned={len(skeleton.biased_branch_pcs):2d}")

    print("\nrunning R3-DLA with the default skeleton:")
    system = DlaSystem(program, dla_config=DlaConfig().r3(), profile=profile)
    outcome = system.simulate(trace.window(4000, 10000),
                             warmup_entries=trace.window(0, 4000))
    print(f"  main-thread IPC: {outcome.ipc:.3f}")
    print(f"  look-ahead executes {outcome.skeleton_dynamic_fraction:.0%} of the instructions")
    print(f"  prefetch hints installed: {outcome.prefetch_hints_installed}")


if __name__ == "__main__":
    main()
