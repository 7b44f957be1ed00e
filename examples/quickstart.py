#!/usr/bin/env python3
"""Quickstart: speed up one workload with DLA and R3-DLA.

Builds the ``mcf``-like workload (pointer chasing), simulates it on the
baseline out-of-order core with a Best-Offset prefetcher, then on a baseline
DLA machine, then on the full R3-DLA machine, and prints the resulting
speedups plus a few of the statistics the paper discusses (skeleton size,
look-ahead reboots, communication volume).
"""

from repro.core import SystemConfig, simulate_baseline
from repro.dla import DlaConfig, DlaSystem, profile_workload
from repro.workloads import get_workload

WARMUP = 8_000
TIMED = 10_000


def main() -> None:
    workload = get_workload("omnetpp")
    program = workload.build_program()
    trace = workload.trace(WARMUP + TIMED + 1000)
    warmup, timed = trace.window(0, WARMUP), trace.window(WARMUP, TIMED)

    print(f"workload: {workload.name} ({workload.description})")
    print(f"static instructions: {len(program)}, timed window: {len(timed)} dynamic\n")

    profile = profile_workload(program, trace.window(0, WARMUP), timing_window=6000)

    baseline = simulate_baseline(timed, SystemConfig(), warmup_entries=warmup)
    print(f"baseline (BOP at L2):    IPC = {baseline.ipc:.3f}")

    dla_system = DlaSystem(program, SystemConfig(), DlaConfig().baseline_dla(), profile=profile)
    dla = dla_system.simulate(timed, warmup_entries=warmup)
    print(f"baseline DLA:            IPC = {dla.ipc:.3f} "
          f"(speedup {baseline.cycles / dla.cycles:.2f}x, "
          f"skeleton runs {dla.skeleton_dynamic_fraction:.0%} of instructions)")

    r3_system = DlaSystem(program, SystemConfig(), DlaConfig().r3(), profile=profile)
    r3 = r3_system.simulate(timed, warmup_entries=warmup)
    print(f"R3-DLA:                  IPC = {r3.ipc:.3f} "
          f"(speedup {baseline.cycles / r3.cycles:.2f}x, "
          f"skeleton runs {r3.skeleton_dynamic_fraction:.0%} of instructions)")

    print("\nR3-DLA detail:")
    print(f"  look-ahead reboots:           {r3.reboots}")
    print(f"  value predictions used:       {r3.main.value_predictions_used}")
    print(f"  validations skipped:          {r3.validations_skipped}")
    print(f"  LT->MT communication:         {r3.communication_bits_per_instruction:.2f} bits/instruction")
    print(f"  CPU energy vs baseline:       {r3.cpu_energy / baseline.energy.total:.2f}x")
    print(f"  DRAM energy vs baseline:      {r3.dram_energy / baseline.dram_energy:.2f}x")


if __name__ == "__main__":
    main()
