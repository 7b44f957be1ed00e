#!/usr/bin/env python3
"""Sweep the R3 optimizations and DLA design parameters for one workload.

Reproduces, on a single workload, the style of analysis in Sec. IV-C of the
paper: apply each optimization individually and in combination, and sweep the
BOQ depth and the reboot penalty to see how sensitive the design is to them.
"""

from dataclasses import replace

from repro.analysis.reporting import format_table
from repro.core import SystemConfig, simulate_baseline
from repro.dla import DlaConfig, DlaSystem, profile_workload
from repro.workloads import get_workload

WARMUP = 8_000
TIMED = 8_000


def main() -> None:
    workload = get_workload("libquantum")
    program = workload.build_program()
    trace = workload.trace(WARMUP + TIMED + 1000)
    warmup, timed = trace.window(0, WARMUP), trace.window(WARMUP, TIMED)
    profile = profile_workload(program, trace.window(0, WARMUP), timing_window=6000)
    baseline = simulate_baseline(timed, SystemConfig(), warmup_entries=warmup)

    def speedup(dla_config: DlaConfig) -> float:
        system = DlaSystem(program, SystemConfig(), dla_config, profile=profile)
        outcome = system.simulate(timed, warmup_entries=warmup)
        return baseline.cycles / outcome.cycles

    print(f"workload: {workload.name}; baseline IPC = {baseline.ipc:.3f}\n")

    combos = [
        ("DLA (no optimizations)", DlaConfig().baseline_dla()),
        ("DLA + T1", DlaConfig().with_optimizations(t1=True)),
        ("DLA + value reuse", DlaConfig().with_optimizations(value_reuse=True)),
        ("DLA + fetch buffer", DlaConfig().with_optimizations(fetch_buffer=True)),
        ("R3-DLA (all)", DlaConfig().r3()),
    ]
    rows = [{"configuration": label, "speedup": speedup(cfg)} for label, cfg in combos]
    print(format_table(rows))
    print()

    rows = []
    for boq in (64, 128, 256, 512, 1024):
        cfg = replace(DlaConfig().r3(), boq_entries=boq)
        rows.append({"boq_entries": boq, "speedup": speedup(cfg)})
    print("BOQ depth sensitivity:")
    print(format_table(rows))
    print()

    rows = []
    for penalty in (64, 128, 200):
        cfg = replace(DlaConfig().r3(), reboot_penalty=penalty)
        rows.append({"reboot_penalty": penalty, "speedup": speedup(cfg)})
    print("Reboot penalty sensitivity (the paper reports <2% impact at 200 cycles):")
    print(format_table(rows))


if __name__ == "__main__":
    main()
