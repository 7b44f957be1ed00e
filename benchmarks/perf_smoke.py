"""Performance smoke: two workloads end-to-end, throughput printed.

Runs the full BL / DLA / R3-DLA configuration stack and Fig. 9's B-Fetch
and CRE cells for a single workload with fresh caches, plus a memory-bound
workload under the fully contended memory backend (banked MSHRs + write buffers + DRAM queues), and prints one
line of simulated-instructions-per-second and wall-time numbers.  It is a
CI guard, not a measurement: it writes no file, and one cold sample says
little about speed.  Claims about simulator speed are measured with
``perfbench/`` (see the README's "Performance tracking").

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py [workload] [memory_workload]

``--require-compiled`` additionally asserts that the compiled tick pipeline
actually carried the run: every engagement counter of
:func:`repro.core.compile.counters` moved (``compiled_ticks > 0`` in the
runner stats for the simulations, and the kernel's native memory
hierarchy, DLA hint unit, T1, hint verdict draws, B-Fetch walker, CRE
table and functional emulator each above 0), so did the setups' profiling
timing passes (``setup_compiled_ticks > 0``), and every one of its cells
fits the kernel (``interpreted_runs == 0``: no run went to the interpreter
while the kernel was loaded).  It exits with status 2 otherwise — in CI
this turns a silent fallback to the reference interpreter or the Python
emulator (no C compiler on the runner, a kernel build break) into a red
job instead of a quietly slower number, and so does a cell that stopped
fitting the kernel (an undeclared hook, a non-stock cache type, branch
unit or prefetcher), which makes its runs about 3x slower while
``compiled_ticks`` stays above 0.  A counter added to the table is
guarded without an edit here.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.dla.config import DlaConfig                      # noqa: E402
from repro.experiments.memsys_sweep import (                # noqa: E402
    MEMSYS_MACHINES,
    machine_config,
)
from repro.experiments.runner import ExperimentRunner       # noqa: E402


def main(workload: str = "mcf", memory_workload: str = "mg") -> dict:
    # Build/load the compiled tick kernel up front so a cold artifact
    # cache's one-off C compile never lands inside the printed wall time.
    from repro.core.compile import (
        compiled_ticks_total,
        counters,
        kernel_available,
    )

    kernel_available()
    engaged = counters()
    started = time.perf_counter()
    # Fresh in-memory caches and no disk cache: measure real simulation speed.
    runner = ExperimentRunner(quick=True,
                              workload_names=[workload, memory_workload],
                              disk_cache=False)
    # Setup's profiling timing pass runs on the kernel too; its ticks are
    # counted apart so --require-compiled guards the setup path.
    setup_ticks = compiled_ticks_total()
    setup = runner.setup(workload)
    memory_setup = runner.setup(memory_workload)
    setup_ticks = compiled_ticks_total() - setup_ticks
    runner.baseline(setup, "bl")
    runner.baseline(setup, "bl-nopf", runner.system_config.without_prefetchers())
    runner.dla(setup, DlaConfig().baseline_dla(), "dla")
    runner.dla(setup, DlaConfig().r3(), "r3")
    # Fig. 9's related approaches, through the runner's auxiliary entry point.
    runner.auxiliary(setup, "bfetch")
    runner.auxiliary(setup, "cre")

    # Memory-bound kernel under the fully contended backend (the canonical
    # "contended" machine point of the memsys sweep): every contention
    # resource is live, so regressions in the occupancy layer's hot paths
    # move these numbers.
    contended_cfg = machine_config(runner.system_config,
                                   dict(MEMSYS_MACHINES)["contended"])
    before = runner.stats.copy()
    runner.baseline(memory_setup, "bl-contended", contended_cfg)
    runner.dla(memory_setup, DlaConfig().r3(), "r3-contended", contended_cfg)
    contended_stats = runner.stats.since(before)
    wall = time.perf_counter() - started

    payload = dict(runner.stats.as_dict())
    payload["contended_instructions_per_second"] = round(
        contended_stats.instructions_per_second, 1
    )
    payload["setup_compiled_ticks"] = setup_ticks
    # The runner's own compiled_ticks (its simulations only) stays; every
    # other engagement counter is this run's delta.
    for name, count in counters().items():
        payload.setdefault(name, count - engaged[name])
    engagement = ", ".join(f"{name} {payload[name]}"
                           for name in ["setup_compiled_ticks", *counters()])
    print(f"perf_smoke[{workload}+{memory_workload}]: "
          f"{payload['simulations']} simulations, "
          f"{payload['simulated_instructions']} instructions in {wall:.2f}s "
          f"({payload['instructions_per_second']:.0f} inst/s overall, "
          f"{payload['contended_instructions_per_second']:.0f} inst/s "
          f"contended; {engagement})")
    return payload


def guarded() -> list:
    """The counters ``--require-compiled`` needs above 0: the setups'
    ``setup_compiled_ticks`` and every engagement counter of
    :func:`repro.core.compile.counters` but ``interpreted_runs`` (which
    must stay 0)."""
    from repro.core.compile import counters

    return ["setup_compiled_ticks",
            *(name for name in counters() if name != "interpreted_runs")]


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?", default="mcf")
    parser.add_argument("memory_workload", nargs="?", default="mg")
    parser.add_argument(
        "--require-compiled", action="store_true",
        help="exit 2 unless every engagement counter of "
             "repro.core.compile.counters() and setup_compiled_ticks is > 0 "
             "and no cell left the kernel (interpreted_runs == 0); guards "
             "CI against a silent fallback to the reference interpreter or "
             "the Python emulator, and against a cell that stopped fitting "
             "the kernel",
    )
    return parser.parse_args(argv)


if __name__ == "__main__":
    cli_args = _parse_args()
    result = main(cli_args.workload, cli_args.memory_workload)
    if cli_args.require_compiled:
        for key in guarded():
            if result.get(key, 0) <= 0:
                print(f"perf_smoke: compiled tick pipeline did not engage "
                      f"({key} == 0) but --require-compiled was set",
                      file=sys.stderr)
                sys.exit(2)
        if result["interpreted_runs"]:
            print(f"perf_smoke: {result['interpreted_runs']} runs did not "
                  f"fit the compiled kernel and went to the interpreter but "
                  f"--require-compiled was set", file=sys.stderr)
            sys.exit(2)
