"""Performance smoke: two workloads end-to-end, throughput printed.

Runs the full BL / DLA / R3-DLA configuration stack for a single workload
with fresh caches, plus a memory-bound workload under the fully contended
memory backend (banked MSHRs + write buffers + DRAM queues), and prints one
line of simulated-instructions-per-second and wall-time numbers.  It is a
CI guard, not a measurement: it writes no file, and one cold sample says
little about speed.  Claims about simulator speed are measured with
``perfbench/`` (see the README's "Performance tracking").

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py [workload] [memory_workload]

``--require-compiled`` additionally asserts that the compiled tick pipeline
actually carried the simulations (``compiled_ticks > 0`` in the runner
stats), the setups' profiling timing passes (``setup_compiled_ticks >
0``) and the L1/TLB hits (``native_mem_hits > 0``), and exits with status
2 otherwise — in CI this turns a silent fallback to the reference
interpreter or to the Python memory accessors (no C compiler on the
runner, a kernel build break, a non-stock cache type) into a red job
instead of a quietly slower number.
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
        kernel_available,
        native_mem_hits_total,
    )

    kernel_available()
    native_hits = native_mem_hits_total()
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
    runner.baseline(setup, "bl-nopf", runner.no_prefetch_config())
    runner.dla(setup, DlaConfig().baseline_dla(), "dla")
    runner.dla(setup, DlaConfig().r3(), "r3")

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
    payload["native_mem_hits"] = native_mem_hits_total() - native_hits
    print(f"perf_smoke[{workload}+{memory_workload}]: "
          f"{payload['simulations']} simulations, "
          f"{payload['simulated_instructions']} instructions in {wall:.2f}s "
          f"({payload['instructions_per_second']:.0f} inst/s overall, "
          f"{payload['contended_instructions_per_second']:.0f} inst/s "
          f"contended, {payload['compiled_ticks']} compiled ticks, "
          f"{setup_ticks} in setup, {payload['native_mem_hits']} native "
          f"L1/TLB hits)")
    return payload


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?", default="mcf")
    parser.add_argument("memory_workload", nargs="?", default="mg")
    parser.add_argument(
        "--require-compiled", action="store_true",
        help="exit 2 unless the compiled tick pipeline carried the runs, "
             "the setups' profiling passes and the L1/TLB hits "
             "(compiled_ticks, setup_compiled_ticks and native_mem_hits "
             "all > 0); guards CI against a silent fallback to the "
             "reference interpreter or the Python memory accessors",
    )
    return parser.parse_args(argv)


if __name__ == "__main__":
    cli_args = _parse_args()
    result = main(cli_args.workload, cli_args.memory_workload)
    if cli_args.require_compiled:
        for key in ("compiled_ticks", "setup_compiled_ticks",
                    "native_mem_hits"):
            if result.get(key, 0) <= 0:
                print(f"perf_smoke: compiled tick pipeline did not engage "
                      f"({key} == 0) but --require-compiled was set",
                      file=sys.stderr)
                sys.exit(2)
