"""Synthetic workloads standing in for SPEC2006 / CRONO / STARBENCH / NPB.

The paper evaluates on four benchmark suites compiled to native binaries.
Those binaries (and their reference inputs) cannot be executed by a pure
Python reproduction, so this package provides synthetic kernels written in
the simulation ISA that exercise the same behavioural axes the paper's
analysis depends on:

* strided streaming (libquantum-, STREAM-, NPB-like) — the target of the T1
  offload engine;
* pointer chasing and irregular graph traversal (mcf-, omnetpp-, CRONO-like)
  — the accesses only a look-ahead thread can prefetch;
* data-dependent branching (gobmk-, sjeng-like) — where the BOQ removes most
  mispredictions;
* dense compute with long-latency operations (NPB-like) — where value reuse
  shortens critical paths.

Each named benchmark (e.g. ``"mcf"``, ``"bfs"``, ``"cg"``) maps to a kernel
with suite-specific parameters; see :mod:`repro.workloads.suites`.
"""

from repro.workloads.kernels import KERNEL_BUILDERS, build_kernel
from repro.workloads.suites import (
    SUITES,
    Workload,
    all_workloads,
    get_workload,
    suite_workloads,
)

__all__ = [
    "KERNEL_BUILDERS",
    "build_kernel",
    "SUITES",
    "Workload",
    "all_workloads",
    "get_workload",
    "suite_workloads",
]
