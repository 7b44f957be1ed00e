"""Trace-driven out-of-order core timing model.

The model consumes a committed dynamic trace (produced by
:mod:`repro.emulator`) and charges cycles against it using a dataflow-style
pipeline model with the first-order constraints of an aggressive
out-of-order core: finite fetch/decode/issue/commit widths, a finite reorder
buffer and load/store queue, functional-unit contention, branch prediction
with a front-end redirect penalty, a decoupled fetch buffer, and a full
cache/TLB/DRAM hierarchy for both instructions and data.

It is *cycle-approximate*, not cycle-accurate: the goal is to preserve the
relative behaviour the paper's conclusions rest on (what limits the main
thread, how much a look-ahead thread helps, where prefetching is late), not
to reproduce gem5 cycle counts.
"""

from repro.core.config import CoreConfig, SystemConfig, sm_half_core_config, smt_full_core_config
from repro.core.results import CoreResult, InstructionTiming, InstructionTimings
from repro.core.pipeline import BranchHint, CoreHooks, OutOfOrderCore, ValueHint
from repro.core.energy import EnergyBreakdown, EnergyModel, EnergyParams
from repro.core.system import SimulationOutcome, simulate_baseline

__all__ = [
    "CoreConfig",
    "SystemConfig",
    "smt_full_core_config",
    "sm_half_core_config",
    "CoreResult",
    "InstructionTiming",
    "InstructionTimings",
    "OutOfOrderCore",
    "CoreHooks",
    "BranchHint",
    "ValueHint",
    "EnergyModel",
    "EnergyParams",
    "EnergyBreakdown",
    "simulate_baseline",
    "SimulationOutcome",
]
