"""Training-run profiling for skeleton construction.

Appendix A of the paper assumes a runtime profiler that executes the program
with a *training* input and records, per static instruction, how often it
misses in the caches; the skeleton generator then seeds on memory
instructions above a miss-probability threshold (1% in L1 or 0.1% in L2).
The recycle optimization additionally needs branch bias, and the T1 engine
needs to know which loads are strided.  This module computes all of those
statistics from a functional trace plus a lightweight cache-only simulation.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.core.config import SystemConfig
from repro.core.pipeline import OutOfOrderCore
from repro.emulator.trace import Trace
from repro.isa.program import Program
from repro.memory.hierarchy import CoreMemorySystem, SharedMemorySystem


@dataclass
class PcMemoryStats:
    """Cache behaviour of one static load/store."""

    executions: int = 0
    l1_misses: int = 0
    l2_misses: int = 0
    #: Number of address deltas equal to the dominant stride.
    dominant_stride_hits: int = 0
    dominant_stride: int = 0
    deltas_observed: int = 0

    @property
    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.executions if self.executions else 0.0

    @property
    def l2_miss_rate(self) -> float:
        return self.l2_misses / self.executions if self.executions else 0.0

    @property
    def stride_regularity(self) -> float:
        """Fraction of dynamic address deltas equal to the dominant stride."""
        return (
            self.dominant_stride_hits / self.deltas_observed
            if self.deltas_observed
            else 0.0
        )


@dataclass
class PcBranchStats:
    """Outcome statistics of one static conditional branch."""

    executions: int = 0
    taken: int = 0

    @property
    def taken_ratio(self) -> float:
        return self.taken / self.executions if self.executions else 0.0

    @property
    def bias(self) -> float:
        """How lopsided the branch is (0.5 = unbiased, 1.0 = always one way)."""
        ratio = self.taken_ratio
        return max(ratio, 1.0 - ratio)


@dataclass
class ProgramProfile:
    """Aggregate training-run statistics keyed by static PC."""

    program: Program
    instruction_counts: Dict[int, int] = field(default_factory=dict)
    memory: Dict[int, PcMemoryStats] = field(default_factory=dict)
    branches: Dict[int, PcBranchStats] = field(default_factory=dict)
    #: Average dispatch-to-execute latency per static PC (from a timing run).
    dispatch_to_execute: Dict[int, float] = field(default_factory=dict)
    #: Number of register consumers per static PC (for value-reuse seeding).
    dependents: Dict[int, int] = field(default_factory=dict)
    #: Static PCs of backward conditional branches (loop branches).
    loop_branch_pcs: Set[int] = field(default_factory=set)
    dynamic_instructions: int = 0

    # ------------------------------------------------------------------
    def l1_miss_pcs(self, threshold: float = 0.01) -> List[int]:
        """Loads/stores whose L1 miss probability exceeds ``threshold``."""
        return sorted(
            pc for pc, stats in self.memory.items() if stats.l1_miss_rate > threshold
        )

    def l2_miss_pcs(self, threshold: float = 0.001) -> List[int]:
        return sorted(
            pc for pc, stats in self.memory.items() if stats.l2_miss_rate > threshold
        )

    def strided_pcs(self, regularity: float = 0.9, min_executions: int = 16) -> List[int]:
        """Loads whose address stream is dominated by one constant stride.

        Only loads inside loops qualify (T1 is driven by a loop branch), and
        zero-stride streams are excluded because re-touching the same line
        needs no prefetch.
        """
        result = []
        for pc, stats in self.memory.items():
            if not self.program[pc].is_load:
                continue
            if stats.executions < min_executions:
                continue
            if stats.dominant_stride == 0:
                continue
            if stats.stride_regularity >= regularity:
                result.append(pc)
        return sorted(result)

    def biased_branch_pcs(self, bias_threshold: float = 0.98,
                          min_executions: int = 32) -> List[int]:
        return sorted(
            pc
            for pc, stats in self.branches.items()
            if stats.executions >= min_executions and stats.bias >= bias_threshold
        )

    def slow_pcs(self, latency_threshold: float = 20.0,
                 min_dependents: int = 2) -> List[int]:
        """Value-reuse candidates: long dispatch-to-execute latency plus more
        than one dependent instruction (Sec. III-D1)."""
        return sorted(
            pc
            for pc, latency in self.dispatch_to_execute.items()
            if latency >= latency_threshold
            and self.dependents.get(pc, 0) >= min_dependents
        )


def _dominant_stride(deltas: Sequence[int]) -> (int, int):
    """(most common delta, its count) over a delta sequence."""
    counts: Dict[int, int] = {}
    for delta in deltas:
        counts[delta] = counts.get(delta, 0) + 1
    if not counts:
        return 0, 0
    stride = max(counts, key=counts.get)
    return stride, counts[stride]


def profile_workload(
    program: Program,
    trace: Trace,
    config: Optional[SystemConfig] = None,
    run_timing: bool = True,
    timing_window: int = 20_000,
) -> ProgramProfile:
    """Profile a training trace.

    Cache statistics come from replaying the trace's memory accesses through
    a dedicated (cold) cache hierarchy; dispatch-to-execute latencies come
    from an optional baseline timing run over a bounded window
    (``run_timing=False`` skips it when only memory seeds are needed).

    With the compiled kernel loaded the passes run natively over the
    trace's columns (:func:`_profile_columns`); the loops below over its
    entries are the reference they transcribe.
    """
    from repro.core.compile import kernel_available

    config = config or SystemConfig()
    profile = ProgramProfile(program=program, dynamic_instructions=len(trace))
    if not (kernel_available() and _profile_columns(trace, config, profile)):
        _profile_entries(trace, config, profile)
    if run_timing:
        _profile_timing(trace, config, profile, timing_window)
    return profile


def _profile_entries(trace: Trace, config: SystemConfig,
                     profile: ProgramProfile) -> None:
    """The reference profiling passes, over the trace's entries."""
    # Every data access runs, at its cycle, through a cold hierarchy; only
    # the miss classification matters: bit 0 of the packed info word is an
    # L1 miss, bit 1 "supplied by the L3 or DRAM".
    shared = SharedMemorySystem(config.memory)
    access_data_fast = CoreMemorySystem(shared, config.memory).access_data_fast
    last_address: Dict[int, int] = {}
    deltas: Dict[int, List[int]] = {}
    cycle = 0
    instruction_counts = profile.instruction_counts
    memory_stats = profile.memory
    branch_stats = profile.branches
    for entry in trace:
        static = entry.static
        pc = static.pc
        instruction_counts[pc] = instruction_counts.get(pc, 0) + 1
        if static.is_memory:
            stats = memory_stats.get(pc)
            if stats is None:
                stats = memory_stats[pc] = PcMemoryStats()
            stats.executions += 1
            address = entry.effective_address
            info = access_data_fast(address, cycle, not static.is_load)[1]
            if info & 1:
                stats.l1_misses += 1
                if info & 2:
                    stats.l2_misses += 1
            if pc in last_address:
                delta = address - last_address[pc]
                delta_list = deltas.get(pc)
                if delta_list is None:
                    deltas[pc] = [delta]
                else:
                    delta_list.append(delta)
            last_address[pc] = address
            cycle += 2
        elif static.is_branch:
            stats = branch_stats.get(pc)
            if stats is None:
                stats = branch_stats[pc] = PcBranchStats()
            stats.executions += 1
            if entry.taken:
                stats.taken += 1
            if entry.taken and static.target is not None and static.target <= pc:
                profile.loop_branch_pcs.add(pc)
            cycle += 1
        else:
            cycle += 1

    for pc, delta_list in deltas.items():
        stride, hits = _dominant_stride(delta_list)
        stats = profile.memory[pc]
        stats.dominant_stride = stride
        stats.dominant_stride_hits = hits
        stats.deltas_observed = len(delta_list)

    # Register-dependence fan-out (consumers per producer PC).
    last_writer: Dict[int, int] = {}
    dependents = profile.dependents
    last_writer_get = last_writer.get
    for entry in trace:
        static = entry.static
        for src in static.srcs:
            writer = last_writer_get(src)
            if writer is not None:
                dependents[writer] = dependents.get(writer, 0) + 1
        if static.writes_register:
            last_writer[static.dst] = static.pc


#: Per-PC columns the kernel's profiling pass fills.
_PROFILE_COLUMNS = ("counts", "order", "l1", "l2", "taken", "stride",
                    "stride_hits", "deltas", "dependents", "dep_order",
                    "loop_order")


def _profile_columns(trace: Trace, config: SystemConfig,
                     profile: ProgramProfile) -> bool:
    """:func:`_profile_entries` on the kernel, over the trace's columns:
    the same dicts, in the same (first-execution) order, with the same int
    types.  False when an address delta overflows the kernel's int64, so
    the reference must carry the profile."""
    from repro.core.compile import profile_compiled

    program = trace.program
    size = len(program)
    backward = array("B", (
        static.target is not None and static.target <= static.pc
        for static in program))
    out = {name: array("q", bytes(8 * size)) for name in _PROFILE_COLUMNS}
    shared = SharedMemorySystem(config.memory)
    try:
        executed, producers, loops = profile_compiled(
            CoreMemorySystem(shared, config.memory), trace, backward, out)
    except OverflowError:
        return False
    counts, stride, hits, deltas = (out["counts"], out["stride"],
                                    out["stride_hits"], out["deltas"])
    order = out["order"][:executed]
    profile.instruction_counts.update(zip(order, (counts[pc] for pc in order)))
    for pc in order:
        static = program[pc]
        if static.is_memory:
            profile.memory[pc] = PcMemoryStats(
                executions=counts[pc], l1_misses=out["l1"][pc],
                l2_misses=out["l2"][pc], dominant_stride_hits=hits[pc],
                dominant_stride=stride[pc], deltas_observed=deltas[pc])
        elif static.is_branch:
            profile.branches[pc] = PcBranchStats(counts[pc], out["taken"][pc])
    profile.loop_branch_pcs.update(out["loop_order"][:loops])
    dependents = out["dependents"]
    profile.dependents.update(
        (pc, dependents[pc]) for pc in out["dep_order"][:producers])
    return True


def _profile_timing(trace: Trace, config: SystemConfig,
                    profile: ProgramProfile, window: int) -> None:
    """Per-PC average dispatch-to-execute latency from a baseline timing
    run, aggregated by the window's ``pc`` column in program order."""
    shared = SharedMemorySystem(config.memory)
    memory = CoreMemorySystem(shared, config.memory)
    core = OutOfOrderCore(config.core, memory)
    head = trace.window(0, window)
    timings = core.run(head, collect_timings=True).timings
    sums: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for pc, complete, dispatch in zip(head.columns.pc, timings.complete,
                                      timings.dispatch):
        sums[pc] = sums.get(pc, 0.0) + (complete - dispatch)
        counts[pc] = counts.get(pc, 0) + 1
    profile.dispatch_to_execute = {
        pc: sums[pc] / counts[pc] for pc in sums
    }
