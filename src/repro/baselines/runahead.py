"""Continuous Runahead Engine (CRE) model.

CRE (Hashemi, Mutlu & Patt, MICRO 2016) extracts the dependence chains that
lead to off-chip (last-level-cache-missing) loads, filters them down to a
small recurring set, and executes those chains *continuously* on a tiny
in-order engine located at the memory controller, prefetching for the core.
Unlike DLA there is no second full thread context: only the miss-producing
slices run ahead, and nothing else (branch outcomes, values) is communicated
back.  Following the paper's methodology, the engine prefetches into L1,
which they found performed better than filling only the LLC.

Model: the profiler identifies "delinquent" loads (high L2/L3 miss rate) and
their backward slices.  During the main-core simulation, a virtual engine
runs those slices ahead of the core: for every delinquent load, a prefetch is
issued ``lead`` dynamic occurrences before the core reaches it, provided the
slice is short enough to fit the engine's issue budget (32 micro-ops in the
original design).  Address-generation chains that depend on other delinquent
loads (pointer chasing) advance only one hop per occurrence, mirroring the
engine's serial execution of dependent chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.compile.decoded import F_LOAD, get_decoded
from repro.core.compile.hookspec import CompiledHookSpec, RunaheadTable
from repro.core.config import SystemConfig
from repro.core.energy import EnergyModel
from repro.core.pipeline import CoreHooks
from repro.core.system import SimulationOutcome, build_single_core, warm_memory_system
from repro.dla.profiling import ProgramProfile
from repro.emulator.trace import DynamicInst, Trace
from repro.isa.analysis import StaticAnalysis, backward_slice
from repro.isa.program import Program


@dataclass
class ContinuousRunaheadConfig:
    """CRE parameters (following the MICRO 2016 design point)."""

    #: Maximum micro-ops in a runahead chain the engine will accept.
    max_chain_length: int = 32
    #: L2 miss probability above which a load is considered delinquent.
    delinquency_threshold: float = 0.02
    #: How many dynamic occurrences ahead of the core the engine runs.
    lead_occurrences: int = 12
    #: Dependent (pointer-chasing) chains advance only this many hops ahead.
    dependent_lead: int = 1


def runahead_hooks(table: RunaheadTable) -> CoreHooks:
    """Core hooks stepping ``table`` after every load access.

    ``on_memory_access`` is the reference's copy of the step; the hooks also
    declare the table, which the compiled kernel then steps natively (see
    :class:`~repro.core.compile.hookspec.RunaheadTable`).
    """
    memory = table.memory
    eligible, lead, offset, count, future, seen = (
        table.eligible, table.lead, table.offset, table.count, table.future,
        table.seen)

    def on_memory_access(entry: DynamicInst, access, cycle: float) -> None:
        pc = entry.pc
        if not entry.is_load or not eligible[pc]:
            return
        index = seen[pc]
        seen[pc] = index + 1
        target_index = index + lead[pc]
        if target_index < count[pc]:
            memory.prefetch(future[offset[pc] + target_index], int(cycle),
                            level="l1")

    return CoreHooks(on_memory_access=on_memory_access,
                     fast_hints=CompiledHookSpec(runahead=table))


def simulate_cre(
    program: Program,
    window: Trace,
    profile: ProgramProfile,
    config: Optional[SystemConfig] = None,
    cre: Optional[ContinuousRunaheadConfig] = None,
    warmup_entries: Optional[Trace] = None,
) -> SimulationOutcome:
    """Simulate the baseline core assisted by a Continuous Runahead Engine."""
    config = config or SystemConfig()
    cre = cre or ContinuousRunaheadConfig()
    if min(cre.lead_occurrences, cre.dependent_lead) < 0:
        raise ValueError("CRE leads must not be negative")

    analysis = StaticAnalysis.analyze(program)
    delinquent: List[int] = [
        pc for pc, stats in profile.memory.items()
        if program[pc].is_load and stats.l2_miss_rate >= cre.delinquency_threshold
    ]
    #: Chains short enough for the engine; longer ones are dropped, as in CRE.
    eligible: Dict[int, bool] = {}
    dependent_chain: Dict[int, bool] = {}
    for pc in delinquent:
        chain = backward_slice(program, [pc], analysis.chains)
        eligible[pc] = len(chain) <= cre.max_chain_length
        # A chain containing another delinquent load means the address itself
        # depends on an off-chip access (pointer chasing).
        dependent_chain[pc] = any(
            other != pc and other in chain for other in delinquent
        )

    # Pre-compute, per eligible PC, the future addresses of its occurrences
    # so the engine can run ahead by occurrence count: one flat column,
    # declared to the compiled kernel with the per-PC leads and counters.
    decoded = get_decoded(window)
    num_pcs = max(decoded.pcs, default=-1) + 1
    occurrences: Dict[int, List[int]] = {
        pc: [] for pc in sorted(eligible) if eligible[pc] and pc < num_pcs}
    for pc, flags, address in zip(decoded.pcs, decoded.flags, decoded.ea):
        if flags & F_LOAD and pc in occurrences:
            occurrences[pc].append(address)

    shared, private, core = build_single_core(config)
    if warmup_entries:
        warm_memory_system(private, warmup_entries)

    table = RunaheadTable.fresh(private, num_pcs)
    for pc, addresses in occurrences.items():
        table.eligible[pc] = 1
        table.lead[pc] = (cre.dependent_lead if dependent_chain[pc]
                          else cre.lead_occurrences)
        table.offset[pc] = len(table.future)
        table.count[pc] = len(addresses)
        table.future.extend(addresses)
    result = core.run(window, hooks=runahead_hooks(table))
    energy = EnergyModel().evaluate(result)
    return SimulationOutcome(
        core=result,
        energy=energy,
        memory_traffic=shared.traffic,
        dram_energy=shared.dram.energy(int(result.cycles)),
        shared=shared,
        private=private,
    )
