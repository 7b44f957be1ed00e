"""B-Fetch: branch-prediction-directed prefetching.

B-Fetch walks the *predicted* future control flow a configurable number of
basic blocks ahead of the fetch unit and prefetches data for loads whose
addresses can be formed from values that are already architecturally stable
(global pointers, stack slots, loop induction variables a known stride away).
Its reach is therefore limited by branch prediction accuracy and by how many
load addresses are predictable without executing the program — the two
restrictions the decoupled look-ahead approach removes.

The model: a shadow walker runs ``lookahead_blocks`` basic blocks ahead of
the committed stream.  At each block boundary it consults the same branch
predictor type as the core (trained on the architectural outcomes seen so
far); if any predicted branch on the path was wrong, the walk is aborted for
that window (mirroring how wrong-path prefetches stop helping).  Along a
correctly-predicted path, loads whose last observed stride is stable are
prefetched ``distance`` iterations ahead into L1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.branch.predictors import make_predictor
from repro.core.compile.decoded import get_decoded
from repro.core.compile.hookspec import BFetchWalker, CompiledHookSpec
from repro.core.config import SystemConfig
from repro.core.pipeline import CoreHooks
from repro.core.system import SimulationOutcome, build_single_core, warm_memory_system
from repro.core.energy import EnergyModel
from repro.emulator.trace import DynamicInst, Trace


@dataclass
class BFetchConfig:
    """Tuning of the B-Fetch shadow walker."""

    #: How many future branches the walker may run ahead of fetch.
    lookahead_branches: int = 8
    #: Prefetch distance (in dynamic occurrences of the same load).
    distance: int = 4
    #: Predictor used by the walker (same family as the core's).
    predictor: str = "tage"


def bfetch_hooks(walker: BFetchWalker) -> CoreHooks:
    """Core hooks stepping ``walker`` at every fetch.

    ``on_fetch`` is the reference's copy of the step; the hooks also
    declare the walker, which the compiled kernel then steps natively (see
    :class:`~repro.core.compile.hookspec.BFetchWalker`).
    """
    predict_update = walker.predictor.predict_update
    memory = walker.memory
    lookahead_branches = walker.lookahead_branches
    distance = walker.distance
    confidence = walker.confidence
    has_address = walker.has_address
    last_address = walker.last_address
    last_stride = walker.last_stride

    def on_fetch(entry: DynamicInst, cycle: float) -> None:
        static = entry.static
        pc = static.pc
        if static.is_branch:
            taken = bool(entry.taken)
            if predict_update(pc, taken) == taken:
                confidence[0] = min(lookahead_branches, confidence[0] + 1)
            else:
                confidence[0] = 0
        if not static.is_load:
            return
        address = entry.effective_address
        if has_address[pc]:
            stride = address - last_address[pc]
            if stride != 0 and stride == last_stride[pc]:
                # Along a confidently predicted path, prefetch down the
                # stride proportionally to how far ahead the walker may run.
                if confidence[0] >= 2:
                    reach = min(distance, 1 + confidence[0] // 2)
                    for step in range(1, reach + 1):
                        memory.prefetch(address + step * stride, int(cycle),
                                        level="l1")
            last_stride[pc] = stride
        has_address[pc] = 1
        last_address[pc] = address

    return CoreHooks(on_fetch=on_fetch,
                     fast_hints=CompiledHookSpec(bfetch=walker))


def simulate_bfetch(
    window: Trace,
    config: Optional[SystemConfig] = None,
    bfetch: Optional[BFetchConfig] = None,
    warmup_entries: Optional[Trace] = None,
) -> SimulationOutcome:
    """Simulate the baseline core augmented with B-Fetch."""
    config = config or SystemConfig()
    bfetch = bfetch or BFetchConfig()

    shared, private, core = build_single_core(config)
    if warmup_entries:
        warm_memory_system(private, warmup_entries)

    walker = BFetchWalker.fresh(
        make_predictor(bfetch.predictor), private, bfetch.lookahead_branches,
        bfetch.distance, max(get_decoded(window).pcs, default=-1) + 1)
    result = core.run(window, hooks=bfetch_hooks(walker))
    energy = EnergyModel().evaluate(result)
    return SimulationOutcome(
        core=result,
        energy=energy,
        memory_traffic=shared.traffic,
        dram_energy=shared.dram.energy(int(result.cycles)),
        shared=shared,
        private=private,
    )
