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
from typing import Dict, Optional, Sequence

from repro.branch.predictors import make_predictor
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
    block_bytes: int = 64


def simulate_bfetch(
    entries: Sequence[DynamicInst] | Trace,
    config: Optional[SystemConfig] = None,
    bfetch: Optional[BFetchConfig] = None,
    warmup_entries: Optional[Sequence[DynamicInst]] = None,
) -> SimulationOutcome:
    """Simulate the baseline core augmented with B-Fetch."""
    config = config or SystemConfig()
    bfetch = bfetch or BFetchConfig()
    if isinstance(entries, Trace):
        entries = entries.entries
    elif not isinstance(entries, list):
        # A list is used as given: the run never mutates it, and a stable
        # id lets the decoded-trace memo hit on the window's other cells.
        entries = list(entries)

    shared, private, core = build_single_core(config)
    if warmup_entries:
        warm_memory_system(private, warmup_entries)

    walker_predictor = make_predictor(bfetch.predictor)
    last_address: Dict[int, int] = {}
    last_stride: Dict[int, int] = {}
    #: Number of future branches currently predicted correctly in a row.
    state = {"confidence": 0}

    def on_fetch(entry: DynamicInst, cycle: float) -> None:
        static = entry.static
        if static.is_branch:
            predicted = walker_predictor.predict(static.pc)
            walker_predictor.update(static.pc, bool(entry.taken))
            if predicted == bool(entry.taken):
                state["confidence"] = min(
                    bfetch.lookahead_branches, state["confidence"] + 1
                )
            else:
                state["confidence"] = 0
        if not static.is_load:
            return
        address = entry.effective_address
        previous = last_address.get(static.pc)
        if previous is not None:
            stride = address - previous
            if stride != 0 and stride == last_stride.get(static.pc):
                # Along a confidently predicted path, prefetch down the
                # stride proportionally to how far ahead the walker may run.
                if state["confidence"] >= 2:
                    reach = min(bfetch.distance, 1 + state["confidence"] // 2)
                    for step in range(1, reach + 1):
                        private.prefetch(address + step * stride, int(cycle), level="l1")
            last_stride[static.pc] = stride
        last_address[static.pc] = address

    result = core.run(entries, hooks=CoreHooks(on_fetch=on_fetch))
    energy = EnergyModel().evaluate(result)
    return SimulationOutcome(
        core=result,
        energy=energy,
        memory_traffic=shared.traffic,
        dram_energy=shared.dram.energy(int(result.cycles)),
        shared=shared,
        private=private,
    )
