"""Implicit-parallelism limit study (Fig. 1 of the paper).

The paper motivates decoupled look-ahead by measuring how much parallelism a
program exposes when inspected with a moving window of 128/512/2048
instructions, under two supply assumptions:

* **ideal** — perfect branch prediction and a perfect cache: only true data
  dependences and the window bound the schedule;
* **real** — realistic branch misprediction and cache-miss behaviour further
  serialise the schedule.

The measurement below is the classic dataflow limit study: each dynamic
instruction is scheduled at the earliest cycle permitted by (a) its source
operands, (b) the retirement of the instruction one window-length earlier,
and, for the *real* variant, (c) the most recent mispredicted branch's
resolution plus a redirect penalty, with load latencies taken from a cache
simulation instead of a fixed one-cycle ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.branch.predictors import TageLitePredictor
from repro.core.config import SystemConfig
from repro.emulator.trace import DynamicInst, Trace
from repro.memory.hierarchy import AccessType, CoreMemorySystem, SharedMemorySystem


@dataclass
class IlpResult:
    """IPC under each window size, for ideal and realistic supply."""

    ideal: Dict[int, float]
    real: Dict[int, float]

    def ratio(self, window: int) -> float:
        """How much parallelism the supply subsystem leaves unexploited."""
        if self.real.get(window, 0.0) == 0.0:
            return float("inf")
        return self.ideal[window] / self.real[window]


def _schedule(entries: Sequence[DynamicInst], window: int,
              load_latency: Optional[List[float]] = None,
              mispredicted: Optional[List[bool]] = None,
              mispredict_penalty: int = 14) -> float:
    """Dataflow-schedule the trace; returns the resulting IPC."""
    n = len(entries)
    if n == 0:
        return 0.0
    finish: List[float] = [0.0] * n
    reg_ready: Dict[int, float] = {}
    fetch_barrier = 0.0
    for i, entry in enumerate(entries):
        static = entry.static
        start = fetch_barrier
        if i >= window:
            start = max(start, finish[i - window])
        for src in static.srcs:
            start = max(start, reg_ready.get(src, 0.0))
        if static.is_load and load_latency is not None:
            latency = load_latency[i]
        else:
            latency = float(static.execution_latency)
        finish[i] = start + latency
        if static.writes_register:
            reg_ready[static.dst] = finish[i]
        if mispredicted is not None and static.is_branch and mispredicted[i]:
            fetch_barrier = max(fetch_barrier, finish[i] + mispredict_penalty)
    return n / max(finish)


def measure_implicit_parallelism(
    trace: Trace,
    windows: Sequence[int] = (128, 512, 2048),
    config: Optional[SystemConfig] = None,
) -> IlpResult:
    """Measure ideal/real IPC for each window size (the Fig. 1 experiment)."""
    config = config or SystemConfig()
    entries = trace.entries

    # Realistic load latencies from a cache replay, and realistic branch
    # misprediction flags from the core's TAGE-lite predictor.
    shared = SharedMemorySystem(config.memory)
    memory = CoreMemorySystem(shared, config.memory)
    predictor = TageLitePredictor()
    load_latency: List[float] = [0.0] * len(entries)
    mispredicted: List[bool] = [False] * len(entries)
    cycle = 0
    for i, entry in enumerate(entries):
        static = entry.static
        if static.is_load:
            access = memory.access(entry.effective_address, cycle, AccessType.LOAD)
            load_latency[i] = float(max(1, access.latency))
        elif static.is_store:
            memory.access(entry.effective_address, cycle, AccessType.STORE)
        elif static.is_branch:
            taken = bool(entry.taken)
            mispredicted[i] = predictor.predict(static.pc) != taken
            predictor.update(static.pc, taken)
        cycle += 1

    ideal = {w: _schedule(entries, w) for w in windows}
    real = {
        w: _schedule(entries, w, load_latency=load_latency, mispredicted=mispredicted)
        for w in windows
    }
    return IlpResult(ideal=ideal, real=real)
