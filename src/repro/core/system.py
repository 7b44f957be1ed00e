"""Single-core system assembly: the baseline ("BL") configurations.

This module wires a workload trace, a memory hierarchy, prefetchers and one
out-of-order core together — the configuration every DLA variant is compared
against.  The DLA system (two cores plus queues) lives in :mod:`repro.dla`.
It also warms the memory systems every simulation builds: each warm-up
replays its window's memory accesses into the fresh hierarchy
(:func:`warm_memory_systems`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.core.energy import EnergyBreakdown, EnergyModel
from repro.core.pipeline import CoreHooks, OutOfOrderCore
from repro.core.results import CoreResult
from repro.emulator.trace import Trace
from repro.memory.hierarchy import CoreMemorySystem, SharedMemorySystem
from repro.prefetch import make_prefetcher

@dataclass
class SimulationOutcome:
    """Everything an experiment needs from one single-core simulation."""

    core: CoreResult
    energy: EnergyBreakdown
    #: Total DRAM transfers (the paper's memory-traffic metric).
    memory_traffic: int
    #: Total DRAM energy over the run (arbitrary units).
    dram_energy: float
    shared: SharedMemorySystem = field(repr=False, default=None)
    private: CoreMemorySystem = field(repr=False, default=None)
    #: Unified memory-backend telemetry: one dict per level (``l1i``/``l1d``/
    #: ``l2``/``l3`` with ``mshr``/``write_buffer``/``writebacks`` slices)
    #: plus a ``dram`` entry (per-source traffic split, controller-queue
    #: counters).  Kept as a plain dict so it survives :func:`strip_outcome`
    #: and disk caching.
    memsys: Optional[Dict[str, Dict[str, object]]] = None

    @property
    def cycles(self) -> float:
        return self.core.cycles

    @property
    def ipc(self) -> float:
        return self.core.ipc


def _replay_warmup(memory: CoreMemorySystem, window: Trace,
                   cycles_per_access: int = 2, inputs=None) -> None:
    """Warm one core's caches/TLB by replaying a trace's memory behaviour.

    The paper warms the caches for 100M instructions before each SimPoint
    interval; this helper provides the equivalent for the (much shorter)
    traces used here.  Only the memory side is replayed — instruction blocks,
    loads, stores and TLB entries — which is all that persists into the timed
    region.

    With the compiled kernel available and a stock hierarchy the loop below
    runs natively (:func:`repro.core.compile.replay_compiled`) over the
    window's decoded ``inputs`` (decoded here when the caller has none);
    the loop itself is the reference the kernel transcribes.
    """
    from repro.core.compile import kernel_available, replay_compiled
    from repro.core.compile.decoded import replay_inputs
    from repro.core.compile.plan import stock_memory

    if kernel_available() and stock_memory(memory):
        replay_compiled(memory, inputs or replay_inputs(window),
                        cycles_per_access)
        return
    cycle = 0
    block = memory.config.l1i.block_bytes
    last_block = None
    access_inst = memory.access_inst_fast
    access_data = memory.access_data_fast
    for entry in window.entries:
        static = entry.static
        address = static.byte_address
        if address // block != last_block:
            last_block = address // block
            access_inst(address, cycle)
        if static.is_memory:
            access_data(entry.effective_address, cycle, static.is_store)
        cycle += cycles_per_access


class WarmupMemo:
    """Warms memory groups by replaying their warm-up window, keeping each
    window's decoded replay arrays.

    Every warm replays: natively (:func:`repro.core.compile.replay_compiled`)
    with the kernel and a stock hierarchy, else through the Python loop in
    :func:`_replay_warmup`.  A native replay of an 8k-instruction window
    takes about a millisecond, less than copying the warmed state out and
    back would, so no post-warm state is kept.  What every geometry
    replaying one window shares is its decode: the replay arrays are
    memoised per window content key (:attr:`~repro.emulator.trace.Trace.key`,
    which holds the window's root columns), in a FIFO of ``max_windows``.
    """

    #: Bound on memoised windows: enough for a full-eval campaign (34
    #: workloads, one warm-up window each, plus tests' cuts) while capping
    #: memory in long-lived processes that keep cutting fresh windows.
    MAX_WINDOWS = 256

    def __init__(self, max_windows: int = MAX_WINDOWS) -> None:
        self._inputs: Dict[tuple, tuple] = {}
        self.max_windows = max_windows
        self.replays = 0

    def warm(self, memories: Tuple[CoreMemorySystem, ...], window: Trace,
             cycles_per_access: int = 2) -> None:
        shared = memories[0].shared
        if any(memory.shared is not shared for memory in memories):
            raise ValueError("a warm group must share one SharedMemorySystem")
        inputs = self._replay_inputs(window)
        for memory in memories:
            _replay_warmup(memory, window, cycles_per_access, inputs)
        self.replays += 1

    def _replay_inputs(self, window: Trace):
        from repro.core.compile import kernel_available
        from repro.core.compile.decoded import replay_inputs

        if not kernel_available():
            return None
        key = window.key
        inputs = self._inputs.get(key)
        if inputs is None:
            while len(self._inputs) >= self.max_windows:
                del self._inputs[next(iter(self._inputs))]
            inputs = self._inputs[key] = replay_inputs(window)
        return inputs

    def clear(self) -> None:
        self._inputs.clear()


#: Process-wide memo shared by every simulation entry point.
_WARM_MEMO = WarmupMemo()


def warm_memo_stats() -> Dict[str, int]:
    """Replay counter of the process-wide warm-up memo.

    ``warm_restores`` is always 0, since every warm-up replays; the key
    stays because perfbench reads it for its per-layer table.
    """
    return {"warm_replays": _WARM_MEMO.replays, "warm_restores": 0}


def warm_memory_systems(memories: Sequence[CoreMemorySystem], window: Trace,
                        cycles_per_access: int = 2) -> None:
    """Warm a group of freshly-built cores sharing one shared system.

    The group replays in list order (order matters: earlier cores' misses
    populate the shared L3 the later cores then hit).
    """
    if not window:
        return
    _WARM_MEMO.warm(tuple(memories), window, cycles_per_access)
    # The timed region restarts the clock at 0 while warm replay ran on its
    # own (much later) cycle numbers: quiesce every contention resource
    # (MSHR files, write buffers, DRAM queues) so the warm window's
    # in-flight completion times cannot stall the timed region.
    for memory in memories:
        memory.drain_mshrs()
    memories[0].shared.drain_mshrs()


def warm_memory_system(memory: CoreMemorySystem, window: Trace,
                       cycles_per_access: int = 2) -> None:
    """Warm one core's caches/TLB (see :class:`WarmupMemo`)."""
    warm_memory_systems((memory,), window, cycles_per_access)


def build_single_core(config: SystemConfig, lookahead_mode: bool = False):
    """Construct (shared memory, private memory, core) for one configuration."""
    shared = SharedMemorySystem(config.memory)
    private = CoreMemorySystem(shared, config.memory, lookahead_mode=lookahead_mode)
    l1_pf = None
    if config.l1_prefetcher and config.l1_prefetcher != "none":
        l1_pf = make_prefetcher(config.l1_prefetcher)
    l2_pf = None
    if config.l2_prefetcher and config.l2_prefetcher != "none":
        l2_pf = make_prefetcher(config.l2_prefetcher)
    core = OutOfOrderCore(
        config.core, private, l1_prefetcher=l1_pf, l2_prefetcher=l2_pf
    )
    return shared, private, core


def simulate_baseline(
    window: Trace,
    config: Optional[SystemConfig] = None,
    hooks: Optional[CoreHooks] = None,
    collect_timings: bool = False,
    warmup_entries: Optional[Trace] = None,
) -> SimulationOutcome:
    """Simulate a committed trace window on a single conventional core.

    ``warmup_entries`` (typically the portion of the trace preceding the
    timed window) are replayed through the memory hierarchy before timing
    starts, so the measured region sees steady-state cache contents.
    """
    config = config or SystemConfig()
    shared, private, core = build_single_core(config)
    if warmup_entries:
        warm_memory_system(private, warmup_entries)
    result = core.run(window, hooks=hooks, collect_timings=collect_timings)
    energy = EnergyModel().evaluate(result)
    return SimulationOutcome(
        core=result,
        energy=energy,
        memory_traffic=shared.traffic,
        dram_energy=shared.dram.energy(int(result.cycles)),
        shared=shared,
        private=private,
        memsys={**private.memsys_telemetry(), **shared.memsys_telemetry()},
    )
