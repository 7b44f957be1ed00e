"""Single-core system assembly: the baseline ("BL") configurations.

This module wires a workload trace, a memory hierarchy, prefetchers and one
out-of-order core together — the configuration every DLA variant is compared
against.  The DLA system (two cores plus queues) lives in :mod:`repro.dla`.
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
    """Replays each warmup window once per (trace, cache geometry) and
    restores post-warm snapshots thereafter.

    Every simulation of one workload replays the same warmup window into a
    freshly-built memory system (~21 times per workload across the quick
    experiment matrix).  The post-warm state is fully determined by the
    warmup window's rows, the hierarchy geometry, the group of cores being
    warmed (order and look-ahead modes) and the replay pacing — so the
    first warm records a snapshot and every later structurally-identical
    warm restores it instead of replaying.

    Soundness requirements (all call sites satisfy them):

    * the memory systems are freshly constructed (pre-warm state is the
      canonical empty state);
    * every memory in a group shares one :class:`SharedMemorySystem`, and a
      multi-core warm always goes through one group call so the combined
      shared-level state is captured and restored atomically;
    * trace columns are never mutated.  Groups are keyed by the warm-up
      window's content key (:attr:`~repro.emulator.trace.Trace.key`: its
      root columns, which the key holds, and row range), so every window
      cut from one trace at one range shares a snapshot.
    """

    #: Bound on retained snapshots: enough for a full-eval campaign (34
    #: workloads x a few warm groups) while capping memory in long-lived
    #: processes that keep constructing fresh runners/trace windows.
    MAX_SNAPSHOTS = 256

    def __init__(self, max_snapshots: int = MAX_SNAPSHOTS) -> None:
        self._snapshots: Dict[tuple, tuple] = {}
        #: Kernel replay arrays per warm-up window key (every geometry
        #: replaying one window decodes it once).
        self._inputs: Dict[tuple, tuple] = {}
        self.max_snapshots = max_snapshots
        self.replays = 0
        self.restores = 0

    def _key(self, memories: Tuple[CoreMemorySystem, ...], window_key: tuple,
             cycles_per_access: int) -> tuple:
        from repro.experiments.fingerprint import fingerprint

        geometry = fingerprint(
            [memory.config for memory in memories],
            [memory.lookahead_mode for memory in memories],
        )
        return window_key, geometry, cycles_per_access

    def warm(self, memories: Tuple[CoreMemorySystem, ...], window: Trace,
             cycles_per_access: int = 2) -> None:
        shared = memories[0].shared
        if any(memory.shared is not shared for memory in memories):
            raise ValueError("a warm group must share one SharedMemorySystem")
        key = self._key(memories, window.key, cycles_per_access)
        snapshot = self._snapshots.get(key)
        if snapshot is None:
            inputs = self._replay_inputs(key[0], window)
            for memory in memories:
                _replay_warmup(memory, window, cycles_per_access, inputs)
            self.replays += 1
            self._evict_to_fit(key)
            self._snapshots[key] = (
                shared.snapshot_state(),
                tuple(memory.snapshot_state() for memory in memories),
            )
            return
        shared_state, memory_states = snapshot
        shared.restore_state(shared_state)
        for memory, state in zip(memories, memory_states):
            memory.restore_state(state)
        self.restores += 1

    def _replay_inputs(self, window_key: tuple, window: Trace):
        from repro.core.compile import kernel_available
        from repro.core.compile.decoded import replay_inputs

        if not kernel_available():
            return None
        inputs = self._inputs.get(window_key)
        if inputs is None:
            inputs = self._inputs[window_key] = replay_inputs(window)
        return inputs

    def _evict_to_fit(self, incoming_key: tuple) -> None:
        """Drop oldest snapshots (FIFO) so the memo stays bounded.

        A window's replay arrays go once *no* snapshot uses its window any
        more, ``incoming_key``'s (about to be inserted) included.
        """
        incoming_window = incoming_key[0]
        while len(self._snapshots) >= self.max_snapshots:
            victim_key = next(iter(self._snapshots))
            del self._snapshots[victim_key]
            window = victim_key[0]
            if window != incoming_window and not any(
                key[0] == window for key in self._snapshots
            ):
                self._inputs.pop(window, None)

    def clear(self) -> None:
        self._snapshots.clear()
        self._inputs.clear()


#: Process-wide memo shared by every simulation entry point.
_WARM_MEMO = WarmupMemo()


def warm_memo_stats() -> Dict[str, int]:
    """Replay/restore counters of the process-wide warmed-memory memo."""
    return {"warm_replays": _WARM_MEMO.replays, "warm_restores": _WARM_MEMO.restores}


def warm_memory_systems(memories: Sequence[CoreMemorySystem], window: Trace,
                        cycles_per_access: int = 2) -> None:
    """Warm a group of freshly-built cores sharing one shared system.

    The group warms in list order (order matters: earlier cores' misses
    populate the shared L3 the later cores then hit).  The memo snapshots
    and restores the whole group's post-warm state — private levels and the
    shared system — as a unit.
    """
    if not window:
        return
    _WARM_MEMO.warm(tuple(memories), window, cycles_per_access)
    # The timed region restarts the clock at 0 while warm replay ran on its
    # own (much later) cycle numbers: quiesce every contention resource
    # (MSHR files, write buffers, DRAM queues) so the warm window's
    # in-flight completion times cannot stall the timed region.  The
    # drain runs after both the replay and the restore path, so warm-vs-cold
    # outcomes stay bit-identical.
    for memory in memories:
        memory.drain_mshrs()
    memories[0].shared.drain_mshrs()


def warm_memory_system(memory: CoreMemorySystem, window: Trace,
                       cycles_per_access: int = 2) -> None:
    """Warm one core's caches/TLB (memoized; see :class:`WarmupMemo`)."""
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
