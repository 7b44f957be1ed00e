"""The coupled DLA / R3-DLA system simulation.

``DlaSystem`` runs the two-core decoupled look-ahead machine over a committed
dynamic trace:

1. The **look-ahead pass** filters the trace through the skeleton mask and
   runs it on the leading core (whose private caches are in look-ahead
   containment mode and which shares the L3/DRAM with the main core).  Its
   commits produce the BOQ branch stream, FQ prefetch hints (its own L1
   misses) and value-reuse hint times.
2. The **main-thread pass** runs the full trace on the trailing core with
   those hints wired in through :class:`~repro.dla.hints.MainThreadHintSource`
   (a hint unit the compiled kernel runs natively): branch directions come
   from the BOQ (stalling fetch when the look-ahead has not produced them
   yet, throttled to the BOQ capacity), prefetch/TLB hints are installed
   just in time, value predictions shortcut long-latency producers, the T1
   engine handles marked strided loads, and incorrect hints trigger
   look-ahead reboots that push all later hints back.

Because the look-ahead thread's private cache contents and register state are
speculative and never escape its core, simulating it from the *architectural*
trace (rather than re-executing a possibly-divergent skeleton) is a faithful
model everywhere except immediately after the rare control divergences, which
are accounted for by the reboot mechanism.

The class also supports segmented simulation — consecutive trace regions run
under different skeleton versions with all microarchitectural state carried
across the boundary — which is what the recycle controller uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.compile.hookspec import CommitLog, CompiledHookSpec
from repro.core.config import SystemConfig
from repro.core.energy import EnergyBreakdown, EnergyModel
from repro.core.pipeline import CoreHooks, OutOfOrderCore
from repro.core.results import CoreResult
from repro.dla.config import DlaConfig
from repro.dla.hints import LookaheadProducts, MainThreadHintSource
from repro.dla.profiling import ProgramProfile, profile_workload
from repro.dla.queues import BranchOutcomeQueue, FootnoteQueue, communication_bits_per_instruction
from repro.dla.skeleton import Skeleton, SkeletonBuilder, SkeletonOptions
from repro.dla.t1 import T1Config, T1PrefetchEngine
from repro.emulator.trace import Trace
from repro.isa.program import Program
from repro.memory.hierarchy import CoreMemorySystem, SharedMemorySystem
from repro.prefetch import make_prefetcher
from repro.util.rng import DeterministicRng


class _FilteredTraceCache:
    """Bounded memo of skeleton look-ahead windows.

    The recycle controller and the figure sweeps simulate one trace window
    under many skeletons, and each skeleton many times; the look-ahead
    window of a ``(window, included_pcs)`` pair is the same selection
    (:meth:`~repro.emulator.trace.Trace.select`) every time.  Keyed by the
    window's content key and the PCs, so every trace object naming the
    same rows shares one selection (and, downstream, its decoded arrays).
    """

    MAX_ENTRIES = 256

    def __init__(self) -> None:
        self._selections: Dict[Tuple[tuple, frozenset], Trace] = {}

    def get(self, window: Trace, included_pcs: frozenset) -> Trace:
        key = (window.key, included_pcs)
        selection = self._selections.get(key)
        if selection is None:
            selection = window.select(included_pcs)
            while len(self._selections) >= self.MAX_ENTRIES:
                del self._selections[next(iter(self._selections))]
            self._selections[key] = selection
        return selection


#: Process-wide: windows and skeletons are shared across DlaSystem instances.
_FILTERED = _FilteredTraceCache()


@dataclass
class DlaOutcome:
    """Results of one DLA co-simulation."""

    main: CoreResult
    lookahead: CoreResult
    skeleton_dynamic_fraction: float
    reboots: int
    boq_incorrect: int
    prefetch_hints_installed: int
    communication_bits_per_instruction: float
    validations_skipped: int
    memory_traffic: int
    dram_energy: float
    main_energy: EnergyBreakdown
    lookahead_energy: EnergyBreakdown
    #: Names of the R3 optimizations that were active.
    optimizations: Tuple[str, ...] = ()
    #: Unified memory-backend telemetry: {"main": {...}, "lookahead": {...},
    #: "shared": {...}} where each domain holds per-level dicts (``mshr``/
    #: ``write_buffer``/``writebacks`` slices, plus ``dram`` under
    #: ``shared``).
    memsys: Optional[Dict[str, Dict[str, Dict[str, object]]]] = None

    @property
    def cycles(self) -> float:
        return self.main.cycles

    @property
    def ipc(self) -> float:
        return self.main.ipc

    @property
    def cpu_energy(self) -> float:
        return self.main_energy.total + self.lookahead_energy.total


class DlaSystem:
    """Two-core decoupled look-ahead machine for one program."""

    def __init__(
        self,
        program: Program,
        system_config: Optional[SystemConfig] = None,
        dla_config: Optional[DlaConfig] = None,
        profile: Optional[ProgramProfile] = None,
        training_trace: Optional[Trace] = None,
    ) -> None:
        self.program = program
        self.system_config = system_config or SystemConfig()
        self.dla_config = dla_config or DlaConfig()
        if profile is None:
            if training_trace is None:
                raise ValueError("either a profile or a training trace is required")
            profile = profile_workload(program, training_trace, self.system_config)
        self.profile = profile
        self.builder = SkeletonBuilder(program, profile)
        self._risky_cache: Dict[frozenset, Set[int]] = {}

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def default_skeleton(self) -> Skeleton:
        """The skeleton this configuration would run with (no recycling)."""
        options = SkeletonOptions(
            name="default",
            include_value_targets=self.dla_config.enable_value_reuse,
            keep_t1_targets=not self.dla_config.enable_t1,
        )
        return self.builder.build(options, enable_t1=self.dla_config.enable_t1)

    def simulate(self, trace: Trace, skeleton: Optional[Skeleton] = None,
                 warmup_entries: Optional[Trace] = None) -> DlaOutcome:
        """Run a whole trace window under one skeleton.

        ``warmup_entries`` are replayed through both cores' private caches
        (and therefore the shared L3) before the timed region begins.
        """
        skeleton = skeleton or self.default_skeleton()
        state = self._fresh_state()
        if warmup_entries:
            self._warm(state, warmup_entries)
        segment = self._run_segment(state, trace, skeleton)
        return self._finalize(state, [segment])

    def simulate_segmented(
        self,
        plan: Sequence[Tuple[Trace, Skeleton]],
        warmup_entries: Optional[Trace] = None,
    ) -> DlaOutcome:
        """Run consecutive trace segments, each under its own skeleton.

        Microarchitectural state (caches, predictors, DRAM, clocks) persists
        across segments, which is what makes per-loop skeleton recycling
        meaningful.
        """
        if not plan:
            raise ValueError("plan must contain at least one segment")
        state = self._fresh_state()
        if warmup_entries:
            self._warm(state, warmup_entries)
        segments = [self._run_segment(state, window, skeleton)
                    for window, skeleton in plan]
        return self._finalize(state, segments)

    # ------------------------------------------------------------------
    # internal machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _warm(state: "_State", warmup_entries: Trace) -> None:
        from repro.core.system import warm_memory_systems

        # One group call, main core first: the look-ahead core's replay
        # then sees the shared L3/DRAM the main core's replay filled.
        warm_memory_systems((state.mt_memory, state.lt_memory), warmup_entries)

    @dataclass
    class _State:
        shared: SharedMemorySystem
        mt_memory: CoreMemorySystem
        lt_memory: CoreMemorySystem
        mt_core: OutOfOrderCore
        lt_core: OutOfOrderCore
        t1: Optional[T1PrefetchEngine]
        boq: BranchOutcomeQueue
        fq: FootnoteQueue
        rng: DeterministicRng
        mt_clock: float = 0.0
        lt_clock: float = 0.0
        reboots: int = 0
        prefetch_hints_installed: int = 0
        lt_dynamic_instructions: int = 0
        mt_dynamic_instructions: int = 0

    def _fresh_state(self) -> "_State":
        sys_cfg = self.system_config
        dla_cfg = self.dla_config
        shared = SharedMemorySystem(sys_cfg.memory)
        mt_memory = CoreMemorySystem(shared, sys_cfg.memory)
        lt_memory = CoreMemorySystem(shared, sys_cfg.memory, lookahead_mode=True)

        fetch_buffer = (
            dla_cfg.fetch_buffer_entries
            if dla_cfg.enable_fetch_buffer
            else dla_cfg.baseline_fetch_buffer_entries
        )
        mt_core_cfg = sys_cfg.with_overrides(
            name="main-thread", fetch_buffer_entries=fetch_buffer
        ).core
        lt_core_cfg = sys_cfg.with_overrides(name="look-ahead").core

        mt_l1_pf = (
            make_prefetcher(sys_cfg.l1_prefetcher)
            if sys_cfg.l1_prefetcher not in (None, "none")
            else None
        )
        mt_l2_pf = (
            make_prefetcher(sys_cfg.l2_prefetcher)
            if sys_cfg.l2_prefetcher not in (None, "none")
            else None
        )
        lt_l2_pf = (
            make_prefetcher(sys_cfg.l2_prefetcher)
            if sys_cfg.l2_prefetcher not in (None, "none")
            else None
        )

        mt_core = OutOfOrderCore(mt_core_cfg, mt_memory,
                                 l1_prefetcher=mt_l1_pf, l2_prefetcher=mt_l2_pf,
                                 name="main-thread")
        lt_core = OutOfOrderCore(lt_core_cfg, lt_memory,
                                 l2_prefetcher=lt_l2_pf, name="look-ahead")

        t1 = None
        if dla_cfg.enable_t1:
            t1 = T1PrefetchEngine(
                marked_pcs=self.profile.strided_pcs(),
                memory=mt_memory,
                config=T1Config(entries=dla_cfg.t1_entries),
            )
        return self._State(
            shared=shared,
            mt_memory=mt_memory,
            lt_memory=lt_memory,
            mt_core=mt_core,
            lt_core=lt_core,
            t1=t1,
            boq=BranchOutcomeQueue(dla_cfg.boq_entries),
            fq=FootnoteQueue(dla_cfg.fq_entries),
            rng=DeterministicRng(dla_cfg.seed),
        )

    # -- look-ahead pass ----------------------------------------------------
    def _lookahead_pass(self, state: "_State", window: Trace,
                        skeleton: Skeleton) -> Tuple[LookaheadProducts, CoreResult]:
        lt_window = _FILTERED.get(window, skeleton.included_pcs)
        state.lt_dynamic_instructions += len(lt_window)
        commits = CommitLog(pcs=tuple(sorted(self._value_target_pcs(skeleton))))
        misses: List[Tuple[float, int]] = []
        # Both products are declared logs, which either engine fills.
        hooks = CoreHooks(fast_hints=CompiledHookSpec(commit_log=commits,
                                                      load_miss_log=misses))
        result = state.lt_core.run(lt_window, hooks=hooks, start_cycle=state.lt_clock)
        addresses = lt_window.columns.ea
        prefetch_hints = [(cycle, addresses[i]) for cycle, i in misses]
        prefetch_hints.sort(key=lambda item: item[0])
        return LookaheadProducts(lt_window, commits, prefetch_hints), result

    # -- main-thread pass ------------------------------------------------------
    def _main_pass(self, state: "_State", window: Trace,
                   skeleton: Skeleton,
                   products: LookaheadProducts) -> Tuple[CoreResult, MainThreadHintSource]:
        bias_direction = {
            pc: self.profile.branches[pc].taken_ratio >= 0.5
            for pc in skeleton.biased_branch_pcs
            if pc in self.profile.branches
        }
        hint_source = MainThreadHintSource(
            products=products,
            dla_config=self.dla_config,
            memory=state.mt_memory,
            boq=state.boq,
            fq=state.fq,
            risky_branch_pcs=self._risky_branch_pcs(skeleton),
            biased_branch_pcs=set(skeleton.biased_branch_pcs),
            branch_bias_direction=bias_direction,
            t1_engine=state.t1,
            rng=state.rng,
        )
        state.mt_dynamic_instructions += len(window)
        result = state.mt_core.run(window, hooks=hint_source.hooks(),
                                   start_cycle=state.mt_clock)
        hint_source.settle()
        return result, hint_source

    def _run_segment(self, state: "_State", window: Trace,
                     skeleton: Skeleton) -> Tuple[CoreResult, CoreResult]:
        if not window:
            empty = CoreResult(name="main-thread")
            return empty, CoreResult(name="look-ahead")
        # The two passes model concurrent threads but run back to back on
        # their own clocks, sharing the L3.  Quiesce the shared contention
        # resources (L3 MSHRs and write buffer, DRAM queues) at each
        # handoff: one pass's in-flight completion times live in the other
        # pass's future and would otherwise read as permanently-full files.
        # (Line fill times intentionally do carry across — that aliasing is
        # how the look-ahead thread's L3 warming reaches the main thread.)
        state.shared.drain_mshrs()
        products, lt_result = self._lookahead_pass(state, window, skeleton)
        state.shared.drain_mshrs()
        mt_result, hint_source = self._main_pass(state, window, skeleton, products)
        state.mt_clock += mt_result.cycles
        # The look-ahead thread cannot finish a segment before the main
        # thread starts consuming it, but in steady state it tracks at most a
        # BOQ-depth ahead of the main thread; advancing its clock by its own
        # busy time models its (faster) progress.
        state.lt_clock += lt_result.cycles
        state.reboots += hint_source.unit.reboots
        state.prefetch_hints_installed += hint_source.unit.prefetches_installed
        return mt_result, lt_result

    # -- result assembly ------------------------------------------------------
    def _finalize(self, state: "_State",
                  segments: Sequence[Tuple[CoreResult, CoreResult]]) -> DlaOutcome:
        main = CoreResult(name="main-thread")
        lookahead = CoreResult(name="look-ahead")
        for mt_result, lt_result in segments:
            main.accumulate(mt_result)
            lookahead.accumulate(lt_result)

        energy_model = EnergyModel()
        main_energy = energy_model.evaluate(main, includes_dla_structures=True)
        # The look-ahead core is powered for the whole execution; its static
        # energy therefore accrues over the main thread's cycles even though
        # its own busy time is shorter.
        lookahead_for_energy = lookahead
        lookahead_energy = energy_model.evaluate(lookahead_for_energy,
                                                 is_lookahead=True,
                                                 includes_dla_structures=True)
        lookahead_energy.static = (
            lookahead_energy.static / lookahead.cycles * main.cycles
            if lookahead.cycles
            else lookahead_energy.static
        )
        lookahead_energy.cycles = main.cycles if main.cycles else lookahead.cycles

        fraction = (
            state.lt_dynamic_instructions / state.mt_dynamic_instructions
            if state.mt_dynamic_instructions
            else 0.0
        )
        return DlaOutcome(
            main=main,
            lookahead=lookahead,
            skeleton_dynamic_fraction=fraction,
            reboots=state.reboots,
            boq_incorrect=state.boq.incorrect,
            prefetch_hints_installed=state.prefetch_hints_installed,
            communication_bits_per_instruction=communication_bits_per_instruction(
                state.boq, state.fq, main.committed
            ),
            validations_skipped=main.validations_skipped,
            memory_traffic=state.shared.traffic,
            dram_energy=state.shared.dram.energy(int(main.cycles)),
            main_energy=main_energy,
            lookahead_energy=lookahead_energy,
            optimizations=self.dla_config.enabled_optimizations,
            memsys={
                "main": state.mt_memory.memsys_telemetry(),
                "lookahead": state.lt_memory.memsys_telemetry(),
                "shared": state.shared.memsys_telemetry(),
            },
        )

    # ------------------------------------------------------------------
    # skeleton-derived sets
    # ------------------------------------------------------------------
    def _value_target_pcs(self, skeleton: Skeleton) -> Set[int]:
        """Static PCs eligible for value reuse under this skeleton."""
        if not self.dla_config.enable_value_reuse:
            return set()
        slow = set(
            self.profile.slow_pcs(self.dla_config.slow_instruction_threshold)
        )
        return {pc for pc in slow if skeleton.contains(pc)}

    def _risky_branch_pcs(self, skeleton: Skeleton) -> Set[int]:
        """Branches whose look-ahead outcome may be stale.

        A branch is *risky* when its backward dependence chain contains a
        load whose producing store (same base register and displacement) is
        not part of the skeleton: the look-ahead thread would then read a
        stale value and can steer down the wrong path, forcing a reboot.
        """
        key = skeleton.included_pcs
        if key in self._risky_cache:
            return self._risky_cache[key]
        program = self.program
        chains = self.builder.analysis.chains
        store_signatures: Dict[Tuple[int, int], List[int]] = {}
        for inst in program:
            if inst.is_store and inst.srcs:
                store_signatures.setdefault((inst.srcs[0], inst.imm), []).append(inst.pc)

        risky: Set[int] = set()
        for branch_pc in program.branch_pcs():
            # Walk the branch's slice (bounded) looking for vulnerable loads.
            stack = [branch_pc]
            seen: Set[int] = set()
            vulnerable = False
            while stack and not vulnerable:
                pc = stack.pop()
                if pc in seen:
                    continue
                seen.add(pc)
                inst = program[pc]
                if inst.is_load and inst.srcs:
                    for store_pc in store_signatures.get((inst.srcs[0], inst.imm), ()):
                        if not skeleton.contains(store_pc):
                            vulnerable = True
                            break
                stack.extend(chains.get(pc, ()))
            if vulnerable:
                risky.add(branch_pc)
        self._risky_cache[key] = risky
        return risky
