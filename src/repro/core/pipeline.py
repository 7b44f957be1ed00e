"""The out-of-order core timing model.

The model walks the committed dynamic trace in program order and assigns each
instruction fetch / dispatch / issue / complete / commit timestamps subject to
the machine's structural and dataflow constraints.  Because the trace already
contains only committed (right-path) instructions, wrong-path work is modelled
separately: each misprediction charges front-end refill time and injects a
bounded amount of wrong-path cache pollution.

Hook points (see :class:`CoreHooks`) let the DLA machinery replace the branch
predictor with the Branch Outcome Queue, supply value predictions from the
look-ahead thread, observe commits (to produce hints), and install just-in-time
prefetches — without the baseline model knowing anything about DLA.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.branch.btb import BranchTargetBuffer
from repro.branch.predictors import TageLitePredictor
from repro.branch.ras import ReturnAddressStack
from repro.core.config import CoreConfig
from repro.core.results import CoreResult, InstructionTimings
from repro.emulator.trace import DynamicInst, Trace
from repro.isa.instructions import FU_POOL_FP, Opcode
from repro.memory.hierarchy import CoreMemorySystem, access_result
from repro.prefetch.base import Prefetcher


@dataclass
class BranchHint:
    """A branch-direction hint delivered through the BOQ."""

    #: Cycle at which the hint can be consumed by the main thread's fetch.
    available: float
    #: Whether the hinted direction matches the architectural outcome.
    correct: bool = True
    #: Whether a target hint accompanies the direction (footnote entry),
    #: suppressing BTB-miss bubbles.
    has_target: bool = True


@dataclass
class ValueHint:
    """A value prediction delivered through the footnote queue."""

    available: float
    correct: bool = True
    #: True when validation can be skipped entirely (all sources predicted).
    skip_validation: bool = False


@dataclass
class CoreHooks:
    """Optional callbacks that extend the core for DLA-style experiments."""

    #: Called per conditional branch; returning a hint bypasses the predictor.
    branch_hint: Optional[Callable[[DynamicInst], Optional[BranchHint]]] = None
    #: Called per instruction; returning a hint enables value reuse for it.
    value_hint: Optional[Callable[[DynamicInst], Optional[ValueHint]]] = None
    #: Called after each instruction commits.
    on_commit: Optional[Callable[[DynamicInst, float], None]] = None
    #: Called when an instruction is fetched (before its memory access).
    on_fetch: Optional[Callable[[DynamicInst, float], None]] = None
    #: Called when a BOQ hint turns out wrong; receives (inst, resolve_cycle).
    on_hint_mispredict: Optional[Callable[[DynamicInst, float], None]] = None
    #: Called after every demand load and store with (inst, AccessResult,
    #: cycle); the result is a view of the hierarchy's packed access word.
    #: Unless a declaration covers it (``CompiledHookSpec.runahead``), the
    #: hook sends the run to the reference interpreter; a hook that only
    #: logs L1-missing loads should declare ``load_miss_log`` instead.
    on_memory_access: Optional[Callable[[DynamicInst, object, float], None]] = None
    #: Optional :class:`repro.core.compile.hookspec.CompiledHookSpec` letting
    #: the compiled kernel do the hooks' work natively.  The reference
    #: interpreter runs the hooks and honours only its two logs.
    fast_hints: Optional[object] = None


class _FunctionalUnitPool:
    """Earliest-available scheduling over a small pool of identical units.

    Backed by a min-heap of ``(free_at, unit_index)`` pairs so a reservation
    is O(log n) instead of the O(n) min-scan of the original implementation.
    Ties on ``free_at`` resolve to the lowest unit index, matching the
    linear scan's first-minimum choice, so the two implementations produce
    identical reservation sequences (see ``_LinearFunctionalUnitPool``).
    """

    __slots__ = ("_heap",)

    def __init__(self, count: int) -> None:
        self._heap = [(0.0, i) for i in range(max(1, count))]

    def reserve(self, earliest: float, busy_for: float) -> float:
        free_at, index = self._heap[0]
        start = free_at if free_at > earliest else earliest
        heapq.heapreplace(self._heap, (start + busy_for, index))
        return start


class _LinearFunctionalUnitPool:
    """Reference O(n) implementation kept for equivalence testing."""

    def __init__(self, count: int) -> None:
        self._free_at = [0.0] * max(1, count)

    def reserve(self, earliest: float, busy_for: float) -> float:
        index = min(range(len(self._free_at)), key=self._free_at.__getitem__)
        start = max(earliest, self._free_at[index])
        self._free_at[index] = start + busy_for
        return start


class OutOfOrderCore:
    """Timing model of one out-of-order core."""

    def __init__(
        self,
        config: CoreConfig,
        memory: CoreMemorySystem,
        l1_prefetcher: Optional[Prefetcher] = None,
        l2_prefetcher: Optional[Prefetcher] = None,
        name: Optional[str] = None,
    ) -> None:
        self.config = config
        self.memory = memory
        self.name = name or config.name
        self.l1_prefetcher = l1_prefetcher
        self.l2_prefetcher = l2_prefetcher
        self.predictor = TageLitePredictor()
        self.btb = BranchTargetBuffer(config.btb_entries)
        self.ras = ReturnAddressStack(config.ras_entries)
        self._block_bytes = memory.config.l1i.block_bytes

    # ------------------------------------------------------------------
    def run(
        self,
        window: Trace,
        hooks: Optional[CoreHooks] = None,
        start_cycle: float = 0.0,
        collect_timings: bool = False,
    ) -> CoreResult:
        """Simulate a trace window and return aggregate statistics.

        ``start_cycle`` offsets the whole execution, which the DLA system uses
        when restarting a look-ahead thread after a reboot.  The compiled
        path reads the window's columns; this interpreter, the reference,
        reads its :class:`DynamicInst` entries.
        """
        cfg = self.config
        hooks = hooks or CoreHooks()

        from repro.core.compile import maybe_run_compiled

        compiled = maybe_run_compiled(self, window, hooks, start_cycle,
                                      collect_timings)
        if compiled is not None:
            return compiled

        entries = window.entries
        result = CoreResult(name=self.name)
        n = len(entries)
        if n == 0:
            if collect_timings:
                result.timings = InstructionTimings()
            return result

        fetch_times: List[float] = [0.0] * n
        dispatch_times: List[float] = [0.0] * n
        commit_times: List[float] = [0.0] * n

        issue_times: List[float] = []
        complete_times: List[float] = []

        reg_ready: Dict[int, float] = {}
        int_pool = _FunctionalUnitPool(cfg.num_int_alus)
        mem_pool = _FunctionalUnitPool(cfg.num_mem_ports)
        fp_pool = _FunctionalUnitPool(cfg.num_fp_units)

        fetch_cursor = start_cycle            # earliest cycle fetch may use
        fetch_redirect_at = start_cycle       # earliest fetch after a redirect
        prev_dispatch = start_cycle
        prev_commit = start_cycle
        current_block = None
        block_ready = start_cycle

        mem_indices: List[int] = []           # trace indices of memory ops (LSQ)
        last_load_address: Optional[int] = None  # wrong-path pollution base
        fetch_inc = 1.0 / cfg.fetch_width
        dispatch_inc = 1.0 / cfg.decode_width
        commit_inc = 1.0 / cfg.commit_width

        fetch_bound = 0

        # Hot-loop locals: every per-instruction attribute chase hoisted out.
        hook_branch_hint = hooks.branch_hint
        hook_value_hint = hooks.value_hint
        hook_on_commit = hooks.on_commit
        hook_on_fetch = hooks.on_fetch
        hook_on_memory = hooks.on_memory_access
        fast = hooks.fast_hints
        miss_log = fast.load_miss_log if fast is not None else None
        access_inst = self.memory.access_inst_fast
        access_data = self.memory.access_data_fast
        block_bytes = self._block_bytes
        fetch_buffer_entries = cfg.fetch_buffer_entries
        frontend_latency = cfg.frontend_latency
        rob_entries = cfg.rob_entries
        lsq_entries = cfg.lsq_entries
        run_prefetchers = self._run_prefetchers
        has_prefetchers = self.l1_prefetcher is not None or self.l2_prefetcher is not None
        reg_ready_get = reg_ready.get
        mem_reserve = mem_pool.reserve
        int_reserve = int_pool.reserve
        fp_reserve = fp_pool.reserve

        for i, entry in enumerate(entries):
            static = entry.static

            # ---------------- fetch ----------------
            fetch_time = (
                fetch_cursor if fetch_cursor > fetch_redirect_at else fetch_redirect_at
            )

            # Fetch-buffer decoupling: fetch may run at most
            # ``fetch_buffer_entries`` instructions ahead of dispatch.
            if i >= fetch_buffer_entries:
                fb_gate = dispatch_times[i - fetch_buffer_entries]
                if fb_gate > fetch_time:
                    fetch_time = fb_gate

            # I-cache: a new block has to be fetched from the memory system.
            byte_address = static.byte_address
            block = byte_address // block_bytes
            if block != current_block:
                block_ready, info = access_inst(byte_address, int(fetch_time))
                result.l1i_accesses += 1
                if info & 1:
                    result.l1i_misses += 1
                current_block = block
            if block_ready > fetch_time:
                fetch_time = block_ready

            # Branch-direction hints (BOQ) gate the fetch of the branch itself.
            hint: Optional[BranchHint] = None
            if static.is_branch:
                if hook_branch_hint is not None:
                    hint = hook_branch_hint(entry)
                if hint is not None and hint.available > fetch_time:
                    result.fetch_stall_on_hint += hint.available - fetch_time
                    fetch_time = hint.available

            fetch_times[i] = fetch_time
            fetch_cursor = fetch_time + fetch_inc
            if hook_on_fetch is not None:
                hook_on_fetch(entry, fetch_time)

            # ---------------- dispatch ----------------
            dispatch_time = fetch_time + frontend_latency
            lane_gate = prev_dispatch + dispatch_inc
            if lane_gate > dispatch_time:
                dispatch_time = lane_gate
            if i >= rob_entries:
                rob_gate = commit_times[i - rob_entries]
                if rob_gate > dispatch_time:
                    dispatch_time = rob_gate
            if static.is_memory:
                if len(mem_indices) >= lsq_entries:
                    lsq_gate = commit_times[mem_indices[-lsq_entries]]
                    if lsq_gate > dispatch_time:
                        dispatch_time = lsq_gate
                mem_indices.append(i)
            dispatch_times[i] = dispatch_time
            if dispatch_time - fetch_time <= frontend_latency + 1e-9:
                fetch_bound += 1
            prev_dispatch = dispatch_time
            result.decoded += 1

            # ---------------- value reuse ----------------
            value_hint: Optional[ValueHint] = None
            if hook_value_hint is not None:
                candidate = hook_value_hint(entry)
                if candidate is not None and candidate.available <= dispatch_time:
                    value_hint = candidate

            # ---------------- issue / execute ----------------
            ready = dispatch_time + 1.0
            for src in static.srcs:
                src_ready = reg_ready_get(src, start_cycle)
                if src_ready > ready:
                    ready = src_ready

            executed = True
            if value_hint is not None and value_hint.skip_validation:
                # All sources were themselves value-predicted: no execution.
                complete = dispatch_time + 1.0
                executed = False
                result.validations_skipped += 1
            elif static.is_memory:
                issue = mem_reserve(ready, 1.0)
                address = entry.effective_address
                if static.is_load:
                    now = int(issue)
                    data_ready, info = access_data(address, now, False)
                    result.l1d_accesses += 1
                    if info & 1:
                        result.l1d_misses += 1
                        if info & 2:
                            result.l2_misses += 1
                        if miss_log is not None:
                            miss_log.append((issue, i))
                    if info & 4:
                        result.dram_accesses += 1
                    complete = float(data_ready)
                    if has_prefetchers:
                        run_prefetchers(static.pc, address, info, now)
                    last_load_address = address
                    if hook_on_memory is not None:
                        hook_on_memory(entry, access_result(data_ready, info, now),
                                       issue)
                else:
                    # Stores leave the critical path at issue; the write and
                    # its traffic are charged at commit below.
                    complete = issue + 1.0
            else:
                latency = static.latency_cycles
                if static.fu_pool == FU_POOL_FP:
                    issue = fp_reserve(ready, latency)
                else:
                    issue = int_reserve(ready, 1.0)
                complete = issue + latency

            if value_hint is not None and not value_hint.skip_validation:
                result.value_predictions_used += 1
                if value_hint.correct:
                    # Dependents may proceed with the predicted value right
                    # after dispatch; the instruction still executes to
                    # validate, off the critical path.
                    if static.writes_register:
                        reg_ready[static.dst] = dispatch_time + 1.0
                else:
                    result.value_mispredictions += 1
                    complete += cfg.value_mispredict_penalty
                    if static.writes_register:
                        reg_ready[static.dst] = complete
            else:
                if static.writes_register:
                    reg_ready[static.dst] = (
                        dispatch_time + 1.0
                        if value_hint is not None and value_hint.skip_validation
                        else complete
                    )

            if executed:
                result.executed += 1

            # ---------------- control flow ----------------
            if static.is_control:
                redirect = self._handle_control(
                    entry, fetch_time, complete, hint, hooks, result
                )
                if redirect is not None:
                    fetch_redirect_at = max(fetch_redirect_at, redirect)
                    self._wrong_path_pollution(
                        last_load_address, fetch_time, result
                    )

            # ---------------- commit ----------------
            commit_time = prev_commit + commit_inc
            if complete > commit_time:
                commit_time = complete
            commit_times[i] = commit_time
            prev_commit = commit_time
            result.committed += 1

            if static.is_store:
                address = entry.effective_address
                now = int(commit_time)
                data_ready, info = access_data(address, now, True)
                result.l1d_accesses += 1
                if info & 1:
                    result.l1d_misses += 1
                    if info & 2:
                        result.l2_misses += 1
                if info & 4:
                    result.dram_accesses += 1
                if has_prefetchers:
                    run_prefetchers(static.pc, address, info, now)
                if hook_on_memory is not None:
                    hook_on_memory(entry, access_result(data_ready, info, now),
                                   commit_time)

            if hook_on_commit is not None:
                hook_on_commit(entry, commit_time)

            if collect_timings:
                issue_times.append(complete if not executed else (
                    complete - (0.0 if static.is_load else static.latency_cycles)
                ))
                complete_times.append(complete)

        # ---------------- wrap-up ----------------
        if fast is not None and fast.commit_log is not None:
            fast.commit_log.fill(entries, commit_times)
        result.cycles = commit_times[-1] - start_cycle
        result.tlb_misses = self.memory.tlb.stats.misses
        result.fetch_bubbles = float(n - fetch_bound)
        if collect_timings:
            result.timings = InstructionTimings(
                fetch_times, dispatch_times, issue_times, complete_times,
                commit_times,
            )
        self._fetch_queue_histogram(fetch_times, dispatch_times, result)
        return result

    # ------------------------------------------------------------------
    def _handle_control(
        self,
        entry: DynamicInst,
        fetch_time: float,
        complete: float,
        hint: Optional[BranchHint],
        hooks: CoreHooks,
        result: CoreResult,
    ) -> Optional[float]:
        """Branch prediction / BOQ consumption.  Returns a redirect cycle or None."""
        cfg = self.config
        static = entry.static
        taken = bool(entry.taken)

        if static.is_branch:
            result.branches += 1
            if hint is not None:
                if hint.correct:
                    # Correct BOQ hint: no misprediction; optionally no BTB
                    # bubble either because the target came along in the FQ.
                    if taken and not hint.has_target and not self.btb.contains(static.pc):
                        result.btb_misses += 1
                        return fetch_time + 3.0
                    return None
                result.branch_mispredicts += 1
                result.hint_mispredicts += 1
                if hooks.on_hint_mispredict is not None:
                    hooks.on_hint_mispredict(entry, complete)
                return complete + cfg.branch_mispredict_penalty
            predicted = self.predictor.predict_update(static.pc, taken)
            if predicted != taken:
                result.branch_mispredicts += 1
                return complete + cfg.branch_mispredict_penalty
            if taken and not self.btb.contains(static.pc):
                result.btb_misses += 1
                self.btb.update(static.pc, entry.next_pc, int(complete))
                return fetch_time + 3.0
            if taken:
                self.btb.update(static.pc, entry.next_pc, int(complete))
            return None

        # Unconditional control flow: jumps, calls, returns.
        op = static.opcode
        if op is Opcode.CALL:
            self.ras.push(static.pc + 1)
            if not self.btb.contains(static.pc):
                result.btb_misses += 1
                self.btb.update(static.pc, entry.next_pc, int(complete))
                return fetch_time + 3.0
            return None
        if op is Opcode.RET:
            predicted_target = self.ras.pop()
            if predicted_target != entry.next_pc:
                result.branch_mispredicts += 1
                return complete + cfg.branch_mispredict_penalty
            return None
        # Direct jumps: target known after decode; only a BTB miss costs.
        if not self.btb.contains(static.pc):
            result.btb_misses += 1
            self.btb.update(static.pc, entry.next_pc, int(complete))
            return fetch_time + 2.0
        return None

    # ------------------------------------------------------------------
    def _run_prefetchers(self, pc: int, address: int, info: int,
                         cycle: int) -> None:
        """Train the prefetchers on one data access (its packed ``info``
        word) and issue what they request."""
        # A ``None`` fill time means the memory system dropped the request
        # because no MSHR entry was free; the prefetcher is told so stateful
        # schemes can account for the lost coverage.
        prefetch = self.memory.prefetch
        l1_pf = self.l1_prefetcher
        if l1_pf is not None:
            for request in l1_pf.observe(pc, address, not info & 1, cycle):
                if prefetch(request.address, cycle, level="l1") is None:
                    l1_pf.notify_drop(request)
        l2_pf = self.l2_prefetcher
        if l2_pf is not None and info & 1:
            for request in l2_pf.observe(pc, address, info == 9, cycle):
                if prefetch(request.address, cycle, level=request.level) is None:
                    l2_pf.notify_drop(request)

    def _wrong_path_pollution(self, last_load: Optional[int], cycle: float,
                              result: CoreResult) -> None:
        """Charge wrong-path work after a misprediction.

        The deeper the fetch unit is allowed to run ahead (larger fetch
        buffer), the more wrong-path instructions are in flight when a branch
        resolves.  Those instructions consume decode/execute bandwidth
        (energy) and issue loads that pollute the data cache — the effect
        that makes a big fetch buffer a mixed blessing on a conventional
        core (Sec. III-D2) but essentially free under BOQ-driven fetch.
        The polluting loads stride away from ``last_load``, the address of
        the most recent load (none yet: no pollution).
        """
        cfg = self.config
        wrong_path_depth = min(
            cfg.fetch_buffer_entries + cfg.decode_width,
            cfg.branch_mispredict_penalty * cfg.fetch_width,
        )
        result.decoded += wrong_path_depth
        result.executed += int(wrong_path_depth * 0.6)
        if last_load is None:
            return
        pollution_loads = min(4, max(1, wrong_path_depth // 8))
        stride = self.memory.config.l1d.block_bytes * 3
        access_data = self.memory.access_data_fast
        now = int(cycle)
        for k in range(pollution_loads):
            access_data(last_load + (k + 1) * stride, now, False)

    # ------------------------------------------------------------------
    def _fetch_queue_histogram(self, fetch_times: List[float],
                               dispatch_times: List[float],
                               result: CoreResult, sample_every: int = 4) -> None:
        """Reconstruct the fetch-buffer occupancy distribution (Fig. 14).

        At the moment instruction ``i`` dispatches, the buffer holds every
        later instruction that has already been fetched.  Fetch times are
        non-decreasing, so a binary search gives the count directly.
        """
        n = len(fetch_times)
        capacity = self.config.fetch_buffer_entries
        for i in range(0, n, sample_every):
            upper = bisect.bisect_right(fetch_times, dispatch_times[i], i, n)
            occupancy = min(capacity, max(0, upper - i - 1))
            result.merge_histogram(occupancy)
