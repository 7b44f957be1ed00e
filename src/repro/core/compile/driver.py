"""Driver for the compiled tick loop.

``run_compiled`` marshals one run that fits the kernel (see
:mod:`repro.core.compile.plan`) onto it: the decoded trace's flat arrays
go in as zero-copy buffers, and so does every model the run touches.  The
branch unit runs on the predictor's, BTB's and RAS's own arrays, and the
whole stock memory hierarchy (:class:`_NativeMemory`) on its structures'
arrays: every access, miss, write-back, occupancy-resource operation,
DRAM access, BOP training step and wrong-path polluting load.  The kernel
calls no Python while it runs; per-run counters come back in arrays that
are credited to the models' stats afterwards.

A hook source's declarations (:mod:`repro.core.compile.hookspec`) go in
the same way: a DLA main thread's hint unit (its columns zero-copy, its
run state through one small ``array('d')``; the kernel also installs its
due prefetch hints), an R3 main thread's T1 table, B-Fetch's shadow
walker, CRE's runahead table, and a look-ahead pass's commit log and
load-miss log.  ``draw_verdicts`` draws a hint unit's verdicts natively
before the run, ``replay_warmup`` drives warm-up replay over the same
native memory path, and ``profile_columns`` a training window's profiling
passes (miss classification on that path included).

The kernel transcribes :meth:`repro.core.pipeline.OutOfOrderCore.run`
statement-for-statement; the golden equivalence suites pin the two paths
together bit-for-bit.
"""

from __future__ import annotations

from array import array
from repro.core.results import CoreResult, InstructionTimings
from repro.emulator.trace import Trace
from repro.memory.resources import BankedMshrFile

from repro.core.compile import _count
from repro.core.compile.decoded import decode_trace, get_decoded, static_table

#: Counter slots (must match kernel.c).
(C_L1I_ACC, C_L1I_MISS, C_L1D_ACC, C_L1D_MISS, C_L2_MISS, C_DRAM,
 C_DECODED, C_EXECUTED, C_COMMITTED, C_FETCH_BOUND,
 C_VALID_SKIP, C_VP_USED, C_VP_MISS, C_SB_SKIP, C_SB_VALID,
 C_BRANCHES, C_BR_MISPRED, C_HINT_MISPRED, C_BTB_MISS,
 C_TICKS, C_NATIVE_HITS, C_LOG_BRANCHES, C_LOG_PCS, C_NATIVE_MISSES,
 C_T1_COMMITS, C_BFETCH_FETCHES, C_CRE_STEPS, C_COUNT) = range(28)

#: Replay flag bits beyond the decoded ones (must match kernel.c): train
#: the L2 prefetcher on the data access, prefetch ``ea`` into the L1D or
#: the L2, prefill its translation.
R_TRAIN, R_PF_L1, R_PF_L2, R_PREFILL = 2048, 4096, 8192, 16384

#: HintUnit run state, in the order of the kernel's hint-state slots; three
#: more slots follow for the run's own fetch stall on hints and its prefetch
#: installs and drops (must match kernel.c), counted from 0 and added.
_HINT_STATE = ("offset", "fq_occupancy", "fq_prefetches", "fq_values",
               "reboots", "branch_cursor", "value_cursor", "prefetch_cursor")

_EMPTY_Q = array("q", (0,))


#: Integer stats fields the kernel counts per run, in order (must match
#: kernel.c's CS_* / TS_* / DS_* counters); float and high-water fields it
#: updates in the stats objects themselves.
_CACHE_COUNTS = ("accesses", "hits", "misses", "prefetch_hits",
                 "late_prefetch_hits", "prefetches_issued",
                 "prefetches_useless", "writebacks", "evictions",
                 "mshr_stalls", "mshr_allocations", "mshr_coalesced",
                 "prefetches_dropped", "mshr_bank_conflicts", "wb_enqueued",
                 "wb_stalls")
_TLB_COUNTS = ("accesses", "hits", "misses", "prefills")
_DRAM_COUNTS = ("reads", "writes", "writeback_writes", "prefetch_reads",
                "row_hits", "row_misses", "queue_stalls")
#: A T1 engine's table: its slot arrays by attribute name, in the order
#: of kernel.c's T1_* views.
T1_TABLE = ("_pc", "_state", "_stride", "_last_address", "_last_commit",
            "_interval", "_confirmations", "_distance", "_last_use", "_stamp",
            "_count", "_clock")
#: T1 stats fields the kernel counts (must match kernel.c's T1S_*).
_T1_COUNTS = ("prefetches_issued", "prefetches_dropped", "catch_up_bursts",
              "entries_allocated", "entries_reset", "strides_confirmed")


def _tage_view(predictor) -> tuple:
    """Kernel view of a :class:`~repro.branch.predictors.TageLitePredictor`:
    its geometry and its tables' own arrays (zero-copy)."""
    base = predictor.base
    return (base.entries, base.threshold, base.max_value,
            predictor.num_tables, predictor.table_entries, predictor.tag_mask,
            base._table, predictor._present, predictor._tag_arr,
            predictor._ctr, predictor._useful, predictor._hist,
            predictor._masks_arr)


def _store(lane0, lanes: int = 1) -> tuple:
    """Kernel view of the occupancy store whose lane 0 is ``lane0``."""
    return lane0._keys, lane0._done, lane0._len, lane0.capacity, lanes


def _resource(resource):
    """Kernel view of an MSHR file or write buffer (a banked file's banks
    are the lanes of one store)."""
    if resource is None:
        return None
    if isinstance(resource, BankedMshrFile):
        return _store(resource._banks[0], resource.num_banks)
    return _store(resource)


class _NativeMemory:
    """Kernel views of one core's (stock) memory system, with per-run
    counters.

    Each view is the structure's own arrays (zero-copy) plus a fresh
    counter array the kernel bumps; :meth:`settle` adds those counts to
    the structures' stats once the kernel returns and writes back the BOP
    L2 prefetcher's scalar state.
    """

    def __init__(self, memory, l2_prefetcher=None) -> None:
        self._credits = []
        self._bop = l2_prefetcher
        shared = memory.shared
        self.spec = (
            self._cache(memory.l1i), self._cache(memory.l1d),
            self._cache(memory.l2), self._cache(shared.l3),
            self._tlb(memory.tlb), self._dram(shared.dram),
            self._bop_view(l2_prefetcher) if l2_prefetcher is not None
            else None,
            int(memory.lookahead_mode),
        )

    def _counts(self, stats, fields) -> array:
        counts = array("q", bytes(8 * len(fields)))
        self._credits.append((stats, fields, counts))
        return counts

    def _cache(self, cache) -> tuple:
        return (cache._tags, cache._fill, cache._last_use, cache._flags,
                cache._stamp, cache._count, cache._clock,
                self._counts(cache.stats, _CACHE_COUNTS), vars(cache.stats),
                cache._num_sets, cache._associativity, cache._block_bytes,
                cache._latency, int(cache.lookahead_mode),
                _resource(cache._mshr), _resource(cache._write_buffer))

    def _tlb(self, tlb) -> tuple:
        return (tlb._vpn, tlb._last_use, tlb._stamp, tlb._count, tlb._clock,
                self._counts(tlb.stats, _TLB_COUNTS), tlb.config.entries,
                tlb._page_bytes, tlb.config.miss_penalty)

    def _dram(self, dram) -> tuple:
        cfg = dram.config
        queues = dram._queues
        return (dram._open_rows, dram._bank_ready,
                None if queues is None else _store(queues[0], len(queues)),
                self._counts(dram.stats, _DRAM_COUNTS), vars(dram.stats),
                vars(dram), cfg.row_bytes, cfg.num_banks, cfg.queue_groups,
                cfg.row_hit_latency, cfg.row_miss_latency,
                cfg.bank_busy_penalty, cfg.energy_activate, cfg.energy_read,
                cfg.energy_write)

    def _bop_view(self, bop) -> tuple:
        cfg = bop.config
        offset = bop._current_offset
        self._bop_state = array("q", [
            bop._rr_len, bop._rr_order, bop._test_index, bop._round_accesses,
            int(bop._prefetch_on), int(offset is not None), offset or 0])
        return (bop._rr_blocks, bop._rr_orders, bop._scores,
                array("q", cfg.offsets), self._bop_state, cfg.rr_entries,
                cfg.block_bytes, cfg.round_max, cfg.score_max, cfg.bad_score,
                int(cfg.target_level == "l1"))

    def t1_view(self, t1) -> tuple:
        """Kernel view of a T1 engine prefetching into this memory system:
        its marked PCs, its table's slot arrays (zero-copy) and a counter
        array credited to its stats."""
        cfg = t1.config
        return (array("q", sorted(t1.marked_pcs)),
                tuple(getattr(t1, name) for name in T1_TABLE),
                self._counts(t1.stats, _T1_COUNTS), cfg.entries,
                cfg.initial_distance, cfg.min_distance, cfg.max_distance,
                cfg.confirmations, cfg.catch_up_burst,
                float(cfg.assumed_miss_latency), cfg.block_bytes)

    def settle(self) -> None:
        for stats, fields, counts in self._credits:
            for name, count in zip(fields, counts):
                if count:
                    setattr(stats, name, getattr(stats, name) + count)
        bop = self._bop
        if bop is not None:
            (bop._rr_len, bop._rr_order, bop._test_index, bop._round_accesses,
             on, has_offset, offset) = self._bop_state
            bop._prefetch_on = bool(on)
            bop._current_offset = offset if has_offset else None


def run_compiled(kernel, core, window: Trace, hooks, start_cycle: float,
                 collect_timings: bool) -> CoreResult:
    """Run one simulation of ``window`` that fits the kernel (see
    :func:`~repro.core.compile.plan.plan_run`).

    ``collect_timings`` has the kernel fill the issue and complete columns
    next to the fetch/dispatch/commit arrays it always keeps.  Timing runs
    are profiling passes over one-shot windows (a training window's head, a
    sample), so their decode bypasses the process-wide memo rather than
    retaining a window no later run will reuse.
    """
    cfg = core.config
    result = CoreResult(name=core.name)
    n = len(window)
    if n == 0:
        if collect_timings:
            result.timings = InstructionTimings()
        return result

    decoded = decode_trace(window) if collect_timings else get_decoded(window)
    memory = core.memory
    fetch_times = array("d", bytes(8 * n))
    dispatch_times = array("d", bytes(8 * n))
    commit_times = array("d", bytes(8 * n))
    issue_times = array("d", bytes(8 * n)) if collect_timings else None
    complete_times = array("d", bytes(8 * n)) if collect_timings else None
    counters = array("q", bytes(8 * C_COUNT))
    hist_capacity = cfg.fetch_buffer_entries
    hist = array("q", bytes(8 * (hist_capacity + 1)))

    # The branch unit runs on the Python objects' own flat arrays, so its
    # state persists across runs exactly as in the interpreter.  The RAS is
    # tiny: it is marshalled into a flat array for the run and written back
    # after.
    btb = core.btb
    ras = core.ras
    ras_stack = array("q", bytes(8 * ras.depth))
    for k, address in enumerate(ras._stack):
        ras_stack[k] = address
    ras_state = array("q", [len(ras._stack), ras.pushes, ras.pops,
                            ras.overflows, ras.underflows])

    fast = hooks.fast_hints
    unit = fast.hint_unit if fast is not None else None
    hint_spec = None
    if unit is not None:
        hint_state = array("d", [getattr(unit, name) for name in _HINT_STATE])
        hint_state.extend((0.0, 0.0, 0.0))
        hint_spec = (unit.branch_seqs, unit.branch_times, unit.branch_correct,
                     unit.value_seqs, unit.value_times, unit.value_verdicts,
                     unit.prefetch_times, unit.prefetch_addresses, hint_state,
                     unit.boq_entries, unit.reboot_penalty, unit.fq_capacity)

    log = fast.commit_log if fast is not None else None
    log_spec = None
    if log is not None:
        log_columns = (array("q", bytes(8 * n)), array("d", bytes(8 * n)),
                       array("q", bytes(8 * n)), array("d", bytes(8 * n)))
        log_spec = (array("q", sorted(log.pcs)) if log.pcs else _EMPTY_Q,
                    len(log.pcs)) + log_columns

    native = _NativeMemory(memory, core.l2_prefetcher)
    t1 = fast.t1 if fast is not None else None
    walker = fast.bfetch if fast is not None else None
    table = fast.runahead if fast is not None else None
    bfetch_spec = runahead_spec = None
    if walker is not None:
        bfetch_spec = (_tage_view(walker.predictor), walker.lookahead_branches,
                       walker.distance, walker.confidence, walker.has_address,
                       walker.last_address, walker.last_stride)
    if table is not None:
        runahead_spec = (table.eligible, table.lead, table.offset, table.count,
                         table.future, table.seen)
    # Wrong-path pollution (OutOfOrderCore._wrong_path_pollution): what one
    # redirect adds.
    wrong_path = None
    if cfg.model_wrong_path:
        depth = min(cfg.fetch_buffer_entries + cfg.decode_width,
                    cfg.branch_mispredict_penalty * cfg.fetch_width)
        wrong_path = (depth, int(depth * 0.6), min(4, max(1, depth // 8)),
                      memory.config.l1d.block_bytes * 3)
    spec = dict(
        n=n,
        start_cycle=float(start_cycle),
        fetch_inc=1.0 / cfg.fetch_width,
        dispatch_inc=1.0 / cfg.decode_width,
        commit_inc=1.0 / cfg.commit_width,
        frontend_latency=float(cfg.frontend_latency),
        value_mispredict_penalty=float(cfg.value_mispredict_penalty),
        fetch_buffer_entries=cfg.fetch_buffer_entries,
        rob_entries=cfg.rob_entries,
        lsq_entries=cfg.lsq_entries,
        block_bytes=core._block_bytes,
        num_int_alus=cfg.num_int_alus,
        num_mem_ports=cfg.num_mem_ports,
        num_fp_units=cfg.num_fp_units,
        num_regs=decoded.num_regs,
        hist_capacity=hist_capacity,
        hist_sample=4,
        branch_mispredict_penalty=float(cfg.branch_mispredict_penalty),
        ba=decoded.ba, flags=decoded.flags, ea=decoded.ea, lat=decoded.lat,
        dst=decoded.dst, srcs=decoded.srcs, srcs_off=decoded.srcs_off,
        sb_dst=decoded.sb_dst, seq=decoded.seq, pc=decoded.pcs,
        nxt=decoded.nxt,
        fetch_times=fetch_times, dispatch_times=dispatch_times,
        commit_times=commit_times, issue_times=issue_times,
        complete_times=complete_times,
        counters=counters, hist=hist,
        tage=_tage_view(core.predictor),
        btb_sets=btb.num_sets, btb_assoc=btb.associativity,
        btb_tag=btb._tag, btb_target=btb._target, btb_use=btb._last_use,
        btb_count=btb._count,
        ras_depth=ras.depth, ras_stack=ras_stack, ras_state=ras_state,
        load_miss_log=fast.load_miss_log if fast is not None else None,
        hint_unit=hint_spec, commit_log=log_spec, wrong_path=wrong_path,
        memory=native.spec,
        t1=native.t1_view(t1) if t1 is not None else None,
        bfetch=bfetch_spec, runahead=runahead_spec,
    )
    try:
        kernel.run_tick_loop(spec)
    finally:
        native.settle()
    _count("native_mem_hits", counters[C_NATIVE_HITS])
    _count("native_mem_misses", counters[C_NATIVE_MISSES])
    _count("native_t1_commits", counters[C_T1_COMMITS])
    _count("native_bfetch_fetches", counters[C_BFETCH_FETCHES])
    _count("native_cre_steps", counters[C_CRE_STEPS])

    ras._stack = list(ras_stack[:ras_state[0]])
    ras.pushes = ras_state[1]
    ras.pops = ras_state[2]
    ras.overflows = ras_state[3]
    ras.underflows = ras_state[4]

    result.l1i_accesses += counters[C_L1I_ACC]
    result.l1i_misses += counters[C_L1I_MISS]
    result.l1d_accesses += counters[C_L1D_ACC]
    result.l1d_misses += counters[C_L1D_MISS]
    result.l2_misses += counters[C_L2_MISS]
    result.dram_accesses += counters[C_DRAM]
    result.decoded += counters[C_DECODED]
    result.executed += counters[C_EXECUTED]
    result.committed += counters[C_COMMITTED]
    result.validations_skipped += counters[C_VALID_SKIP]
    result.value_predictions_used += counters[C_VP_USED]
    result.value_mispredictions += counters[C_VP_MISS]
    result.branches += counters[C_BRANCHES]
    result.branch_mispredicts += counters[C_BR_MISPRED]
    result.hint_mispredicts += counters[C_HINT_MISPRED]
    result.btb_misses += counters[C_BTB_MISS]
    if unit is not None:
        hinted = unit.branch_cursor
        for name, value in zip(_HINT_STATE, hint_state):
            setattr(unit, name, value if name == "offset" else int(value))
        stall, installed, dropped = hint_state[len(_HINT_STATE):]
        result.fetch_stall_on_hint += stall
        unit.prefetches_installed += int(installed)
        unit.prefetches_dropped += int(dropped)
        if unit.scoreboard is not None:
            unit.scoreboard.skips += counters[C_SB_SKIP]
            unit.scoreboard.validations += counters[C_SB_VALID]
        _count("native_hint_branches", unit.branch_cursor - hinted)
    if log is not None:
        targets = (log.branch_index, log.branch_times, log.pc_index,
                   log.pc_times)
        counts = (counters[C_LOG_BRANCHES],) * 2 + (counters[C_LOG_PCS],) * 2
        for target, column, count in zip(targets, log_columns, counts):
            target.extend(column[:count])
    result.cycles = commit_times[-1] - start_cycle
    result.tlb_misses = memory.tlb.stats.misses
    result.fetch_bubbles = float(n - counters[C_FETCH_BOUND])
    if collect_timings:
        result.timings = InstructionTimings(
            fetch_times, dispatch_times, issue_times, complete_times,
            commit_times,
        )
    for occupancy, count in enumerate(hist):
        if count:
            result.fetch_queue_histogram[occupancy] = (
                result.fetch_queue_histogram.get(occupancy, 0) + count
            )
    return result


def replay_warmup(kernel, memory, inputs, cycles_per_access: int,
                  l2_prefetcher=None) -> None:
    """Replay a warm-up window's memory accesses into ``memory`` on the
    kernel: the loop of :func:`repro.core.system._replay_warmup` (same
    accesses, order and pacing) on a stock hierarchy.  ``inputs`` are
    ``(ba, flags, ea)`` columns; the kernel's extra flag bits (prefetches,
    TLB prefills, training ``l2_prefetcher``) make them any access
    stream."""
    ba, flags, ea = inputs
    native = _NativeMemory(memory, l2_prefetcher)
    try:
        hits, misses = kernel.replay_warmup(dict(
            n=len(ba), ba=ba, flags=flags, ea=ea,
            block_bytes=memory.config.l1i.block_bytes,
            cycles_per_access=cycles_per_access,
            memory=native.spec,
        ))
    finally:
        native.settle()
    _count("native_mem_hits", hits)
    _count("native_mem_misses", misses)


def draw_verdicts(kernel, window: Trace, commits, rates, risky, biased,
                  bias_direction, rng) -> tuple:
    """:meth:`repro.dla.hints.MainThreadHintSource._draw` on the kernel.

    Draws the verdicts of the look-ahead ``window``'s commit log
    ``commits`` from ``rng`` (a :class:`~repro.util.rng.DeterministicRng`)
    with the ``(safe, risky, value)`` error ``rates``, reading only the
    window's decoded columns, and leaves ``rng`` in the state the Python
    draws leave.  Returns ``(branch_seqs, branch_correct, value_seqs,
    value_verdicts)``.
    """
    nb, nv = len(commits.branch_index), len(commits.pc_index)
    columns = (array("q", bytes(8 * nb)), array("b", bytes(nb)),
               array("q", bytes(8 * nv)), array("b", bytes(nv)))
    decoded = get_decoded(window)
    version, internal, gauss = rng.getstate()
    mt, index = array("I", internal[:-1]), array("q", internal[-1:])
    safe_rate, risky_rate, value_rate = rates
    draws = kernel.draw_verdicts(dict(
        mt=mt, index=index, seq=decoded.seq, pcs=decoded.pcs,
        flags=decoded.flags, branch_index=commits.branch_index,
        value_index=commits.pc_index, value_pcs=array("q", sorted(commits.pcs)),
        risky=array("q", sorted(risky)), biased=array("q", sorted(biased)),
        not_taken=array("q", sorted(pc for pc in biased
                                    if not bias_direction.get(pc, True))),
        safe_rate=safe_rate, risky_rate=risky_rate, value_rate=value_rate,
        branch_seqs=columns[0], branch_correct=columns[1],
        value_seqs=columns[2], value_verdicts=columns[3],
    ))
    rng.setstate((version, (*mt, index[0]), gauss))
    _count("native_verdict_draws", draws)
    return columns


def profile_columns(kernel, memory, window: Trace, backward: array,
                    outputs: dict) -> tuple:
    """The passes of :func:`repro.dla.profiling.profile_workload` over a
    training ``window``'s columns on the kernel, its data accesses run in
    order through ``memory`` (a freshly built stock hierarchy).

    ``backward`` flags each PC whose branch target lies at or before it;
    ``outputs`` are the per-PC ``array('q')`` columns the kernel fills.
    Returns ``(executed PCs, producers, loop branches)``: how many entries
    of ``order``, ``dep_order`` and ``loop_order`` it wrote.
    """
    native = _NativeMemory(memory)
    try:
        *counts, hits, misses = kernel.profile_columns(
            static_table(window.program).spec(
                **window.columns._spec(), memory=native.spec,
                backward=backward, **outputs))
    finally:
        native.settle()
    _count("native_mem_hits", hits)
    _count("native_mem_misses", misses)
    _count("native_profiled", len(window))
    return tuple(counts)
