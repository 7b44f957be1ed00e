"""Specialization planning: which compiled variant (if any) fits a run.

The pass pipeline is deliberately small: ``plan_run`` resolves every
run-invariant decision once — which hook callbacks the kernel must fire,
whether the kernel fills a declared load-miss log itself, whether it runs
the branch unit and a declared DLA hint unit natively, which L1/TLB hits
it serves natively (a generic ``on_memory_access`` hook or an L1
prefetcher must see every data access, so either keeps the D-side hits in
Python), and whether it runs the whole memory hierarchy natively (misses,
write-backs, DRAM, BOP training, prefetch-hint installs, T1, B-Fetch's
walker, CRE's table and wrong-path pollution: stock structures only) — so
the per-instruction loop carries no residual config branches on the
Python side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.branch.btb import BranchTargetBuffer
from repro.branch.predictors import TageLitePredictor
from repro.branch.ras import ReturnAddressStack
from repro.memory.cache import Cache
from repro.memory.dram import DramModel
from repro.memory.hierarchy import CoreMemorySystem, SharedMemorySystem
from repro.memory.resources import BankedMshrFile, MshrFile, OccupancyQueue
from repro.memory.tlb import Tlb
from repro.prefetch.best_offset import BestOffsetPrefetcher


@dataclass(frozen=True)
class SpecializationPlan:
    """Run-invariant shape of one compiled simulation."""

    has_branch_hint: bool
    has_value_hint: bool
    has_on_commit: bool
    has_on_fetch: bool
    has_on_memory: bool
    #: The ``on_memory_access`` hook is a declared load-miss log
    #: (``CompiledHookSpec.load_miss_log``) the kernel fills itself.
    log_load_misses: bool
    #: The kernel runs TAGE/BTB/RAS itself (the stock structures); any
    #: other branch unit routes control flow through a Python callback.
    native_control: bool
    #: The kernel runs the declared hint unit (``CompiledHookSpec.hint_unit``)
    #: in place of the DLA hooks.  A reboot is raised inside the native
    #: branch unit, so this needs ``native_control``; without it the hooks
    #: fire as callbacks.
    native_hints: bool
    #: The kernel serves L1I hits itself (stock cache).
    native_inst_hits: bool
    #: The kernel serves TLB + L1D hits itself: stock structures, and no
    #: generic memory hook or L1 prefetcher (either must observe every
    #: data access).
    native_data_hits: bool
    #: The kernel runs every memory access, prefetch and TLB prefill
    #: itself, trains a BOP L2 prefetcher, installs the hint unit's
    #: prefetch hints and charges wrong-path pollution: a stock hierarchy
    #: (:func:`stock_memory`), native data hits, and an L2 prefetcher that
    #: is ``None`` or exactly :class:`BestOffsetPrefetcher`.
    native_misses: bool
    #: The kernel steps the declared T1 engine (``CompiledHookSpec.t1``)
    #: for the marked loads it commits, in place of ``on_commit``: needs
    #: ``native_misses`` and the engine prefetching into this core's memory.
    native_t1: bool
    #: The kernel steps the declared B-Fetch walker
    #: (``CompiledHookSpec.bfetch``) at every fetch, in place of
    #: ``on_fetch``: as ``native_t1``, and a stock TAGE walker.
    native_bfetch: bool
    #: The kernel steps the declared CRE table (``CompiledHookSpec.runahead``)
    #: after every load access, in place of ``on_memory_access``: as
    #: ``native_t1``.  Like the load-miss log it counts as a declared memory
    #: hook, so it keeps ``native_data_hits``.
    native_runahead: bool


def plan_run(core, hooks) -> SpecializationPlan:
    """Build the plan for one run.

    Every run is eligible: per-instruction timing collection is a pair of
    extra output columns, not a different loop.  The reference interpreter
    carries a run only for the kill-switch or a missing kernel (see
    :func:`repro.core.compile.maybe_run_compiled`); a non-stock branch unit
    stays compiled but routes control flow through a Python callback.
    """
    has_on_memory = hooks.on_memory_access is not None
    fast = hooks.fast_hints
    log_load_misses = (has_on_memory and fast is not None
                       and fast.load_miss_log is not None)
    stock_inst, stock_data = stock_hit_sides(core.memory)
    native_control = (type(core.predictor) is TageLitePredictor
                      and type(core.btb) is BranchTargetBuffer
                      and type(core.ras) is ReturnAddressStack)
    stock_misses = (stock_memory(core.memory) and core.l1_prefetcher is None
                    and type(core.l2_prefetcher) in _NATIVE_L2_PREFETCHERS)
    # A declared CRE table is stepped natively or not at all: the kernel
    # cannot step it on the hits it serves while Python serves the misses.
    runahead = fast.runahead if fast is not None else None
    native_runahead = (has_on_memory and stock_misses and runahead is not None
                       and runahead.memory is core.memory)
    native_data_hits = (stock_data
                        and (not has_on_memory or log_load_misses
                             or native_runahead)
                        and core.l1_prefetcher is None)
    native_misses = native_data_hits and stock_misses
    t1 = fast.t1 if fast is not None else None
    bfetch = fast.bfetch if fast is not None else None
    return SpecializationPlan(
        has_branch_hint=hooks.branch_hint is not None,
        has_value_hint=hooks.value_hint is not None,
        has_on_commit=hooks.on_commit is not None,
        has_on_fetch=hooks.on_fetch is not None,
        has_on_memory=has_on_memory,
        log_load_misses=log_load_misses,
        native_control=native_control,
        native_hints=(native_control and fast is not None
                      and fast.hint_unit is not None),
        native_inst_hits=stock_inst,
        native_data_hits=native_data_hits,
        native_misses=native_misses,
        native_t1=(native_misses and t1 is not None
                   and t1.memory is core.memory),
        native_bfetch=(native_misses and bfetch is not None
                       and bfetch.memory is core.memory
                       and type(bfetch.predictor) is TageLitePredictor),
        native_runahead=native_runahead,
    )


#: L2 prefetchers the kernel trains itself.
_NATIVE_L2_PREFETCHERS = (type(None), BestOffsetPrefetcher)
_STOCK_MSHRS = (type(None), MshrFile, BankedMshrFile)
_STOCK_WRITE_BUFFERS = (type(None), OccupancyQueue)


def stock_memory(memory) -> bool:
    """Whether the kernel's transcription of the whole hierarchy fits
    ``memory``: every level, the TLB, DRAM, their occupancy resources and
    both memory-system objects are the stock types."""
    shared = memory.shared
    caches = (memory.l1i, memory.l1d, memory.l2, shared.l3)
    return (type(memory) is CoreMemorySystem
            and type(shared) is SharedMemorySystem
            and all(type(cache) is Cache
                    and type(cache._mshr) in _STOCK_MSHRS
                    and type(cache._write_buffer) in _STOCK_WRITE_BUFFERS
                    for cache in caches)
            and type(memory.tlb) is Tlb and type(shared.dram) is DramModel)


def stock_hit_sides(memory) -> Tuple[bool, bool]:
    """Whether the kernel's hit transcription fits ``memory``'s I-side (a
    stock :class:`Cache` L1I) and D-side (stock L1D and :class:`Tlb`)."""
    return (type(memory.l1i) is Cache,
            type(memory.l1d) is Cache and type(memory.tlb) is Tlb)
