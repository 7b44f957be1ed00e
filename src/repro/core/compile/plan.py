"""Specialization planning: whether a run fits the compiled kernel.

The kernel is one complete pipeline, not a lattice of partial
specialisations: a run either fits it and runs natively end to end, or the
reference interpreter carries it.  ``plan_run`` makes that one decision
once per run.  A run fits when

* the core uses only the stock structures the kernel transcribes: the
  TAGE-lite predictor, BTB and RAS, a stock memory hierarchy
  (:func:`stock_memory`), no L1 prefetcher, and no L2 prefetcher or
  exactly :class:`BestOffsetPrefetcher`; and
* every hook that is set is covered by a declaration the kernel runs
  (:mod:`repro.core.compile.hookspec`) on this core's memory system: the
  hint unit covers the DLA hint hooks and ``on_fetch``, a TAGE B-Fetch
  walker ``on_fetch``, T1 ``on_commit`` and CRE's table
  ``on_memory_access``.

Anything else (another branch unit or prefetcher, a ``Cache`` subclass, an
undeclared hook) goes to the interpreter, which is the oracle anyway.
"""

from __future__ import annotations

from repro.branch.btb import BranchTargetBuffer
from repro.branch.predictors import TageLitePredictor
from repro.branch.ras import ReturnAddressStack
from repro.memory.cache import Cache
from repro.memory.dram import DramModel
from repro.memory.hierarchy import CoreMemorySystem, SharedMemorySystem
from repro.memory.resources import BankedMshrFile, MshrFile, OccupancyQueue
from repro.memory.tlb import Tlb
from repro.prefetch.best_offset import BestOffsetPrefetcher


def plan_run(core, hooks) -> bool:
    """Whether the run of ``core`` under ``hooks`` fits the kernel."""
    memory = core.memory
    if not (type(core.predictor) is TageLitePredictor
            and type(core.btb) is BranchTargetBuffer
            and type(core.ras) is ReturnAddressStack
            and stock_memory(memory) and core.l1_prefetcher is None
            and type(core.l2_prefetcher) in _NATIVE_L2_PREFETCHERS):
        return False
    fast = hooks.fast_hints
    unit = t1 = bfetch = runahead = None
    if fast is not None:
        unit, t1, bfetch, runahead = (fast.hint_unit, fast.t1, fast.bfetch,
                                      fast.runahead)
    # Every declared model runs on this core's memory system, and a B-Fetch
    # walker predicts with the TAGE the kernel transcribes.
    if (any(model is not None and model.memory is not memory
            for model in (t1, bfetch, runahead))
            or (bfetch is not None
                and type(bfetch.predictor) is not TageLitePredictor)):
        return False
    hinted = unit is not None
    return ((hinted or (hooks.branch_hint is None and hooks.value_hint is None
                        and hooks.on_hint_mispredict is None))
            and (hooks.on_fetch is None or hinted or bfetch is not None)
            and (hooks.on_commit is None or t1 is not None)
            and (hooks.on_memory_access is None or runahead is not None))


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
