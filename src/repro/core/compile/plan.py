"""Specialization planning: which compiled variant (if any) fits a run.

The pass pipeline is deliberately small: ``plan_run`` resolves every
run-invariant decision once — which hook callbacks the kernel must fire,
whether the memory callbacks can use the tuple-returning fast accessors or
must construct real :class:`AccessResult` objects (an ``on_memory_access``
hook observes them), which prefetchers train, and which L1/TLB hits the
kernel serves natively — so the per-instruction loop carries no residual
config branches on the Python side.  The plan's fingerprint keys
in-process caches of anything derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.memory.cache import Cache
from repro.memory.tlb import Tlb


@dataclass(frozen=True)
class SpecializationPlan:
    """Run-invariant shape of one compiled simulation."""

    has_branch_hint: bool
    has_value_hint: bool
    has_on_commit: bool
    has_on_fetch: bool
    has_on_memory: bool
    has_l1_prefetcher: bool
    has_l2_prefetcher: bool
    #: Tuple-returning accessors are only sound when no hook inspects the
    #: AccessResult objects.
    use_fast_access: bool
    #: The ``on_memory_access`` hook is a declared load-miss log
    #: (``CompiledHookSpec.load_miss_log``) the kernel fills itself.
    log_load_misses: bool
    #: The kernel serves L1I hits itself (stock cache).
    native_inst_hits: bool
    #: The kernel serves TLB + L1D hits itself: stock structures, fast
    #: accessors, and no L1 prefetcher (which must observe every access).
    native_data_hits: bool

    @property
    def fingerprint(self) -> int:
        bits = 0
        for shift, flag in enumerate((
            self.has_branch_hint, self.has_value_hint, self.has_on_commit,
            self.has_on_fetch, self.has_on_memory, self.has_l1_prefetcher,
            self.has_l2_prefetcher, self.use_fast_access,
            self.log_load_misses, self.native_inst_hits,
            self.native_data_hits,
        )):
            if flag:
                bits |= 1 << shift
        return bits


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
    use_fast_access = not has_on_memory or log_load_misses
    stock_inst, stock_data = stock_hit_sides(core.memory)
    return SpecializationPlan(
        has_branch_hint=hooks.branch_hint is not None,
        has_value_hint=hooks.value_hint is not None,
        has_on_commit=hooks.on_commit is not None,
        has_on_fetch=hooks.on_fetch is not None,
        has_on_memory=has_on_memory,
        has_l1_prefetcher=core.l1_prefetcher is not None,
        has_l2_prefetcher=core.l2_prefetcher is not None,
        use_fast_access=use_fast_access,
        log_load_misses=log_load_misses,
        native_inst_hits=stock_inst,
        native_data_hits=(stock_data and use_fast_access
                          and core.l1_prefetcher is None),
    )


def stock_hit_sides(memory) -> Tuple[bool, bool]:
    """Whether the kernel's hit transcription fits ``memory``'s I-side (a
    stock :class:`Cache` L1I) and D-side (stock L1D and :class:`Tlb`)."""
    return (type(memory.l1i) is Cache,
            type(memory.l1d) is Cache and type(memory.tlb) is Tlb)
