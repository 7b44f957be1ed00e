"""Specialization planning: which compiled variant (if any) fits a run.

The pass pipeline is deliberately small: ``plan_run`` resolves every
run-invariant decision once — which hook callbacks the kernel must fire,
whether the kernel fills a declared load-miss log itself, whether it runs
the branch unit and a declared DLA hint unit natively, and which L1/TLB
hits it serves natively (a generic ``on_memory_access`` hook or an L1
prefetcher must see every data access, so either keeps the D-side hits in
Python) — so the per-instruction loop carries no residual config branches
on the Python side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.branch.btb import BranchTargetBuffer
from repro.branch.predictors import TageLitePredictor
from repro.branch.ras import ReturnAddressStack
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
        native_data_hits=(stock_data
                          and (not has_on_memory or log_load_misses)
                          and core.l1_prefetcher is None),
    )


def stock_hit_sides(memory) -> Tuple[bool, bool]:
    """Whether the kernel's hit transcription fits ``memory``'s I-side (a
    stock :class:`Cache` L1I) and D-side (stock L1D and :class:`Tlb`)."""
    return (type(memory.l1i) is Cache,
            type(memory.l1d) is Cache and type(memory.tlb) is Tlb)
