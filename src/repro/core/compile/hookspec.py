"""Sparse-firing metadata a hook source may attach to its CoreHooks.

The reference interpreter calls ``on_fetch``/``on_commit``/``value_hint``
once per instruction; for the DLA hint sources the overwhelming majority of
those calls are no-ops (the fetch hook only drains due prefetch hints and
records branches, the commit hooks only act on loads / branches / value
targets, the value hook only predicts a small seq set).  A hook source that
knows this can declare it here; the compiled kernel then fires the Python
callback only when it could do work and keeps the cheap residual logic —
the validation scoreboard, the flag/PC membership tests — on the C side.

The declarations are *promises of equivalence*: a skipped call must be an
observable no-op.  The reference interpreter ignores this object entirely,
and the golden equivalence suites pin the two paths together bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple


@dataclass
class CompiledHookSpec:
    """Optional kernel-side gating contract for one set of CoreHooks."""

    #: Split of ``value_hint``: called only for dynamic instructions whose
    #: seq is in :attr:`value_target_seqs`; returns ``None`` (no prediction)
    #: or ``(available_cycle, correct)``.  The validation scoreboard runs in
    #: the kernel for *every* instruction, exactly as the unsplit hook would
    #: have run it, and its skip/validation counters are added back to
    #: :attr:`scoreboard` after the run.
    value_request: Optional[Callable] = None
    #: Sorted dynamic seqs that can carry a value prediction.
    value_target_seqs: Optional[Tuple[int, ...]] = None
    #: ValidationScoreboard receiving the kernel's skip/validation counts.
    scoreboard: Optional[object] = None

    #: ``on_fetch`` gate: the kernel fires the hook for every branch, and
    #: for non-branches only once the fetch cycle reaches this callable's
    #: value (the availability of the next pending prefetch hint;
    #: ``math.inf`` when drained).  Re-read after every fired call.
    fetch_next_due: Optional[Callable[[], float]] = None

    #: ``on_commit`` filter: fire only when the instruction's decoded flags
    #: intersect the mask or its PC is in the sorted tuple.
    commit_flag_mask: Optional[int] = None
    commit_pcs: Tuple[int, ...] = ()

    #: ``on_memory_access`` replacement: a hook that only appends
    #: ``(issue_cycle, address)`` for every load missing the L1 may declare
    #: its list here.  The kernel then appends those entries itself, in
    #: program order, so the run keeps native L1/TLB data hits instead of
    #: calling back for every access to build its AccessResult view.
    load_miss_log: Optional[list] = None
