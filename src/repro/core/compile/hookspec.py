"""Declarations a hook source may attach to its CoreHooks for the kernel.

The reference interpreter calls every hook once per instruction.  A hook
source that knows more about its own behaviour declares it here, and the
compiled kernel then does the work itself.  A run fits the kernel only
when a declaration covers every hook it sets
(:func:`repro.core.compile.plan.plan_run`):

* **Hint unit** (:class:`HintUnit`): a DLA main thread's whole hint stream
  as columns — branch hints with their BOQ-capacity gate, value hints with
  the validation scoreboard, prefetch hints (installed by the kernel),
  reboots and FQ occupancy.  Covers ``branch_hint``, ``value_hint``,
  ``on_hint_mispredict`` and ``on_fetch``; the interpreter runs the hint
  source's hooks over the same columns and state, which keeps them the
  oracle.
* **T1** (``t1``): the hook source's ``on_commit`` only steps this
  :class:`~repro.dla.t1.T1PrefetchEngine` for committed loads; the kernel
  steps the engine's table arrays itself and issues the prefetches.
* **B-Fetch walker** (:class:`BFetchWalker`): the hook source's
  ``on_fetch`` only steps B-Fetch's shadow walker; with the stock TAGE as
  its predictor the kernel steps the walker's predictor and stride table
  at every fetch and issues the prefetches.
* **Runahead table** (:class:`RunaheadTable`): the hook source's
  ``on_memory_access`` only steps CRE's occurrence-indexed prefetch table
  for loads; the kernel steps it after each load access.

Two declared logs need no hook at all; both engines fill them:

* **Load-miss log** (``load_miss_log``): ``(issue_cycle, trace index)`` of
  every load missing the L1, in program order.
* **Commit log** (:class:`CommitLog`): program-order ``(trace index, commit
  cycle)`` rows of every committed conditional branch and of every
  instruction at a declared PC.  The interpreter fills it from its commit
  column after the run.

The golden equivalence suites and the compiled-vs-interpreter A/B tests pin
the two paths together bit-for-bit.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple


@dataclass
class CommitLog:
    """Program-order commit rows selected by branch-ness and by PC.

    One run fills it.  ``branch_index``/``branch_times`` hold the trace index
    and commit cycle of every conditional branch; ``pc_index``/``pc_times``
    those of every instruction whose PC is in ``pcs``.  An instruction that
    is both appears in both.
    """

    pcs: Tuple[int, ...] = ()
    branch_index: array = field(default_factory=lambda: array("q"))
    branch_times: array = field(default_factory=lambda: array("d"))
    pc_index: array = field(default_factory=lambda: array("q"))
    pc_times: array = field(default_factory=lambda: array("d"))

    def fill(self, entries: Sequence, commit_times: Sequence[float]) -> None:
        """The interpreter's fill, from a finished run's commit column."""
        pcs = set(self.pcs)
        for i, entry in enumerate(entries):
            static = entry.static
            if static.is_branch:
                self.branch_index.append(i)
                self.branch_times.append(commit_times[i])
            if static.pc in pcs:
                self.pc_index.append(i)
                self.pc_times.append(commit_times[i])


#: Value-hint verdicts (``HintUnit.value_verdicts``).
VALUE_NONE, VALUE_CORRECT, VALUE_WRONG = 0, 1, 2


@dataclass
class HintUnit:
    """A DLA main thread's hint stream, for one run.

    Every column is in program order, and the seq columns must be strictly
    increasing: the kernel walks them in lockstep with the trace's seqs.

    * Branch hints (``branch_*``): every conditional branch the look-ahead
      committed, its look-ahead commit cycle and its drawn verdict.  The
      hint for branch ``k`` is available at ``time + offset``, and not
      before branch ``k - boq_entries`` was consumed (fetched).  A wrong
      hint reboots the look-ahead: ``offset`` rises to at least
      ``resolve + reboot_penalty - time`` and the FQ is flushed.
    * Value hints (``value_*``): every dynamic instance of a value-reuse
      target, its look-ahead commit cycle and its verdict
      (``VALUE_NONE`` once the SIF disabled the PC).  A delivered hint is
      one FQ entry and feeds the validation scoreboard.
    * Prefetch hints (``prefetch_times``, ascending, and their
      ``prefetch_addresses``): when fetch reaches ``time + offset`` each
      one is one FQ entry and is installed into the running core's L1D
      and TLB at cycle ``int(time + offset)``.  ``prefetches_installed`` /
      ``prefetches_dropped`` count the installs the memory system accepted
      and refused.
    * The FQ accepts an entry while ``fq_occupancy < fq_capacity``; it is
      never consumed, only flushed on a reboot.

    The fields below ``fq_capacity`` are run state: both paths start from
    them and leave them advanced (the cursors count consumed hints).
    """

    branch_seqs: array          # 'q'
    branch_times: array         # 'd'
    branch_correct: array       # 'b' 1 = correct
    value_seqs: array           # 'q'
    value_times: array          # 'd'
    value_verdicts: array       # 'b' VALUE_*
    prefetch_times: array       # 'd'
    prefetch_addresses: array   # 'q'
    boq_entries: int
    reboot_penalty: float
    fq_capacity: int
    offset: float
    fq_occupancy: int = 0
    fq_prefetches: int = 0
    fq_values: int = 0
    reboots: int = 0
    branch_cursor: int = 0
    value_cursor: int = 0
    prefetch_cursor: int = 0
    prefetches_installed: int = 0
    prefetches_dropped: int = 0
    #: Validation scoreboard (``skips``/``validations`` counters) the
    #: kernel credits; the interpreter's hooks run the object itself.
    scoreboard: Optional[object] = None

    def fq_offer(self, count: int) -> int:
        """Offer ``count`` FQ entries; returns how many were accepted."""
        accepted = min(count, self.fq_capacity - self.fq_occupancy)
        self.fq_occupancy += accepted
        return accepted


@dataclass
class CompiledHookSpec:
    """Optional kernel-side declarations for one set of CoreHooks."""

    #: Both engines append ``(issue_cycle, trace index)`` to this list for
    #: every load missing the L1, in program order.
    load_miss_log: Optional[list] = None

    #: Commit log both paths fill (see :class:`CommitLog`).
    commit_log: Optional[CommitLog] = None

    #: Native hint unit: the kernel runs it in place of the hooks'
    #: ``branch_hint``, ``on_fetch``, ``value_hint`` and
    #: ``on_hint_mispredict``, which are the interpreter's copy of the unit.
    hint_unit: Optional[HintUnit] = None

    #: T1 engine (:class:`~repro.dla.t1.T1PrefetchEngine`) whose stepping,
    #: for every committed load, is all ``on_commit`` does; the kernel
    #: steps it in place of ``on_commit``.
    t1: Optional[object] = None

    #: B-Fetch walker whose stepping is all ``on_fetch`` does; with a TAGE
    #: walker the kernel steps it in place of ``on_fetch``.
    bfetch: Optional["BFetchWalker"] = None

    #: CRE table whose stepping, for every load access, is all
    #: ``on_memory_access`` does; the kernel steps it in place of
    #: ``on_memory_access``.
    runahead: Optional["RunaheadTable"] = None


@dataclass
class BFetchWalker:
    """B-Fetch's shadow walker (:mod:`repro.baselines.bfetch`), for one run.

    ``predictor`` predicts and trains on every fetched conditional branch;
    ``confidence[0]`` counts its correct predictions in a row, capped at
    ``lookahead_branches`` and reset by a mispredict.  The stride table is
    indexed by static PC: ``has_address[pc]`` says ``last_address[pc]``
    holds the load's last address, and ``last_stride[pc]`` is its last
    stride (0 until it has one; a zero stride never prefetches).  A load
    repeating its stride under ``confidence[0] >= 2`` prefetches
    ``min(distance, 1 + confidence[0] // 2)`` strides ahead into
    ``memory``'s L1D.  The arrays are mutated in place, never rebound.
    """

    predictor: object
    memory: object
    lookahead_branches: int
    distance: int
    confidence: array       # 'q', one slot
    has_address: array      # 'b'
    last_address: array     # 'q'
    last_stride: array      # 'q'

    @classmethod
    def fresh(cls, predictor, memory, lookahead_branches: int, distance: int,
              num_pcs: int) -> "BFetchWalker":
        """A walker with an empty stride table for PCs below ``num_pcs``."""
        return cls(predictor, memory, lookahead_branches, distance,
                   array("q", [0]), array("b", bytes(num_pcs)),
                   array("q", bytes(8 * num_pcs)),
                   array("q", bytes(8 * num_pcs)))


@dataclass
class RunaheadTable:
    """CRE's engine (:mod:`repro.baselines.runahead`), for one run: a
    per-PC, occurrence-indexed prefetch table.

    Indexed by static PC.  An ``eligible`` PC's load has its ``count[pc]``
    occurrences in the run at ``future[offset[pc]:offset[pc] + count[pc]]``,
    in program order.  Its ``k``-th access (``seen[pc]`` counts them)
    prefetches occurrence ``k + lead[pc]`` into ``memory``'s L1D, and
    nothing once that runs past its occurrences.  ``seen`` is mutated in
    place, never rebound.
    """

    memory: object
    eligible: array         # 'b'
    lead: array             # 'q'
    offset: array           # 'q'
    count: array            # 'q'
    future: array           # 'q'
    seen: array             # 'q'

    @classmethod
    def fresh(cls, memory, num_pcs: int) -> "RunaheadTable":
        """An empty table (no eligible PC) for PCs below ``num_pcs``."""
        return cls(memory, array("b", bytes(num_pcs)),
                   *(array("q", bytes(8 * num_pcs)) for _ in range(3)),
                   array("q"), array("q", bytes(8 * num_pcs)))
