"""Declarations a hook source may attach to its CoreHooks for the kernel.

The reference interpreter calls every hook once per instruction.  A hook
source that knows more about its own behaviour declares it here, and the
compiled kernel then does the work itself or calls back only where a call
can matter:

* **Sparse commit hook** (``commit_pcs``): fire ``on_commit`` only for
  instructions whose PC is declared.  A skipped call must be an observable
  no-op.  With a declared T1 engine and the stock memory hierarchy the
  kernel fires none: it steps the engine itself.
* **Load-miss log** (``load_miss_log``): the kernel appends
  ``(issue_cycle, address)`` for every load missing the L1 in place of an
  ``on_memory_access`` hook that did only that.
* **Commit log** (:class:`CommitLog`): program-order ``(trace index, commit
  cycle)`` rows of every committed conditional branch and of every
  instruction at a declared PC.  Both paths fill it: the kernel in its
  loop, the interpreter from its commit column after the run.
* **Hint unit** (:class:`HintUnit`): a DLA main thread's whole hint stream
  as columns — branch hints with their BOQ-capacity gate, value hints with
  the validation scoreboard, prefetch hints, reboots and FQ occupancy.  The
  kernel runs it natively (installing due prefetch hints itself when it
  runs the memory hierarchy, else through one Python call); the
  interpreter runs the hint source's hooks over the same columns
  and state, which keeps them the oracle.
* **T1** (``t1``): the hook source's ``on_commit`` only steps this
  :class:`~repro.dla.t1.T1PrefetchEngine` for committed loads.  When the
  kernel runs the memory hierarchy natively it steps the engine's table
  arrays itself and issues the prefetches.
* **B-Fetch walker** (:class:`BFetchWalker`): the hook source's
  ``on_fetch`` only steps B-Fetch's shadow walker.  When the kernel runs
  the memory hierarchy natively and the walker predicts with the stock
  TAGE, the kernel steps the walker's predictor and stride table itself at
  every fetch and issues the prefetches.
* **Runahead table** (:class:`RunaheadTable`): the hook source's
  ``on_memory_access`` only steps CRE's occurrence-indexed prefetch table
  for loads.  Like the load-miss log it is a declared memory hook, so the
  run keeps native data hits, and with the memory hierarchy native the
  kernel steps the table after each load access.

The golden equivalence suites and the compiled-vs-interpreter A/B tests pin
the two paths together bit-for-bit.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple


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
      and TLB at cycle ``int(time + offset)`` — by ``install(lo, hi,
      offset)``, called once per fetch with everything that came due, or
      by the kernel itself when it runs the memory hierarchy natively.
      ``prefetches_installed`` / ``prefetches_dropped`` count the installs
      the memory system accepted and refused.  The hint source clears
      ``install`` once the run has settled.
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
    install: Optional[Callable[[int, int, float], None]]
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

    #: ``on_commit`` filter: fire only when the instruction's PC is in the
    #: tuple (an empty tuple never fires); ``None`` fires on every commit.
    commit_pcs: Optional[Tuple[int, ...]] = None

    #: ``on_memory_access`` replacement: a hook that only appends
    #: ``(issue_cycle, address)`` for every load missing the L1 may declare
    #: its list here.  The kernel then appends those entries itself, in
    #: program order, so the run keeps native L1/TLB data hits instead of
    #: calling back for every access to build its AccessResult view.
    load_miss_log: Optional[list] = None

    #: Commit log both paths fill (see :class:`CommitLog`).
    commit_log: Optional[CommitLog] = None

    #: Native hint unit.  Declared, the kernel never calls the hooks'
    #: ``branch_hint``, ``on_fetch``, ``value_hint`` or
    #: ``on_hint_mispredict``: those are the interpreter's copy of the unit.
    hint_unit: Optional[HintUnit] = None

    #: T1 engine (:class:`~repro.dla.t1.T1PrefetchEngine`) whose stepping,
    #: for every committed load, is all ``on_commit`` does.  With native
    #: misses the kernel steps it in place of ``on_commit``.
    t1: Optional[object] = None

    #: B-Fetch walker whose stepping is all ``on_fetch`` does.  With native
    #: misses and a TAGE walker the kernel steps it in place of
    #: ``on_fetch``.
    bfetch: Optional["BFetchWalker"] = None

    #: CRE table whose stepping, for every load access, is all
    #: ``on_memory_access`` does.  With native misses the kernel steps it in
    #: place of ``on_memory_access``.
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
