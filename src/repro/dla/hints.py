"""Main-thread hint source: the look-ahead pass's products as a hint stream.

The look-ahead pass leaves :class:`LookaheadProducts`: program-order commit
logs of its conditional branches and value-reuse targets, plus its
L1-missing loads as prefetch hints.  :class:`MainThreadHintSource` turns
them into one :class:`~repro.core.compile.hookspec.HintUnit` for the main
thread's run, which owns all of the runtime coupling behaviour:

* stalling the main thread's fetch until a BOQ entry exists (hints become
  available only after the look-ahead thread produced them, plus the
  core-to-core transfer latency);
* throttling the look-ahead lead to the BOQ capacity;
* rebooting the look-ahead thread when a hint turns out wrong (all later
  hints are pushed back by the reboot penalty plus the re-execution time);
* just-in-time installation of L1 prefetch / TLB hints as the main thread's
  fetch reaches the corresponding point of the program;
* value-reuse delivery with the validation-skip scoreboard.

Whether a hint is correct never depends on timing, only on the trace, the
skeleton's bias/risky sets, the SIF-disable history and the RNG stream.  So
every verdict is drawn before the run, in program order and with a
branch's draw before the value draw of the same instruction: the order in
which per-instruction hooks would consume the stream.  With the compiled
kernel loaded the draws run natively too (``draw_verdicts``, reading the
look-ahead window's decoded columns), else in :meth:`_draw` over its
entries.  The kernel
runs the whole unit natively, due prefetch-hint installs and T1's steps
included; the hooks below run the same unit on the reference interpreter.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.compile import native_kernel
from repro.core.compile.driver import draw_verdicts
from repro.core.compile.hookspec import (
    VALUE_CORRECT,
    VALUE_NONE,
    VALUE_WRONG,
    CommitLog,
    CompiledHookSpec,
    HintUnit,
)
from repro.core.pipeline import BranchHint, CoreHooks, ValueHint
from repro.dla.config import DlaConfig
from repro.dla.queues import BranchOutcomeQueue, FootnoteKind, FootnoteQueue
from repro.dla.t1 import T1PrefetchEngine
from repro.dla.value_reuse import ValidationScoreboard
from repro.emulator.trace import DynamicInst, Trace
from repro.memory.hierarchy import CoreMemorySystem
from repro.util.rng import DeterministicRng


@dataclass
class LookaheadProducts:
    """What one look-ahead pass produced, in program order."""

    #: The look-ahead's trace window: the skeleton's selection of the
    #: segment's rows, each carrying its seq.
    window: Trace
    #: Its commit log: every conditional branch (``branch_*``) and every
    #: value-reuse target instance (``pc_*``), as row indices of ``window``.
    commits: CommitLog
    #: Prefetch hints (LT L1 misses), ordered by LT cycle: (cycle, address).
    prefetch_hints: List[Tuple[float, int]]


class MainThreadHintSource:
    """The main thread's hint unit for one segment, and its hooks."""

    def __init__(
        self,
        products: LookaheadProducts,
        dla_config: DlaConfig,
        memory: CoreMemorySystem,
        boq: BranchOutcomeQueue,
        fq: FootnoteQueue,
        risky_branch_pcs: Set[int],
        biased_branch_pcs: Set[int],
        branch_bias_direction: Dict[int, bool],
        t1_engine: Optional[T1PrefetchEngine] = None,
        rng: Optional[DeterministicRng] = None,
    ) -> None:
        self.products = products
        self.config = dla_config
        self.memory = memory
        self.boq = boq
        self.fq = fq
        self.t1 = t1_engine
        self.scoreboard = ValidationScoreboard()
        #: Interpreter only: fetch cycle of each consumed branch hint.
        self._consumed: List[float] = []
        rng = rng or DeterministicRng(dla_config.seed)
        kernel = native_kernel()
        if kernel is None:
            verdicts = self._draw(risky_branch_pcs, biased_branch_pcs,
                                  branch_bias_direction, rng)
        else:
            verdicts = draw_verdicts(
                kernel, products.window, products.commits,
                (dla_config.safe_branch_error_rate,
                 dla_config.risky_branch_error_rate,
                 dla_config.value_error_rate),
                risky_branch_pcs, biased_branch_pcs, branch_bias_direction,
                rng)
        self.unit = self._unit(*verdicts)

    def _draw(self, risky: Set[int], biased: Set[int],
              bias_direction: Dict[int, bool],
              rng: DeterministicRng) -> Tuple[array, array, array, array]:
        """Every hint's verdict: ``(branch_seqs, branch_correct,
        value_seqs, value_verdicts)``."""
        cfg = self.config
        entries = self.products.window.entries
        commits = self.products.commits
        draw = rng.bernoulli
        safe_rate = cfg.safe_branch_error_rate
        risky_rate = cfg.risky_branch_error_rate
        value_rate = cfg.value_error_rate
        branch_seqs, branch_correct = array("q"), array("b")
        value_seqs, value_verdicts = array("q"), array("b")
        value_index = commits.pc_index
        disabled: Set[int] = set()
        end = len(entries)
        j = 0
        # ``end`` is a sentinel branch that drains the remaining values.
        for b in (*commits.branch_index, end):
            while j < len(value_index) and value_index[j] < b:
                entry = entries[value_index[j]]
                pc = entry.static.pc
                value_seqs.append(entry.seq)
                if pc in disabled:
                    value_verdicts.append(VALUE_NONE)
                elif draw(value_rate):
                    # The SIF entry is deleted: this static instruction
                    # receives no further predictions.
                    disabled.add(pc)
                    value_verdicts.append(VALUE_WRONG)
                else:
                    value_verdicts.append(VALUE_CORRECT)
                j += 1
            if b == end:
                break
            entry = entries[b]
            pc = entry.static.pc
            branch_seqs.append(entry.seq)
            if pc in biased:
                # The skeleton replaced this branch with its bias direction;
                # the hint is wrong whenever the outcome goes against it.
                correct = (bool(entry.taken) == bias_direction.get(pc, True)
                           and not draw(safe_rate))
            else:
                correct = not draw(risky_rate if pc in risky else safe_rate)
            branch_correct.append(correct)
        return branch_seqs, branch_correct, value_seqs, value_verdicts

    def _unit(self, branch_seqs: array, branch_correct: array,
              value_seqs: array, value_verdicts: array) -> HintUnit:
        """The unit for these verdicts and the look-ahead's columns."""
        cfg = self.config
        commits = self.products.commits
        return HintUnit(
            branch_seqs=branch_seqs,
            branch_times=commits.branch_times,
            branch_correct=branch_correct,
            value_seqs=value_seqs,
            value_times=commits.pc_times,
            value_verdicts=value_verdicts,
            prefetch_times=array(
                "d", [cycle for cycle, _ in self.products.prefetch_hints]),
            prefetch_addresses=array(
                "q", [address for _, address in self.products.prefetch_hints]),
            boq_entries=cfg.boq_entries,
            reboot_penalty=float(cfg.reboot_penalty),
            fq_capacity=self.fq.capacity,
            offset=float(cfg.hint_transfer_latency),
            fq_occupancy=self.fq.occupancy,
            scoreboard=self.scoreboard,
        )

    # ------------------------------------------------------------------
    # hook entry points
    # ------------------------------------------------------------------
    def hooks(self) -> CoreHooks:
        # A value hook with no value hints could only ever return None, and
        # a commit hook without a T1 engine does nothing: both are omitted.
        # Compiled, the declared hint unit replaces every hook but T1's, and
        # the declared engine that one.
        unit = self.unit
        t1 = self.t1
        fast = CompiledHookSpec(hint_unit=unit, t1=t1)
        return CoreHooks(
            branch_hint=self.branch_hint,
            value_hint=self.value_hint if len(unit.value_seqs) else None,
            on_commit=self.on_commit if t1 is not None else None,
            on_fetch=self.on_fetch,
            on_hint_mispredict=self.on_hint_mispredict,
            fast_hints=fast,
        )

    def settle(self) -> None:
        """Move the finished run's queue traffic into the BOQ and FQ."""
        unit = self.unit
        consumed = unit.branch_cursor
        self.boq.record(consumed, unit.branch_correct[:consumed].count(0))
        self.fq.occupancy = unit.fq_occupancy
        self.fq.record(FootnoteKind.L1_PREFETCH, unit.fq_prefetches)
        self.fq.record(FootnoteKind.VALUE_PREDICTION, unit.fq_values)

    # -- branch hints ------------------------------------------------------
    def branch_hint(self, entry: DynamicInst) -> Optional[BranchHint]:
        unit = self.unit
        k = unit.branch_cursor
        if k >= len(unit.branch_seqs) or unit.branch_seqs[k] != entry.seq:
            return None
        available = unit.branch_times[k] + unit.offset
        # BOQ capacity: the hint for branch k cannot exist before the entry
        # for branch k - capacity was consumed by the main thread.
        if k >= unit.boq_entries:
            available = max(available, self._consumed[k - unit.boq_entries])
        return BranchHint(available=available,
                          correct=bool(unit.branch_correct[k]),
                          has_target=True)

    # -- value hints ----------------------------------------------------------
    def value_hint(self, entry: DynamicInst) -> Optional[ValueHint]:
        static = entry.static
        request = self.value_hint_request(entry)
        skip = self.scoreboard.process_code(
            static.class_code, static.dst, static.srcs, request is not None
        )
        if request is None:
            return None
        available, correct = request
        return ValueHint(available=available, correct=correct,
                         skip_validation=skip and correct)

    def value_hint_request(self, entry: DynamicInst) -> Optional[Tuple[float, bool]]:
        """Deliver ``entry``'s value hint through the FQ, as
        ``(available_cycle, correct)``; ``None`` when it carries none."""
        unit = self.unit
        k = unit.value_cursor
        if k >= len(unit.value_seqs) or unit.value_seqs[k] != entry.seq:
            return None
        unit.value_cursor = k + 1
        verdict = unit.value_verdicts[k]
        if verdict == VALUE_NONE:
            return None
        unit.fq_values += unit.fq_offer(1)
        return unit.value_times[k] + unit.offset, verdict == VALUE_CORRECT

    # -- fetch-side activity ----------------------------------------------------
    def on_fetch(self, entry: DynamicInst, fetch_cycle: float) -> None:
        # Install prefetch / TLB hints whose (shifted) production time has
        # passed — the just-in-time release tied to BOQ consumption.
        unit = self.unit
        times = unit.prefetch_times
        offset = unit.offset
        lo = hi = unit.prefetch_cursor
        while hi < len(times) and times[hi] + offset <= fetch_cycle:
            hi += 1
        if hi > lo:
            unit.fq_prefetches += unit.fq_offer(hi - lo)
            unit.prefetch_cursor = hi
            self.install(lo, hi, offset)
        k = unit.branch_cursor
        if k < len(unit.branch_seqs) and unit.branch_seqs[k] == entry.seq:
            self._consumed.append(fetch_cycle)
            unit.branch_cursor = k + 1

    def install(self, lo: int, hi: int, offset: float) -> None:
        """Install prefetch hints ``lo`` to ``hi - 1`` at ``cycle + offset``.

        Their FQ entries were transferred either way (the communication
        happened); only successful installs count as prefetches.
        """
        unit = self.unit
        prefetch = self.memory.prefetch
        prefill_tlb = self.memory.prefill_tlb
        for produce_cycle, address in self.products.prefetch_hints[lo:hi]:
            available = int(produce_cycle + offset)
            if prefetch(address, available, level="l1") is not None:
                unit.prefetches_installed += 1
            else:
                unit.prefetches_dropped += 1
            prefill_tlb(address, available)

    # -- commit-side activity ------------------------------------------------------
    def on_commit(self, entry: DynamicInst, commit_cycle: float) -> None:
        static = entry.static
        if static.is_load:
            self.t1.on_commit(static.pc, entry.effective_address, commit_cycle)
        # Note: the paper clears the prefetch table when "a loop terminates".
        # With the nested loops of the synthetic kernels a literal
        # clear-on-every-not-taken-backward-branch would flush entries every
        # few iterations; the stale-stride fallback inside the engine already
        # handles behaviour changes, so no explicit clearing is done here.

    # -- reboots ------------------------------------------------------------------
    def on_hint_mispredict(self, entry: DynamicInst, resolve_cycle: float) -> None:
        """An incorrect BOQ direction was detected: reboot the look-ahead thread.

        The look-ahead thread restarts from the main thread's architectural
        state; every hint it produces afterwards is delayed by the reboot
        penalty plus however far the main thread had to progress to expose
        the error.  The pending FQ entries are dropped.
        """
        unit = self.unit
        # The mispredicted branch is the last hint consumed at fetch.
        lt_time = unit.branch_times[unit.branch_cursor - 1]
        unit.offset = max(unit.offset,
                          resolve_cycle + unit.reboot_penalty - lt_time)
        unit.fq_occupancy = 0
        unit.reboots += 1
