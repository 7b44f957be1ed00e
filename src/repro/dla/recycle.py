"""Skeleton recycling (the *Recycle* optimization, Sec. III-E).

The baseline skeleton is built from simple heuristics and is rarely optimal
for every phase of a program.  The recycle mechanism therefore prepares a
small number of skeleton *versions* offline (different seed combinations) and
cycles through them at run time, one loop at a time, keeping whichever runs
fastest for that loop in a Loop-Config Table (LCT).

The reproduction mirrors that flow:

* :func:`build_skeleton_versions` produces the six versions evaluated in the
  paper from combinations of the five seed options (L1 targets, L2 targets,
  value-reuse targets, T1 targets, biased branches);
* :class:`RecycleController` segments the dynamic trace into loop units,
  selects the best version per loop (statically from training samples, or
  dynamically by paying for trial iterations of every version), and emits a
  segmented simulation plan for :class:`~repro.dla.system.DlaSystem`;
* :class:`LoopConfigTable` is the small (16-entry) LCT hardware structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dla.config import DlaConfig
from repro.dla.skeleton import Skeleton, SkeletonBuilder, SkeletonOptions
from repro.emulator.trace import Trace, Window


class _SliceMemo:
    """Repeated slices of the same trace window, by content key.

    The planner carves each window into loop units, trial slices, and
    search samples on *every* ``plan()`` call.  Keying a slice on its
    parent's content key and row range hands back the same window each
    time, without slicing the columns again; the decoded-trace and
    look-ahead memos downstream key on the same content either way.
    """

    MAX_ENTRIES = 512

    def __init__(self) -> None:
        self._slices: Dict[Tuple[tuple, int, int], Trace] = {}

    def get(self, window: Trace, start: int, stop: int) -> Trace:
        stop = min(stop, len(window))
        start = min(start, stop)
        key = (window.key, start, stop)
        hit = self._slices.get(key)
        if hit is None:
            hit = window.window(start, stop - start)
            while len(self._slices) >= self.MAX_ENTRIES:
                del self._slices[next(iter(self._slices))]
            self._slices[key] = hit
        return hit


_SLICES = _SliceMemo()


def build_skeleton_versions(builder: SkeletonBuilder, enable_t1: bool = True,
                            include_value_targets: bool = True) -> List[Skeleton]:
    """The six skeleton versions cycled through by the recycle controller."""
    option_sets = [
        SkeletonOptions(
            name="default",
            include_value_targets=include_value_targets,
            keep_t1_targets=not enable_t1,
        ),
        SkeletonOptions(
            name="l2-only",
            l1_miss_threshold=None,
            l2_miss_threshold=0.001,
            include_value_targets=include_value_targets,
            keep_t1_targets=not enable_t1,
        ),
        SkeletonOptions(
            name="aggressive-prefetch",
            l1_miss_threshold=0.002,
            l2_miss_threshold=0.0002,
            include_value_targets=include_value_targets,
            keep_t1_targets=not enable_t1,
        ),
        SkeletonOptions(
            name="no-value-targets",
            include_value_targets=False,
            keep_t1_targets=not enable_t1,
        ),
        SkeletonOptions(
            name="t1-targets-back",
            include_value_targets=include_value_targets,
            keep_t1_targets=True,
        ),
        SkeletonOptions(
            name="biased-branches-pruned",
            include_value_targets=include_value_targets,
            keep_t1_targets=not enable_t1,
            biased_branch_threshold=0.97,
        ),
    ]
    return [builder.build(options, enable_t1=enable_t1) for options in option_sets]


@dataclass
class LoopConfigTable:
    """The LCT: loop branch PC -> best skeleton version index (16 entries)."""

    capacity: int = 16
    _entries: Dict[int, int] = field(default_factory=dict)
    _use_order: List[int] = field(default_factory=list)
    hits: int = 0
    misses: int = 0

    def lookup(self, loop_pc: int) -> Optional[int]:
        if loop_pc in self._entries:
            self.hits += 1
            self._touch(loop_pc)
            return self._entries[loop_pc]
        self.misses += 1
        return None

    def insert(self, loop_pc: int, skeleton_index: int) -> None:
        if loop_pc not in self._entries and len(self._entries) >= self.capacity:
            victim = self._use_order.pop(0)
            del self._entries[victim]
        self._entries[loop_pc] = skeleton_index
        self._touch(loop_pc)

    def _touch(self, loop_pc: int) -> None:
        if loop_pc in self._use_order:
            self._use_order.remove(loop_pc)
        self._use_order.append(loop_pc)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, loop_pc: int) -> bool:
        return loop_pc in self._entries


@dataclass
class LoopUnit:
    """One tuning unit: a contiguous trace region dominated by one loop."""

    loop_pc: int
    start: int
    end: int                     # exclusive index into the trace

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass
class RecyclePlan:
    """Everything the segmented DLA simulation needs, plus Fig. 15 data."""

    #: (trace window, skeleton) pairs in execution order.
    segments: List[Tuple[Trace, Skeleton]]
    #: Per-unit chosen version index, in execution order.
    chosen_versions: List[int]
    #: Instruction-weighted distribution over version indices (sums to 1).
    version_distribution: Dict[int, float]
    #: The LCT state after planning.
    lct: LoopConfigTable


class RecycleController:
    """Plans per-loop skeleton selection for a workload."""

    def __init__(self, versions: Sequence[Skeleton], dla_config: Optional[DlaConfig] = None,
                 loop_branch_pcs: Optional[set] = None) -> None:
        if not versions:
            raise ValueError("at least one skeleton version is required")
        self.versions = list(versions)
        self.config = dla_config or DlaConfig()
        self.loop_branch_pcs = set(loop_branch_pcs or ())
        self.lct = LoopConfigTable(self.config.lct_entries)

    # ------------------------------------------------------------------
    def segment_into_loop_units(self, window: Window) -> List[LoopUnit]:
        """Split the trace into loop units of at least the configured length.

        The current unit's identity is the most recently retired loop branch;
        a unit ends when a *different* loop branch retires and the unit has
        already reached the minimum length.  Reads the window's ``pc``
        column and each loop PC's static branch flag.
        """
        window = Trace.of(window)
        statics = window.statics
        loops = {pc for pc in self.loop_branch_pcs
                 if 0 <= pc < len(statics) and statics[pc] is not None
                 and statics[pc].is_branch}
        min_length = self.config.loop_unit_min_instructions
        units: List[LoopUnit] = []
        current_loop = -1
        start = 0
        pcs = window.columns.pc
        for index in [index for index, pc in enumerate(pcs) if pc in loops]:
            pc = pcs[index]
            if (
                current_loop != -1
                and pc != current_loop
                and index - start >= min_length
            ):
                units.append(LoopUnit(current_loop, start, index))
                start = index
            current_loop = pc
        if start < len(pcs):
            units.append(LoopUnit(current_loop if current_loop != -1 else 0,
                                  start, len(pcs)))
        return units

    # ------------------------------------------------------------------
    def plan(self, dla_system, entries: Window,
             dynamic: bool = False, sample_length: int = 2500,
             search_unit_limit: Optional[int] = None) -> RecyclePlan:
        """Choose a skeleton version per loop unit and emit a simulation plan.

        ``dynamic=True`` models on-line tuning: each unit first cycles through
        every version for a trial slice (paying for the suboptimal ones)
        before settling on the winner; ``dynamic=False`` models off-line
        (training-input) tuning where the winner is known up front.

        ``search_unit_limit`` bounds how many *distinct loops* are tuned:
        only the ``N`` loops covering the most trace instructions (ties
        broken by first appearance, so the choice is deterministic) pay for
        version search and dynamic trials; the long tail of minor loops is
        pinned to the default version.  The plan still covers the entire
        trace — this samples the expensive tuning work the way quick mode
        samples workloads, which is what keeps ``--full`` segmented cells
        from dominating campaign wall time.
        """
        window = Trace.of(entries)
        units = self.segment_into_loop_units(window)
        searchable: Optional[set] = None
        if search_unit_limit is not None:
            instruction_weight: Dict[int, int] = {}
            appearance: Dict[int, int] = {}
            for unit in units:
                instruction_weight[unit.loop_pc] = (
                    instruction_weight.get(unit.loop_pc, 0) + unit.length
                )
                appearance.setdefault(unit.loop_pc, len(appearance))
            ranked = sorted(
                instruction_weight,
                key=lambda pc: (-instruction_weight[pc], appearance[pc]),
            )
            searchable = set(ranked[:search_unit_limit])
        if not units:
            skeleton = self.versions[0]
            return RecyclePlan(
                segments=[(window, skeleton)],
                chosen_versions=[0],
                version_distribution={0: 1.0},
                lct=self.lct,
            )

        best_for_loop: Dict[int, int] = {}
        segments: List[Tuple[Trace, Skeleton]] = []
        chosen: List[int] = []
        weights: Dict[int, float] = {}
        total_instructions = float(len(window))

        for unit in units:
            unit_entries = _SLICES.get(window, unit.start, unit.end)
            sampled = searchable is None or unit.loop_pc in searchable
            cached = self.lct.lookup(unit.loop_pc)
            if cached is not None:
                best = cached
            elif unit.loop_pc in best_for_loop:
                best = best_for_loop[unit.loop_pc]
            elif not sampled:
                # Unsampled minor loop: default version, no search, no trials.
                best = 0
                best_for_loop[unit.loop_pc] = best
            else:
                best = self._search_best(dla_system, unit_entries, sample_length)
                best_for_loop[unit.loop_pc] = best
                self.lct.insert(unit.loop_pc, best)

            if dynamic and cached is None and sampled:
                # On-line tuning: spend trial slices on every version first.
                trial = self.config.recycle_trial_instructions
                cursor = 0
                for version_index, skeleton in enumerate(self.versions):
                    slice_entries = _SLICES.get(unit_entries, cursor, cursor + trial)
                    if not slice_entries:
                        break
                    segments.append((slice_entries, skeleton))
                    weights[version_index] = weights.get(version_index, 0.0) + len(slice_entries)
                    cursor += trial
                remainder = _SLICES.get(unit_entries, cursor, len(unit_entries))
                if remainder:
                    segments.append((remainder, self.versions[best]))
                    weights[best] = weights.get(best, 0.0) + len(remainder)
            else:
                segments.append((unit_entries, self.versions[best]))
                weights[best] = weights.get(best, 0.0) + len(unit_entries)
            chosen.append(best)

        distribution = {
            version: weight / total_instructions for version, weight in weights.items()
        }
        return RecyclePlan(
            segments=segments,
            chosen_versions=chosen,
            version_distribution=distribution,
            lct=self.lct,
        )

    # ------------------------------------------------------------------
    def _search_best(self, dla_system, unit_entries: Trace,
                     sample_length: int) -> int:
        """Try every version on a sample of the unit; return the fastest."""
        sample = _SLICES.get(unit_entries, 0, sample_length)
        if not sample:
            return 0
        best_index, best_cycles = 0, float("inf")
        for index, skeleton in enumerate(self.versions):
            outcome = dla_system.simulate(sample, skeleton=skeleton)
            if outcome.cycles < best_cycles:
                best_index, best_cycles = index, outcome.cycles
        return best_index
