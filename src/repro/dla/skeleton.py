"""Skeleton construction (Appendix A of the paper).

A *skeleton* is the static subset of the program the look-ahead thread
executes.  Construction follows the paper exactly:

1. collect *seed* instructions — all control instructions, plus memory
   instructions whose training-run miss probability exceeds the thresholds
   (>1% in L1 or >0.1% in L2), plus optional extra seeds contributed by the
   R3 optimizations (value-reuse targets, T1 targets added back);
2. include the backward dependence chain of every seed, ignoring
   store-to-load dependences separated by more than 1000 static
   instructions;
3. encode the result as one mask bit per static instruction (plus the S bit
   marking T1-handled strided instructions, which are *excluded* from the
   skeleton along with their exclusive backward slices).

Biased branches can additionally be converted to unconditional control flow
in the skeleton ("biased branches" recycling option): they stay in the
skeleton (the BOQ still needs an outcome for them) but their backward slice
is no longer required, shrinking the skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.dla.profiling import ProgramProfile
from repro.emulator.trace import Trace
from repro.isa.analysis import StaticAnalysis, backward_slice
from repro.isa.program import Program


@dataclass(frozen=True)
class SkeletonOptions:
    """Seed-selection options — one combination per skeleton version.

    Frozen: a :class:`SkeletonBuilder` memoises its skeletons by options."""

    name: str = "default"
    #: Seed memory instructions with L1 miss rate above this (None disables).
    l1_miss_threshold: Optional[float] = 0.01
    #: Seed memory instructions with L2 miss rate above this (None disables).
    l2_miss_threshold: Optional[float] = 0.001
    #: Add value-reuse targets (slow instructions) as seeds.
    include_value_targets: bool = False
    #: Cap on how many value-reuse targets may be added back to the skeleton.
    #: Adding a slow instruction speeds up the main thread but slows the
    #: look-ahead thread (its backward chain comes along), so only the worst
    #: offenders are worth it.
    max_value_targets: int = 6
    #: Budget on the *dynamic* growth value-reuse seeds may cause, expressed
    #: as a fraction of the workload's dynamic instruction count.  A seed
    #: whose backward chain would grow the look-ahead thread beyond the
    #: budget is skipped — the LT slowdown would outweigh the MT gain.
    value_target_growth_budget: float = 0.12
    #: Keep T1-handled strided loads in the skeleton (by default they are
    #: offloaded and removed).
    keep_t1_targets: bool = True
    #: Treat branches with at least this bias as unconditional in the
    #: skeleton, dropping their backward slices (None disables).
    biased_branch_threshold: Optional[float] = None
    #: Ignore store->load dependences farther apart than this many static
    #: instructions when slicing (Appendix A).
    max_store_load_distance: int = 1000


@dataclass
class Skeleton:
    """The result of skeleton construction for one program."""

    program: Program
    options: SkeletonOptions
    #: Static PCs included in the look-ahead thread's code.
    included_pcs: FrozenSet[int]
    #: Static PCs marked with the S bit and handled by the T1 engine.
    t1_pcs: FrozenSet[int]
    #: Seed PCs that caused inclusion (for reporting / debugging).
    seed_pcs: FrozenSet[int]
    #: Branch PCs whose slices were dropped due to strong bias.
    biased_branch_pcs: FrozenSet[int]
    #: Memory-seed PCs (prefetch payloads) included in the skeleton.
    prefetch_payload_pcs: FrozenSet[int]

    def mask(self) -> List[bool]:
        """Mask bits, one per static instruction (True = on the skeleton)."""
        return [pc in self.included_pcs for pc in range(len(self.program))]

    def contains(self, pc: int) -> bool:
        return pc in self.included_pcs

    @property
    def static_fraction(self) -> float:
        """Fraction of static instructions on the skeleton."""
        return len(self.included_pcs) / len(self.program) if len(self.program) else 0.0

    def dynamic_fraction(self, trace: Trace) -> float:
        """Fraction of dynamic instructions the look-ahead thread executes."""
        if len(trace) == 0:
            return 0.0
        included_pcs = self.included_pcs
        included = sum(count for pc, count in trace.pc_execution_counts().items()
                       if pc in included_pcs)
        return included / len(trace)

    def describe(self) -> str:
        return (
            f"skeleton[{self.options.name}]: {len(self.included_pcs)}/"
            f"{len(self.program)} static instructions, "
            f"{len(self.t1_pcs)} T1-offloaded, "
            f"{len(self.biased_branch_pcs)} biased branches pruned"
        )


class SkeletonBuilder:
    """Builds skeletons for one program from its profile.

    Everything a builder derives depends only on its program and profile,
    so it is worked out once per builder: the static analysis, each
    skeleton (per options and T1 mode) and each skeleton's risky-branch
    set.  One builder serves every :class:`~repro.dla.system.DlaSystem` of
    a workload setup; skeletons are never mutated, so they are shared.
    """

    def __init__(self, program: Program, profile: ProgramProfile,
                 analysis: Optional[StaticAnalysis] = None) -> None:
        self.program = program
        self.profile = profile
        self.analysis = analysis or StaticAnalysis.analyze(program)
        self._skeletons: Dict[Tuple[SkeletonOptions, bool], Skeleton] = {}
        self._risky: Dict[FrozenSet[int], FrozenSet[int]] = {}

    # ------------------------------------------------------------------
    def build(self, options: Optional[SkeletonOptions] = None,
              enable_t1: bool = False) -> Skeleton:
        """The skeleton under ``options`` (memoised).

        ``enable_t1`` activates the Reduce optimization: strided loads are
        marked with the S bit, excluded from the seed set, and their
        backward dependence chains are not pulled in on their behalf.
        """
        key = (options or SkeletonOptions(), bool(enable_t1))
        skeleton = self._skeletons.get(key)
        if skeleton is None:
            skeleton = self._skeletons[key] = self._construct(*key)
        return skeleton

    def _construct(self, options: SkeletonOptions, enable_t1: bool) -> Skeleton:
        program = self.program
        profile = self.profile

        t1_pcs: Set[int] = set()
        if enable_t1 and not options.keep_t1_targets:
            t1_pcs = set(profile.strided_pcs())
        elif enable_t1 and options.keep_t1_targets:
            # The engine still handles them in MT, but they remain seeds so
            # the look-ahead thread warms its own cache with them.
            t1_pcs = set(profile.strided_pcs())

        # -- seeds -------------------------------------------------------
        control_seeds = set(program.control_pcs())
        memory_seeds: Set[int] = set()
        if options.l1_miss_threshold is not None:
            memory_seeds.update(profile.l1_miss_pcs(options.l1_miss_threshold))
        if options.l2_miss_threshold is not None:
            memory_seeds.update(profile.l2_miss_pcs(options.l2_miss_threshold))
        if enable_t1 and not options.keep_t1_targets:
            memory_seeds -= t1_pcs

        value_seeds: Set[int] = set()
        if options.include_value_targets:
            value_seeds = self._select_value_seeds(options, control_seeds, memory_seeds)

        biased_pcs: Set[int] = set()
        if options.biased_branch_threshold is not None:
            biased_pcs = set(
                profile.biased_branch_pcs(options.biased_branch_threshold)
            )

        # Biased branches stay on the skeleton but do not act as slice seeds.
        slicing_seeds = (control_seeds - biased_pcs) | memory_seeds | value_seeds
        included = backward_slice(
            program,
            slicing_seeds,
            self.analysis.chains,
            max_store_load_distance=options.max_store_load_distance,
        )
        included |= control_seeds          # every control instruction is kept

        return Skeleton(
            program=program,
            options=options,
            included_pcs=frozenset(included),
            t1_pcs=frozenset(t1_pcs),
            seed_pcs=frozenset(slicing_seeds),
            biased_branch_pcs=frozenset(biased_pcs),
            prefetch_payload_pcs=frozenset(memory_seeds),
        )

    # ------------------------------------------------------------------
    def _select_value_seeds(self, options: SkeletonOptions,
                            control_seeds: Set[int],
                            memory_seeds: Set[int]) -> Set[int]:
        """Pick value-reuse seeds whose look-ahead cost stays within budget.

        Candidates are ranked by how much main-thread time they cost
        (latency x execution count).  Each candidate's backward slice is
        compared against the skeleton that would exist without it; a
        candidate is accepted only while the cumulative *dynamic* growth of
        the look-ahead thread stays below the configured budget, since an LT
        slowed past the MT becomes the system bottleneck.
        """
        profile = self.profile
        candidates = profile.slow_pcs()
        ranked = sorted(
            candidates,
            key=lambda pc: (
                profile.dispatch_to_execute.get(pc, 0.0)
                * profile.instruction_counts.get(pc, 0)
            ),
            reverse=True,
        )[: options.max_value_targets]
        if not ranked:
            return set()

        base_included = backward_slice(
            self.program,
            control_seeds | memory_seeds,
            self.analysis.chains,
            max_store_load_distance=options.max_store_load_distance,
        )
        dynamic_total = max(1, profile.dynamic_instructions)
        budget = options.value_target_growth_budget * dynamic_total
        growth = 0.0
        accepted: Set[int] = set()
        for pc in ranked:
            candidate_slice = backward_slice(
                self.program,
                [pc],
                self.analysis.chains,
                max_store_load_distance=options.max_store_load_distance,
            )
            new_pcs = candidate_slice - base_included
            added_dynamic = sum(
                profile.instruction_counts.get(p, 0) for p in new_pcs
            )
            if growth + added_dynamic > budget:
                continue
            growth += added_dynamic
            accepted.add(pc)
            base_included |= candidate_slice
        return accepted

    # ------------------------------------------------------------------
    def risky_branch_pcs(self, skeleton: Skeleton) -> FrozenSet[int]:
        """Branches whose look-ahead outcome may be stale (memoised per
        skeleton PC set).

        A branch is *risky* when its backward dependence chain contains a
        load whose producing store (same base register and displacement) is
        not part of the skeleton: the look-ahead thread would then read a
        stale value and can steer down the wrong path, forcing a reboot.
        """
        included = skeleton.included_pcs
        if included in self._risky:
            return self._risky[included]
        program = self.program
        chains = self.analysis.chains
        store_signatures: Dict[Tuple[int, int], List[int]] = {}
        for inst in program:
            if inst.is_store and inst.srcs:
                store_signatures.setdefault((inst.srcs[0], inst.imm), []).append(inst.pc)

        risky: Set[int] = set()
        for branch_pc in program.branch_pcs():
            # Walk the branch's slice (bounded) looking for vulnerable loads.
            stack = [branch_pc]
            seen: Set[int] = set()
            vulnerable = False
            while stack and not vulnerable:
                pc = stack.pop()
                if pc in seen:
                    continue
                seen.add(pc)
                inst = program[pc]
                if inst.is_load and inst.srcs:
                    for store_pc in store_signatures.get((inst.srcs[0], inst.imm), ()):
                        if store_pc not in included:
                            vulnerable = True
                            break
                stack.extend(chains.get(pc, ()))
            if vulnerable:
                risky.add(branch_pc)
        self._risky[included] = frozenset(risky)
        return self._risky[included]
