"""Static analysis over programs: basic blocks, def-use chains, backward slices.

Skeleton construction (Appendix A of the paper) works on the program binary:
starting from *seed* instructions (branches plus profiled memory
instructions), it walks backward dependence chains and marks everything
reachable.  The helpers in this module provide exactly the reaching-definition
information that walk requires, computed once per program and memoised inside
a :class:`StaticAnalysis` object.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.isa.program import BasicBlock, Program
from repro.isa.registers import ZERO_REGISTER


def build_basic_blocks(program: Program) -> List[BasicBlock]:
    """Partition ``program`` into basic blocks and link successors.

    Block leaders are: the entry point, every branch/jump/call target, and
    every instruction that follows a control instruction.
    """
    n = len(program)
    if n == 0:
        return []
    leaders: Set[int] = {0}
    for inst in program:
        if inst.is_control:
            if inst.target is not None:
                leaders.add(inst.target)
            if inst.pc + 1 < n:
                leaders.add(inst.pc + 1)
    ordered_leaders = sorted(leaders)
    blocks: List[BasicBlock] = []
    leader_to_block: Dict[int, int] = {}
    for idx, leader in enumerate(ordered_leaders):
        end = (ordered_leaders[idx + 1] - 1) if idx + 1 < len(ordered_leaders) else n - 1
        blocks.append(BasicBlock(index=idx, start=leader, end=end))
        leader_to_block[leader] = idx

    for block in blocks:
        terminator = program[block.end]
        succs: List[int] = []
        if terminator.is_control:
            if terminator.target is not None:
                succs.append(leader_to_block[terminator.target])
            # Conditional branches and calls fall through as well.
            if (terminator.is_branch or terminator.op_class.name == "CALL") and (
                block.end + 1 in leader_to_block
            ):
                succs.append(leader_to_block[block.end + 1])
        else:
            if block.end + 1 in leader_to_block:
                succs.append(leader_to_block[block.end + 1])
        block.successors = succs
    return blocks


def def_use_chains(program: Program) -> Dict[int, List[int]]:
    """Map each static PC to the PCs of its *most recent* register definers.

    This is an intentionally simple, conservative reaching-definition
    approximation: for every source register of an instruction we record any
    instruction earlier in *static program order* that defines that register
    and is the closest such definition along a linear scan, plus any
    definition that can reach around a backward branch (loop-carried
    dependence).  The approximation matches what a binary parser without full
    data-flow analysis can extract — the setting the paper describes — and is
    sufficient for skeleton construction because including an extra producer
    only grows the skeleton slightly and never breaks correctness (the
    skeleton is speculative by design).
    """
    last_def: Dict[int, int] = {}
    # First pass: straight-line "closest previous definition".
    linear_defs: Dict[int, List[int]] = defaultdict(list)
    for inst in program:
        for src in inst.srcs:
            if src == ZERO_REGISTER:
                continue
            if src in last_def:
                linear_defs[inst.pc].append(last_def[src])
        if inst.writes_register:
            last_def[inst.dst] = inst.pc

    # Second pass: add loop-carried definitions.  For each backward branch
    # with target T and branch PC B, any definition inside [T, B] reaches the
    # uses inside the same region on the next iteration.
    region_defs: Dict[int, Dict[int, int]] = {}
    for inst in program:
        if inst.is_control and inst.target is not None and inst.target <= inst.pc:
            lo, hi = inst.target, inst.pc
            defs_in_region: Dict[int, int] = {}
            for pc in range(lo, hi + 1):
                producer = program[pc]
                if producer.writes_register:
                    defs_in_region[producer.dst] = pc
            region_defs[(lo, hi)] = defs_in_region

    chains: Dict[int, List[int]] = {pc: list(defs) for pc, defs in linear_defs.items()}
    for (lo, hi), defs_in_region in region_defs.items():
        for pc in range(lo, hi + 1):
            inst = program[pc]
            for src in inst.srcs:
                if src == ZERO_REGISTER:
                    continue
                if src in defs_in_region:
                    chains.setdefault(pc, [])
                    if defs_in_region[src] not in chains[pc]:
                        chains[pc].append(defs_in_region[src])
    for inst in program:
        chains.setdefault(inst.pc, [])
    return dict(chains)


def backward_slice(
    program: Program,
    seeds: Iterable[int],
    chains: Dict[int, List[int]] = None,
    max_store_load_distance: int = 1000,
) -> Set[int]:
    """PCs reachable by walking backward dependence chains from ``seeds``.

    Memory dependences (store feeding a later load at the same base-register
    + displacement pattern) are included only when the store and load are
    within ``max_store_load_distance`` static instructions of each other,
    matching the heuristic in Appendix A of the paper.
    """
    if chains is None:
        chains = def_use_chains(program)

    # Approximate store->load memory dependences by matching base register
    # and displacement, the same clue a binary parser would use.
    store_sites: Dict[Tuple[int, int], List[int]] = defaultdict(list)
    for inst in program:
        if inst.is_store and inst.srcs:
            store_sites[(inst.srcs[0], inst.imm)].append(inst.pc)

    work = deque(seeds)
    included: Set[int] = set()
    while work:
        pc = work.popleft()
        if pc in included:
            continue
        included.add(pc)
        for producer_pc in chains.get(pc, ()):
            if producer_pc not in included:
                work.append(producer_pc)
        inst = program[pc]
        if inst.is_load and inst.srcs:
            for store_pc in store_sites.get((inst.srcs[0], inst.imm), ()):
                if abs(store_pc - pc) <= max_store_load_distance and store_pc not in included:
                    work.append(store_pc)
    return included


@dataclass(frozen=True)
class StaticAnalysis:
    """The static analyses of one program, computed together by
    :meth:`analyze`.

    Nothing memoises it here: a
    :class:`~repro.dla.skeleton.SkeletonBuilder` holds one, and a workload
    setup keeps one builder for all its cells, so each setup's program is
    analysed once.
    """

    program: Program
    blocks: Tuple[BasicBlock, ...]
    chains: Dict[int, List[int]]

    @classmethod
    def analyze(cls, program: Program) -> "StaticAnalysis":
        return cls(
            program=program,
            blocks=tuple(build_basic_blocks(program)),
            chains=def_use_chains(program),
        )
