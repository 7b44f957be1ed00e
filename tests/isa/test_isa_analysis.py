"""Tests for basic blocks, def-use chains and backward slicing."""

from repro.isa.analysis import (
    backward_slice,
    build_basic_blocks,
    def_use_chains,
)
from repro.isa.builder import WORD_BYTES, ProgramBuilder


def _loop_program():
    b = ProgramBuilder("slice-test")
    data = b.alloc_array(list(range(16)))
    b.li(1, 8)            # pc 0: loop counter
    b.li(10, data)        # pc 1: address base
    b.li(20, 0)           # pc 2: accumulator (not needed by control)
    b.label("loop")
    b.load(21, 10, 0)     # pc 3: load value
    b.mul(22, 21, 21)     # pc 4: payload (feeds only the accumulator)
    b.add(20, 20, 22)     # pc 5: accumulate
    b.addi(10, 10, WORD_BYTES)   # pc 6: address increment
    b.addi(1, 1, -1)      # pc 7: counter decrement
    b.bnez(1, "loop")     # pc 8: loop branch
    b.halt()              # pc 9
    return b.build()


def test_basic_blocks_cover_program_without_overlap():
    program = _loop_program()
    blocks = build_basic_blocks(program)
    covered = []
    for block in blocks:
        covered.extend(range(block.start, block.end + 1))
    assert sorted(covered) == list(range(len(program)))


def test_loop_block_has_backedge_successor():
    program = _loop_program()
    blocks = build_basic_blocks(program)
    loop_block = next(block for block in blocks if 8 in block)
    successor_starts = {blocks[s].start for s in loop_block.successors}
    assert 3 in successor_starts          # back edge to the loop body
    assert 9 in successor_starts          # fall-through to halt


def test_def_use_chains_find_linear_and_loop_carried_producers():
    program = _loop_program()
    chains = def_use_chains(program)
    # The loop branch (pc 8) reads r1; the closest producer is the
    # loop-carried decrement (7).
    assert 7 in chains[8]
    # The load (pc 3) reads r10; producers are init (1) and increment (6).
    assert 1 in chains[3]
    assert 6 in chains[3]


def test_backward_slice_from_branch_excludes_payload():
    program = _loop_program()
    included = backward_slice(program, [8])
    assert {0, 7, 8}.issubset(included)
    assert 4 not in included              # payload multiply is not needed
    assert 5 not in included              # accumulator add is not needed


def test_backward_slice_from_load_includes_address_chain():
    program = _loop_program()
    included = backward_slice(program, [3])
    assert {1, 3, 6}.issubset(included)


def test_store_load_dependence_respects_distance_limit():
    b = ProgramBuilder("st-ld")
    addr = b.alloc_words(1, 0)
    b.li(10, addr)        # 0
    b.li(2, 55)           # 1
    b.store(10, 2, 0)     # 2  store feeding the later load
    b.load(3, 10, 0)      # 3
    b.add(4, 3, 3)        # 4
    b.halt()              # 5
    program = b.build()
    with_dependence = backward_slice(program, [4], max_store_load_distance=1000)
    assert 2 in with_dependence
    without = backward_slice(program, [4], max_store_load_distance=0)
    assert 2 not in without
