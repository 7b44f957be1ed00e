"""Tests for the ProgramBuilder DSL and the Program container."""

import pytest

from repro.isa.builder import WORD_BYTES, ProgramBuilder
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program


def _tiny_loop(iterations=3):
    b = ProgramBuilder("tiny")
    data = b.alloc_array([5, 6, 7, 8])
    b.li(1, iterations)
    b.li(10, data)
    b.li(20, 0)
    b.label("loop")
    b.load(21, 10, 0)
    b.add(20, 20, 21)
    b.addi(10, 10, WORD_BYTES)
    b.addi(1, 1, -1)
    b.bnez(1, "loop")
    b.halt()
    return b.build()


def test_builder_resolves_backward_labels():
    program = _tiny_loop()
    branch = [i for i in program if i.opcode is Opcode.BNEZ][0]
    assert program[branch.target].opcode is Opcode.LOAD


def test_builder_resolves_forward_labels():
    b = ProgramBuilder("fwd")
    b.li(1, 0)
    b.beqz(1, "end")
    b.li(2, 99)
    b.label("end")
    b.halt()
    program = b.build()
    assert program[1].target == 3


def test_unbound_label_raises():
    b = ProgramBuilder("bad")
    b.jump("nowhere")
    with pytest.raises(ValueError):
        b.build()


def test_duplicate_label_raises():
    b = ProgramBuilder("dup")
    b.label("x")
    with pytest.raises(ValueError):
        b.label("x")


def test_alloc_array_initialises_data():
    b = ProgramBuilder("data", data_base=0x1000)
    base = b.alloc_array([3, 4, 5])
    b.halt()
    program = b.build()
    assert program.data[base] == 3
    assert program.data[base + WORD_BYTES] == 4
    assert program.data[base + 2 * WORD_BYTES] == 5


def test_alloc_words_fill_validation():
    b = ProgramBuilder("fill")
    with pytest.raises(ValueError):
        b.alloc_words(0)
    with pytest.raises(ValueError):
        b.alloc_words(3, [1, 2])


def test_annotation_attaches_to_next_instruction():
    b = ProgramBuilder("ann")
    b.annotate("important_load")
    b.load(1, 2, 0)
    b.halt()
    program = b.build()
    assert program[0].annotation == "important_load"
    assert program[1].annotation == ""


def test_program_queries():
    program = _tiny_loop()
    assert program.branch_pcs() == [7]
    assert len([inst for inst in program if inst.is_load]) == 1
    assert not any(inst.is_store for inst in program)
    assert [inst.pc for inst in program if inst.opcode is Opcode.HALT] == [8]
    assert len(program.control_pcs()) == 1


def test_program_validation_rejects_bad_pc_and_target():
    with pytest.raises(ValueError):
        Program([Instruction(1, Opcode.NOP)])
    with pytest.raises(ValueError):
        Program([Instruction(0, Opcode.JUMP, target=5)])


def test_program_describe_contains_every_instruction():
    program = _tiny_loop()
    text = program.describe()
    assert text.count("\n") == len(program)
    assert "tiny" in text
