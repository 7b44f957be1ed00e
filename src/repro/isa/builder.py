"""ProgramBuilder: a tiny assembler DSL for constructing workloads.

Workload kernels build programs through this class instead of hand-writing
:class:`Instruction` lists.  The builder provides labels with forward
references, a bump allocator for the data segment, and one emit method per
opcode so kernels read roughly like assembly listings.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program

#: Data addresses are word (8-byte) aligned; the allocator hands out
#: multiples of this.
WORD_BYTES = 8


class Label:
    """A named position in the code, possibly not yet bound."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.pc: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Label({self.name!r}, pc={self.pc})"


class ProgramBuilder:
    """Incrementally assemble a :class:`~repro.isa.program.Program`."""

    def __init__(self, name: str = "program", data_base: int = 0x10000) -> None:
        self.name = name
        self._pending: List[dict] = []
        self._labels: Dict[str, Label] = {}
        self._data: Dict[int, int] = {}
        self._data_cursor = data_base
        self._annotation = ""

    # ------------------------------------------------------------------
    # labels
    # ------------------------------------------------------------------
    def label(self, name: str) -> Label:
        """Create (or fetch) a label and bind it to the current position."""
        lbl = self._labels.setdefault(name, Label(name))
        if lbl.pc is not None:
            raise ValueError(f"label {name!r} bound twice")
        lbl.pc = len(self._pending)
        return lbl

    # ------------------------------------------------------------------
    # data segment
    # ------------------------------------------------------------------
    def alloc_words(self, count: int, fill: Union[int, Sequence[int]] = 0) -> int:
        """Reserve ``count`` words of data memory; returns the base address."""
        if count <= 0:
            raise ValueError("count must be positive")
        base = self._data_cursor
        if isinstance(fill, int):
            values = [fill] * count
        else:
            values = list(fill)
            if len(values) != count:
                raise ValueError("fill length does not match count")
        end = base + count * WORD_BYTES
        self._data.update(zip(range(base, end, WORD_BYTES), values))
        self._data_cursor = end
        return base

    def alloc_array(self, values: Sequence[int]) -> int:
        """Reserve and initialise an array; returns the base address."""
        return self.alloc_words(len(values), list(values))

    def poke(self, address: int, value: int) -> None:
        """Directly set one word of initial data memory."""
        self._data[address] = value

    # ------------------------------------------------------------------
    # annotation
    # ------------------------------------------------------------------
    def annotate(self, text: str) -> None:
        """Attach ``text`` to the next emitted instruction."""
        self._annotation = text

    # ------------------------------------------------------------------
    # emission primitives
    # ------------------------------------------------------------------
    def _emit(self, opcode: Opcode, dst=None, srcs=(), imm=0, target=None) -> int:
        record = {
            "opcode": opcode,
            "dst": dst,
            "srcs": tuple(srcs),
            "imm": imm,
            "target": target,
            "annotation": self._annotation,
        }
        self._annotation = ""
        self._pending.append(record)
        return len(self._pending) - 1

    # integer ALU ------------------------------------------------------
    def add(self, dst: int, a: int, b: int) -> int:
        return self._emit(Opcode.ADD, dst, (a, b))

    def sub(self, dst: int, a: int, b: int) -> int:
        return self._emit(Opcode.SUB, dst, (a, b))

    def and_(self, dst: int, a: int, b: int) -> int:
        return self._emit(Opcode.AND, dst, (a, b))

    def or_(self, dst: int, a: int, b: int) -> int:
        return self._emit(Opcode.OR, dst, (a, b))

    def xor(self, dst: int, a: int, b: int) -> int:
        return self._emit(Opcode.XOR, dst, (a, b))

    def shl(self, dst: int, a: int, b: int) -> int:
        return self._emit(Opcode.SHL, dst, (a, b))

    def shr(self, dst: int, a: int, b: int) -> int:
        return self._emit(Opcode.SHR, dst, (a, b))

    def slt(self, dst: int, a: int, b: int) -> int:
        return self._emit(Opcode.SLT, dst, (a, b))

    def seq(self, dst: int, a: int, b: int) -> int:
        return self._emit(Opcode.SEQ, dst, (a, b))

    def addi(self, dst: int, src: int, imm: int) -> int:
        return self._emit(Opcode.ADDI, dst, (src,), imm)

    def andi(self, dst: int, src: int, imm: int) -> int:
        return self._emit(Opcode.ANDI, dst, (src,), imm)

    def li(self, dst: int, imm: int) -> int:
        return self._emit(Opcode.LI, dst, (), imm)

    def mov(self, dst: int, src: int) -> int:
        return self._emit(Opcode.MOV, dst, (src,))

    def mul(self, dst: int, a: int, b: int) -> int:
        return self._emit(Opcode.MUL, dst, (a, b))

    def div(self, dst: int, a: int, b: int) -> int:
        return self._emit(Opcode.DIV, dst, (a, b))

    def mod(self, dst: int, a: int, b: int) -> int:
        return self._emit(Opcode.MOD, dst, (a, b))

    # floating point -----------------------------------------------------
    def fadd(self, dst: int, a: int, b: int) -> int:
        return self._emit(Opcode.FADD, dst, (a, b))

    def fmul(self, dst: int, a: int, b: int) -> int:
        return self._emit(Opcode.FMUL, dst, (a, b))

    def fdiv(self, dst: int, a: int, b: int) -> int:
        return self._emit(Opcode.FDIV, dst, (a, b))

    # memory -------------------------------------------------------------
    def load(self, dst: int, base: int, offset: int = 0) -> int:
        return self._emit(Opcode.LOAD, dst, (base,), offset)

    def store(self, base: int, value: int, offset: int = 0) -> int:
        return self._emit(Opcode.STORE, None, (base, value), offset)

    # control ------------------------------------------------------------
    def beqz(self, src: int, label: Union[str, Label]) -> int:
        return self._emit(Opcode.BEQZ, None, (src,), target=self._label_ref(label))

    def bnez(self, src: int, label: Union[str, Label]) -> int:
        return self._emit(Opcode.BNEZ, None, (src,), target=self._label_ref(label))

    def blt(self, a: int, b: int, label: Union[str, Label]) -> int:
        return self._emit(Opcode.BLT, None, (a, b), target=self._label_ref(label))

    def bge(self, a: int, b: int, label: Union[str, Label]) -> int:
        return self._emit(Opcode.BGE, None, (a, b), target=self._label_ref(label))

    def jump(self, label: Union[str, Label]) -> int:
        return self._emit(Opcode.JUMP, target=self._label_ref(label))

    def call(self, label: Union[str, Label], link_register: int = 31) -> int:
        return self._emit(Opcode.CALL, link_register, (), target=self._label_ref(label))

    def ret(self, link_register: int = 31) -> int:
        return self._emit(Opcode.RET, None, (link_register,))

    def halt(self) -> int:
        return self._emit(Opcode.HALT)

    def nop(self) -> int:
        return self._emit(Opcode.NOP)

    def _label_ref(self, label: Union[str, Label]) -> Label:
        if isinstance(label, Label):
            return self._labels.setdefault(label.name, label)
        return self._labels.setdefault(label, Label(label))

    # ------------------------------------------------------------------
    # finalisation
    # ------------------------------------------------------------------
    def build(self) -> Program:
        """Resolve label references and produce an immutable Program."""
        unresolved = [l.name for l in self._labels.values() if l.pc is None]
        if unresolved:
            raise ValueError(f"unbound labels: {unresolved}")
        instructions = []
        for pc, record in enumerate(self._pending):
            target = record["target"]
            if isinstance(target, Label):
                target = target.pc
            instructions.append(
                Instruction(
                    pc=pc,
                    opcode=record["opcode"],
                    dst=record["dst"],
                    srcs=record["srcs"],
                    imm=record["imm"],
                    target=target,
                    annotation=record["annotation"],
                )
            )
        return Program(instructions, data=self._data, name=self.name)

    def __len__(self) -> int:
        return len(self._pending)
