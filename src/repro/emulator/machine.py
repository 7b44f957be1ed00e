"""Architectural interpreter producing committed dynamic traces.

Two engines write the same :class:`~repro.emulator.trace.TraceColumns`:
the compiled kernel's ``emulate`` loop, and this module's Python
interpreter, which is the reference the kernel is tested against and the
engine under ``REPRO_FAST_PIPELINE=0`` or without a C compiler.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from repro.emulator.trace import (
    HAS_EA,
    HAS_RESULT,
    IS_CONTROL,
    TAKEN,
    Trace,
    TraceColumns,
)
from repro.isa.instructions import Opcode
from repro.isa.program import Program, to_word as _to_signed
from repro.isa.registers import NUM_REGISTERS, ZERO_REGISTER

#: Values are wrapped to 64-bit two's complement, as on a real machine.
_MASK64 = (1 << 64) - 1


class ExecutionLimitExceeded(RuntimeError):
    """Raised when ``strict`` execution hits the dynamic instruction limit."""


#: The kernel's opcode numbering (must match the ``OP_*`` enum in kernel.c)
#: and how many source registers each opcode reads.
_NATIVE_OPCODES: Tuple[Tuple[Opcode, int], ...] = (
    (Opcode.ADD, 2), (Opcode.SUB, 2), (Opcode.AND, 2), (Opcode.OR, 2),
    (Opcode.XOR, 2), (Opcode.SHL, 2), (Opcode.SHR, 2), (Opcode.SLT, 2),
    (Opcode.SEQ, 2), (Opcode.ADDI, 1), (Opcode.ANDI, 1), (Opcode.LI, 0),
    (Opcode.MOV, 1), (Opcode.MUL, 2), (Opcode.DIV, 2), (Opcode.MOD, 2),
    (Opcode.FADD, 2), (Opcode.FMUL, 2), (Opcode.FDIV, 2), (Opcode.LOAD, 1),
    (Opcode.STORE, 2), (Opcode.BEQZ, 1), (Opcode.BNEZ, 1), (Opcode.BLT, 2),
    (Opcode.BGE, 2), (Opcode.JUMP, 0), (Opcode.CALL, 0), (Opcode.RET, 1),
    (Opcode.HALT, 0), (Opcode.NOP, 0),
)
_NATIVE_CODE: Dict[Opcode, Tuple[int, int]] = {
    op: (code, srcs) for code, (op, srcs) in enumerate(_NATIVE_OPCODES)
}
_TARGETED = {Opcode.BEQZ, Opcode.BNEZ, Opcode.BLT, Opcode.BGE, Opcode.JUMP,
             Opcode.CALL}


def _static_table(program: Program) -> Optional[tuple]:
    """The kernel's view of ``program``: per-instruction opcode, dst, two
    sources, immediate and target columns plus the data image's runs and
    words.  ``None`` when a program falls outside what the
    kernel transcribes exactly (too few sources, a missing target, an
    out-of-range entry point or an immediate beyond 64 bits), and the
    Python engine runs it.  The data columns are the image's own: values
    beyond int64 are already wrapped there, as a load wraps them."""
    size = len(program)
    if not 0 <= program.entry_point < size:
        return None
    ops = array("b")
    dst = array("b")
    src0 = array("b")
    src1 = array("b")
    imm = array("q")
    target = array("i")
    try:
        for inst in program:
            code, reads = _NATIVE_CODE[inst.opcode]
            srcs = inst.srcs
            if len(srcs) < reads or (inst.opcode in _TARGETED
                                     and inst.target is None):
                return None
            ops.append(code)
            dst.append(-1 if inst.dst is None else inst.dst)
            src0.append(srcs[0] if srcs else 0)
            src1.append(srcs[1] if len(srcs) > 1 else 0)
            imm.append(inst.imm)
            target.append(-1 if inst.target is None else inst.target)
    except OverflowError:
        return None
    return (ops, dst, src0, src1, imm, target, program.data.runs,
            program.data.words)


class Emulator:
    """Functional execution engine.

    The emulator is deterministic and side-effect free with respect to the
    :class:`~repro.isa.program.Program` it runs: the program's initial data
    image is copied at reset, so running the same program twice yields
    identical traces.

    :attr:`memory` is the architectural data memory as a dict, built from
    the image's columns on first use after a reset; a native run keeps
    only the words it stored until then.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore architectural state to the program's initial image."""
        self.registers: List[int] = [0] * NUM_REGISTERS
        self._memory: Optional[Dict[int, int]] = None
        self._stored: Optional[Tuple[array, array]] = None
        self.pc = self.program.entry_point
        self.halted = False

    @property
    def memory(self) -> Dict[int, int]:
        if self._memory is None:
            self._memory = self.program.data.to_dict()
            if self._stored is not None:
                self._memory.update(zip(*self._stored))
                self._stored = None
        return self._memory

    # ------------------------------------------------------------------
    def _read(self, reg: int) -> int:
        return 0 if reg == ZERO_REGISTER else self.registers[reg]

    def _write(self, reg: Optional[int], value: int) -> Optional[int]:
        if reg is None or reg == ZERO_REGISTER:
            return None
        value = _to_signed(value)
        self.registers[reg] = value
        return value

    # ------------------------------------------------------------------
    def step(self) -> Tuple[Optional[int], Optional[int], Optional[bool], int]:
        """Execute one instruction; returns its ``(result,
        effective_address, taken, next_pc)``."""
        inst = self.program[self.pc]
        op = inst.opcode
        srcs = [self._read(r) for r in inst.srcs]
        result: Optional[int] = None
        effective_address: Optional[int] = None
        taken: Optional[bool] = None
        next_pc = self.pc + 1

        # The chain is ordered by typical dynamic frequency (memory ops,
        # address arithmetic and branches first) — ordering is semantically
        # irrelevant as the opcodes are mutually exclusive, but it roughly
        # halves the comparisons per emulated instruction.
        if op is Opcode.LOAD:
            effective_address = srcs[0] + inst.imm
            result = self._write(inst.dst, self.memory.get(effective_address, 0))
        elif op is Opcode.STORE:
            effective_address = srcs[0] + inst.imm
            self.memory[effective_address] = _to_signed(srcs[1])
        elif op is Opcode.ADDI:
            result = self._write(inst.dst, srcs[0] + inst.imm)
        elif op is Opcode.BEQZ:
            taken = srcs[0] == 0
            if taken:
                next_pc = inst.target
        elif op is Opcode.BNEZ:
            taken = srcs[0] != 0
            if taken:
                next_pc = inst.target
        elif op is Opcode.BLT:
            taken = srcs[0] < srcs[1]
            if taken:
                next_pc = inst.target
        elif op is Opcode.BGE:
            taken = srcs[0] >= srcs[1]
            if taken:
                next_pc = inst.target
        elif op in (Opcode.ADD, Opcode.FADD):
            result = self._write(inst.dst, srcs[0] + srcs[1])
        elif op is Opcode.SUB:
            result = self._write(inst.dst, srcs[0] - srcs[1])
        elif op is Opcode.AND:
            result = self._write(inst.dst, srcs[0] & srcs[1])
        elif op is Opcode.OR:
            result = self._write(inst.dst, srcs[0] | srcs[1])
        elif op is Opcode.XOR:
            result = self._write(inst.dst, srcs[0] ^ srcs[1])
        elif op is Opcode.SHL:
            result = self._write(inst.dst, srcs[0] << (srcs[1] & 63))
        elif op is Opcode.SHR:
            result = self._write(inst.dst, (srcs[0] & _MASK64) >> (srcs[1] & 63))
        elif op is Opcode.SLT:
            result = self._write(inst.dst, 1 if srcs[0] < srcs[1] else 0)
        elif op is Opcode.SEQ:
            result = self._write(inst.dst, 1 if srcs[0] == srcs[1] else 0)
        elif op is Opcode.ANDI:
            result = self._write(inst.dst, srcs[0] & inst.imm)
        elif op is Opcode.LI:
            result = self._write(inst.dst, inst.imm)
        elif op is Opcode.MOV:
            result = self._write(inst.dst, srcs[0])
        elif op in (Opcode.MUL, Opcode.FMUL):
            result = self._write(inst.dst, srcs[0] * srcs[1])
        elif op in (Opcode.DIV, Opcode.FDIV):
            divisor = srcs[1]
            result = self._write(inst.dst, 0 if divisor == 0 else srcs[0] // divisor)
        elif op is Opcode.MOD:
            divisor = srcs[1]
            result = self._write(inst.dst, 0 if divisor == 0 else srcs[0] % divisor)
        elif op is Opcode.JUMP:
            taken = True
            next_pc = inst.target
        elif op is Opcode.CALL:
            taken = True
            result = self._write(inst.dst, self.pc + 1)
            next_pc = inst.target
        elif op is Opcode.RET:
            taken = True
            next_pc = srcs[0]
        elif op is Opcode.HALT:
            self.halted = True
            next_pc = self.pc
        elif op is Opcode.NOP:
            pass
        else:  # pragma: no cover - every opcode is handled above
            raise NotImplementedError(f"unhandled opcode {op}")

        if not 0 <= next_pc < len(self.program):
            raise RuntimeError(
                f"control transfer to invalid pc {next_pc} from pc {self.pc}"
            )
        self.pc = next_pc
        return result, effective_address, taken, next_pc

    # ------------------------------------------------------------------
    def run(self, max_instructions: int = 1_000_000, strict: bool = False) -> Trace:
        """Execute until ``HALT`` or the dynamic-instruction limit.

        Parameters
        ----------
        max_instructions:
            Upper bound on committed instructions.
        strict:
            When ``True`` an :class:`ExecutionLimitExceeded` is raised if the
            limit is hit before the program halts; otherwise the partial
            trace is returned with ``completed=False``.
        """
        self.reset()
        columns = self._run_native(max_instructions)
        if columns is None:
            columns = self._run_python(max_instructions)
        if not self.halted and strict:
            raise ExecutionLimitExceeded(
                f"program {self.program.name!r} did not halt within "
                f"{max_instructions} instructions"
            )
        return Trace(self.program, columns, self.halted)

    def _run_python(self, max_instructions: int) -> TraceColumns:
        columns = TraceColumns.empty()
        pcs, eas, results = columns.pc, columns.ea, columns.result
        flag_column, next_pcs = columns.flags, columns.next_pc
        count = 0
        while not self.halted and count < max_instructions:
            pcs.append(self.pc)
            result, address, taken, next_pc = self.step()
            flags = 0
            if result is not None:
                flags = HAS_RESULT
            if address is not None:
                flags |= HAS_EA
            if taken is not None:
                flags |= IS_CONTROL | (TAKEN if taken else 0)
            eas.append(0 if address is None else address)
            results.append(0 if result is None else result)
            flag_column.append(flags)
            next_pcs.append(next_pc)
            count += 1
        return columns

    def _run_native(self, max_instructions: int) -> Optional[TraceColumns]:
        """The kernel's ``emulate`` loop from the reset state, or ``None``
        when the kernel is off or cannot transcribe this program."""
        from repro.core.compile import _count, native_kernel

        kernel = native_kernel()
        if kernel is None or max_instructions <= 0:
            return None
        table = _static_table(self.program)
        if table is None:
            return None
        (pcs, eas, results, flags, next_pcs, halted, pc, registers,
         stored_at, stored) = kernel.emulate(
            *table, self.program.entry_point, max_instructions)
        self.halted = bool(halted)
        self.pc = pc
        self.registers = list(array("q", registers))
        self._stored = (array("q", stored_at), array("q", stored))
        columns = TraceColumns(array("i", pcs), array("q", eas),
                               array("q", results), array("B", flags),
                               array("i", next_pcs))
        _count("native_emulated", len(columns))
        return columns
