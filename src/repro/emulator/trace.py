"""Dynamic trace representation.

A trace is five typed columns (:class:`TraceColumns`) from the moment the
emulator writes it until a setup's disk entry is read back.
:class:`DynamicInst` objects exist only for the Python consumers that ask
for them (the timing models, profiling, the baselines): ``Trace.entries``
builds them once, on first access, and keeps the list.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.isa.instructions import Instruction, OpClass


@dataclass(slots=True)
class DynamicInst:
    """One committed dynamic instruction.

    Attributes
    ----------
    seq:
        Position in the dynamic instruction stream (0-based).
    static:
        The static :class:`~repro.isa.instructions.Instruction` executed.
    result:
        Value written to the destination register (``None`` if none).
    effective_address:
        Byte address touched by a load/store (``None`` otherwise).
    taken:
        For control instructions, whether the redirect happened.
    next_pc:
        Static PC of the dynamically following instruction.
    """

    seq: int
    static: Instruction
    result: Optional[int] = None
    effective_address: Optional[int] = None
    taken: Optional[bool] = None
    next_pc: int = 0

    # Convenience pass-throughs so timing models rarely need ``.static``.
    @property
    def pc(self) -> int:
        return self.static.pc

    @property
    def op_class(self) -> OpClass:
        return self.static.op_class

    @property
    def is_branch(self) -> bool:
        return self.static.is_branch

    @property
    def is_control(self) -> bool:
        return self.static.is_control

    @property
    def is_load(self) -> bool:
        return self.static.is_load

    @property
    def is_store(self) -> bool:
        return self.static.is_store

    @property
    def is_memory(self) -> bool:
        return self.static.is_memory


#: Bits of the ``flags`` column (must match kernel.c).  ``HAS_RESULT`` and
#: ``HAS_EA`` say the ``result``/``ea`` cell holds a value rather than
#: ``None``; ``IS_CONTROL`` says ``taken`` is a bool rather than ``None``.
HAS_RESULT = 1
HAS_EA = 2
IS_CONTROL = 4
TAKEN = 8


@dataclass(frozen=True)
class TraceColumns:
    """One window of a committed stream as typed columns.

    Row ``i`` is the instruction with ``seq == seq0 + i``.  ``ea`` and
    ``result`` hold 0 where the flags say the field is ``None``.
    """

    pc: array        # 'i' static PC
    ea: array        # 'q' effective address
    result: array    # 'q' value written to the destination register
    flags: array     # 'B' HAS_RESULT | HAS_EA | IS_CONTROL | TAKEN
    next_pc: array   # 'i' static PC of the following instruction
    seq0: int = 0

    def __len__(self) -> int:
        return len(self.pc)

    def rows(self, start: int, stop: int) -> "TraceColumns":
        """Rows ``[start, stop)`` (clamped like a list slice)."""
        start, stop, _ = slice(start, stop).indices(len(self.pc))
        stop = max(start, stop)
        return TraceColumns(self.pc[start:stop], self.ea[start:stop],
                            self.result[start:stop], self.flags[start:stop],
                            self.next_pc[start:stop], self.seq0 + start)

    @classmethod
    def empty(cls, seq0: int = 0) -> "TraceColumns":
        return cls(array("i"), array("q"), array("q"), array("B"), array("i"),
                   seq0)

    @classmethod
    def from_entries(cls, entries: Sequence[DynamicInst]) -> "TraceColumns":
        """The columns of an existing entry list (its seqs must be
        consecutive)."""
        columns = cls.empty(entries[0].seq if entries else 0)
        for entry in entries:
            flags = 0
            result = entry.result
            if result is not None:
                flags |= HAS_RESULT
            address = entry.effective_address
            if address is not None:
                flags |= HAS_EA
            if entry.taken is not None:
                flags |= IS_CONTROL | (TAKEN if entry.taken else 0)
            columns.pc.append(entry.static.pc)
            columns.ea.append(address or 0)
            columns.result.append(result or 0)
            columns.flags.append(flags)
            columns.next_pc.append(entry.next_pc)
        return columns

    def build_entries(self, program) -> List[DynamicInst]:
        """One :class:`DynamicInst` per row; each ``static`` is the
        program's own :class:`Instruction` object (the decoded-row memo is
        keyed by its identity)."""
        from repro.core.compile import native_kernel

        statics = list(program)
        kernel = native_kernel()
        if kernel is not None:
            return kernel.build_entries(DynamicInst, statics, self.pc, self.ea,
                                        self.result, self.flags, self.next_pc,
                                        self.seq0)
        return [
            DynamicInst(seq, statics[pc],
                        result if flags & HAS_RESULT else None,
                        address if flags & HAS_EA else None,
                        bool(flags & TAKEN) if flags & IS_CONTROL else None,
                        next_pc)
            for seq, pc, address, result, flags, next_pc in zip(
                range(self.seq0, self.seq0 + len(self.pc)), self.pc, self.ea,
                self.result, self.flags, self.next_pc)
        ]


class Trace:
    """A committed dynamic instruction stream plus summary statistics.

    Built from :class:`TraceColumns` (the emulator, windows, setups read
    from disk) or from an existing entry list.  ``entries`` is built on
    first access and then keeps its identity, which the id-keyed decoded
    and warm-up memos rely on.
    """

    def __init__(self, program, entries: Optional[Sequence[DynamicInst]] = None,
                 completed: bool = False, *,
                 columns: Optional[TraceColumns] = None) -> None:
        self.program = program
        #: True when the program reached a HALT before the instruction limit.
        self.completed = completed
        self._columns = columns
        self._entries: Optional[List[DynamicInst]] = None
        if columns is None:
            self._entries = list(entries or ())

    @property
    def columns(self) -> TraceColumns:
        if self._columns is None:
            self._columns = TraceColumns.from_entries(self._entries)
        return self._columns

    @property
    def entries(self) -> List[DynamicInst]:
        if self._entries is None:
            self._entries = self._columns.build_entries(self.program)
        return self._entries

    def __len__(self) -> int:
        if self._columns is not None:
            return len(self._columns)
        return len(self._entries)

    def __getitem__(self, idx: int) -> DynamicInst:
        return self.entries[idx]

    def __iter__(self) -> Iterator[DynamicInst]:
        return iter(self.entries)

    # -- summaries (read from the pc column; no objects are built) --------
    def pc_execution_counts(self) -> Dict[int, int]:
        """Dynamic execution count per static PC (used by profilers), in
        order of first execution."""
        return dict(Counter(self.columns.pc))

    def class_mix(self) -> Dict[OpClass, int]:
        """Dynamic instruction count per functional class."""
        mix: Dict[OpClass, int] = {}
        for pc, count in self.pc_execution_counts().items():
            cls = self.program[pc].op_class
            mix[cls] = mix.get(cls, 0) + count
        return mix

    def _count_where(self, attribute: str) -> int:
        program = self.program
        return sum(count for pc, count in self.pc_execution_counts().items()
                   if getattr(program[pc], attribute))

    def branch_count(self) -> int:
        return self._count_where("is_branch")

    def load_count(self) -> int:
        return self._count_where("is_load")

    def store_count(self) -> int:
        return self._count_where("is_store")

    def memory_count(self) -> int:
        return self._count_where("is_memory")

    def window(self, start: int, length: int) -> "Trace":
        """A sub-trace covering ``[start, start + length)`` dynamic entries.

        Slices the columns; when this trace's entries already exist the
        window shares those objects instead of building new ones.
        """
        window = Trace(self.program, completed=self.completed,
                       columns=self.columns.rows(start, start + length))
        if self._entries is not None:
            window._entries = self._entries[start: start + length]
        return window
