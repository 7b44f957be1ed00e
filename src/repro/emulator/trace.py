"""Dynamic trace representation.

A trace is five typed columns (:class:`TraceColumns`) from the moment the
emulator writes it until a setup's disk entry is read back, and the
compiled path reads nothing else: decode, the look-ahead selection,
recycle segmentation and profiling all work on the columns.  A
:class:`Trace` names its rows by content: :attr:`Trace.key` is ``(root
columns, lo, hi, selected PCs)``, which windows and selections derive from
their parent's, so the process-wide memos downstream (decoded windows,
look-ahead selections, recycle slices, warm-up replay arrays) hit on equal
windows whatever object asks.  A :class:`Trace` is only ever built from
columns, and every simulator API takes one: windows are cut with
:meth:`Trace.window` and :meth:`Trace.select`.  :class:`DynamicInst`
objects exist only for the object-level consumers (the reference
interpreter, the Python hook oracles, the ILP analysis):
``Trace.entries`` builds them in Python once, on first access, and keeps
the list.
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


@dataclass(frozen=True, eq=False)
class TraceColumns:
    """One window of a committed stream as typed columns.

    Row ``i`` is the instruction with ``seq == seq0 + i``, unless ``seq``
    is given: a selection's rows carry their own seqs there.  ``ea`` and
    ``result`` hold 0 where the flags say the field is ``None``.  Equality
    and hashing are by identity: a window's content key names its root
    columns.
    """

    pc: array        # 'i' static PC
    ea: array        # 'q' effective address
    result: array    # 'q' value written to the destination register
    flags: array     # 'B' HAS_RESULT | HAS_EA | IS_CONTROL | TAKEN
    next_pc: array   # 'i' static PC of the following instruction
    seq0: int = 0
    seq: Optional[array] = None   # 'q' explicit seqs, or None

    def __len__(self) -> int:
        return len(self.pc)

    def seqs(self) -> Sequence[int]:
        """Every row's seq."""
        if self.seq is not None:
            return self.seq
        return range(self.seq0, self.seq0 + len(self.pc))

    def rows(self, start: int, stop: int) -> "TraceColumns":
        """Rows ``[start, stop)`` (clamped like a list slice)."""
        start, stop, _ = slice(start, stop).indices(len(self.pc))
        stop = max(start, stop)
        return TraceColumns(self.pc[start:stop], self.ea[start:stop],
                            self.result[start:stop], self.flags[start:stop],
                            self.next_pc[start:stop], self.seq0 + start,
                            None if self.seq is None else self.seq[start:stop])

    def _spec(self, **extra) -> dict:
        """The kernel's view of these columns (zero-copy), plus ``extra``."""
        return dict(pc=self.pc, ea=self.ea, result=self.result,
                    tflags=self.flags, next_pc=self.next_pc, seq=self.seq,
                    seq0=self.seq0, **extra)

    @classmethod
    def empty(cls, seq0: int = 0) -> "TraceColumns":
        return cls(array("i"), array("q"), array("q"), array("B"), array("i"),
                   seq0)

    def build_entries(self, program) -> List[DynamicInst]:
        """One :class:`DynamicInst` per row; each ``static`` is
        ``program[pc]``."""
        statics = list(program)
        return [
            DynamicInst(seq, statics[pc],
                        result if flags & HAS_RESULT else None,
                        address if flags & HAS_EA else None,
                        bool(flags & TAKEN) if flags & IS_CONTROL else None,
                        next_pc)
            for seq, pc, address, result, flags, next_pc in zip(
                self.seqs(), self.pc, self.ea, self.result, self.flags,
                self.next_pc)
        ]


class Trace:
    """A committed dynamic instruction stream: a program and the columns of
    the rows it ran.

    Built only from :class:`TraceColumns` (the emulator, windows,
    selections, setups read from disk).  ``entries`` is built on first
    access and then kept.  :attr:`key` names the rows by content;
    :meth:`window` and :meth:`select` derive theirs from this trace's, so
    equal windows key equal however often they are cut.
    """

    def __init__(self, program, columns: TraceColumns,
                 completed: bool = False) -> None:
        self.program = program
        self.columns = columns
        #: True when the program reached a HALT before the instruction limit.
        self.completed = completed
        self._entries: Optional[List[DynamicInst]] = None
        #: (root columns, lo, hi, selected PCs or None); see :attr:`key`.
        self._key: Optional[tuple] = None

    @property
    def entries(self) -> List[DynamicInst]:
        if self._entries is None:
            self._entries = self.columns.build_entries(self.program)
        return self._entries

    @property
    def key(self) -> tuple:
        """The rows' content key, ``(root columns, lo, hi, selected PCs)``:
        rows ``[lo, hi)`` of the root columns, keeping only the PCs in the
        frozenset (``None``: every row).  The root is held, so the key
        stays valid as long as it lives."""
        if self._key is None:
            self._key = (self.columns, 0, len(self.columns), None)
        return self._key

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, idx: int) -> DynamicInst:
        return self.entries[idx]

    def __iter__(self) -> Iterator[DynamicInst]:
        return iter(self.entries)

    def pc_execution_counts(self) -> Dict[int, int]:
        """Dynamic execution count per static PC (used by profilers), in
        order of first execution; read from the pc column."""
        return dict(Counter(self.columns.pc))

    # -- windows and selections (column slices; no objects are built) ----
    def window(self, start: int, length: int) -> "Trace":
        """A sub-trace covering ``[start, start + length)`` dynamic entries.

        Slices the columns; when this trace's entries already exist the
        window shares those objects instead of building new ones.
        """
        start, stop, _ = slice(start, start + length).indices(len(self))
        stop = max(start, stop)
        root, lo, _, selected = self.key
        if selected is not None:
            # A selection's rows are the rows of its own columns.
            root, lo = self.columns, 0
        window = Trace(self.program, self.columns.rows(start, stop),
                       self.completed)
        window._key = (root, lo + start, lo + stop, None)
        if self._entries is not None:
            window._entries = self._entries[start:stop]
        return window

    def select(self, pcs: frozenset) -> "Trace":
        """The rows whose PC is in ``pcs``, in order: a skeleton's
        look-ahead window.  Its columns carry each row's own seq in the
        ``seq`` column; the kernel's ``select_rows`` builds them natively,
        and the comprehension below is its reference.  Its key is this
        trace's with ``pcs`` as the selected PCs."""
        from repro.core.compile import native_kernel

        root, lo, hi, selected = self.key
        columns = self.columns
        kernel = native_kernel()
        if kernel is None:
            keep = [i for i, pc in enumerate(columns.pc) if pc in pcs]
            rows = [[column[i] for i in keep] for column in (
                columns.pc, columns.ea, columns.result, columns.flags,
                columns.next_pc, columns.seqs())]
        else:
            mask = bytearray(len(self.program))
            for pc in pcs:
                if 0 <= pc < len(mask):
                    mask[pc] = 1
            rows = kernel.select_rows(columns._spec(mask=mask))
        pc, ea, result, flags, next_pc, seq = (
            array(code, column) for code, column in zip("iqqBiq", rows))
        selection = Trace(self.program, TraceColumns(
            pc, ea, result, flags, next_pc, seq[0] if seq else columns.seq0,
            seq), self.completed)
        selection._key = (root, lo, hi,
                          pcs if selected is None else pcs & selected)
        return selection
