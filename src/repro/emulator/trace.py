"""Dynamic trace representation.

A trace is five typed columns (:class:`TraceColumns`) from the moment the
emulator writes it until a setup's disk entry is read back, and the
compiled path reads nothing else: decode, the look-ahead selection,
recycle segmentation and profiling all work on the columns.  A
:class:`Trace` names its rows by content: :attr:`Trace.key` is ``(root
columns, lo, hi, selected PCs)``, which windows and selections derive from
their parent's, so the process-wide memos downstream (decoded windows,
look-ahead selections, recycle slices, warm-up snapshots) hit on equal
windows whatever object asks.  :class:`DynamicInst` objects exist only for
the object-level consumers (the reference interpreter, hooks that read
entries, the ILP analysis): ``Trace.entries`` builds them once, on first
access, and keeps the list.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Union

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
    is given: a selection's rows (and an entry list whose seqs are not
    consecutive) carry their own seqs there.  ``ea`` and ``result`` hold 0
    where the flags say the field is ``None``.  Equality and hashing are by
    identity: a window's content key names its root columns.
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

    @classmethod
    def from_entries(cls, entries: Sequence[DynamicInst]) -> "TraceColumns":
        """The columns of an existing entry list.  Seqs that are not
        consecutive (a filtered list) go in the explicit ``seq`` column."""
        seqs = array("q", [entry.seq for entry in entries])
        seq0 = seqs[0] if seqs else 0
        consecutive = seqs == array("q", range(seq0, seq0 + len(seqs)))
        columns = cls.empty(seq0) if consecutive else cls(
            array("i"), array("q"), array("q"), array("B"), array("i"), seq0,
            seqs)
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

    def build_entries(self, statics) -> List[DynamicInst]:
        """One :class:`DynamicInst` per row; each ``static`` is
        ``statics[pc]`` (a program, or an entry-list trace's own statics)."""
        from repro.core.compile import native_kernel

        statics = list(statics)
        kernel = native_kernel()
        if kernel is not None:
            return kernel.build_entries(DynamicInst, statics, self.pc, self.ea,
                                        self.result, self.flags, self.next_pc,
                                        self.seq0, self.seq)
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


def _statics_of(entries: Sequence[DynamicInst]) -> List[Optional[Instruction]]:
    """An entry list's static instructions, indexable by PC (``None`` at
    PCs no entry names)."""
    statics: List[Optional[Instruction]] = []
    for entry in entries:
        static = entry.static
        pc = static.pc
        if pc >= len(statics):
            statics.extend([None] * (pc + 1 - len(statics)))
        known = statics[pc]
        if known is None:
            statics[pc] = static
        elif known is not static and known != static:
            raise ValueError(f"two different instructions at PC {pc}")
    return statics


#: A trace window, or the entry list of one.
Window = Union["Trace", Sequence[DynamicInst]]


class Trace:
    """A committed dynamic instruction stream plus summary statistics.

    Built from :class:`TraceColumns` (the emulator, windows, selections,
    setups read from disk) or from an existing entry list.  ``entries`` is
    built on first access and then kept.  :attr:`key` names the rows by
    content; :meth:`window` and :meth:`select` derive theirs from this
    trace's, so equal windows key equal however often they are cut.
    """

    def __init__(self, program, entries: Optional[Sequence[DynamicInst]] = None,
                 completed: bool = False, *,
                 columns: Optional[TraceColumns] = None) -> None:
        self.program = program
        #: True when the program reached a HALT before the instruction limit.
        self.completed = completed
        self._columns = columns
        self._entries: Optional[List[DynamicInst]] = None
        #: The static instruction at each PC (see :attr:`statics`).
        self._statics = program if columns is not None else None
        #: (root columns, lo, hi, selected PCs or None); see :attr:`key`.
        self._key: Optional[tuple] = None
        if columns is None:
            self._entries = list(entries or ())

    @classmethod
    def of(cls, window: Window) -> "Trace":
        """``window`` itself, or a trace over an entry list (whose columns
        and statics come from its entries)."""
        return window if isinstance(window, Trace) else cls(None, window)

    @property
    def columns(self) -> TraceColumns:
        if self._columns is None:
            self._columns = TraceColumns.from_entries(self._entries)
        return self._columns

    @property
    def entries(self) -> List[DynamicInst]:
        if self._entries is None:
            self._entries = self._columns.build_entries(self.statics)
        return self._entries

    @property
    def statics(self):
        """The static instruction at each PC the rows name, indexable by PC:
        the program for a trace built from columns, else the entries' own
        statics."""
        if self._statics is None:
            self._statics = _statics_of(self._entries)
        return self._statics

    @property
    def key(self) -> tuple:
        """The rows' content key, ``(root columns, lo, hi, selected PCs)``:
        rows ``[lo, hi)`` of the root columns, keeping only the PCs in the
        frozenset (``None``: every row).  The root is held, so the key
        stays valid as long as it lives."""
        if self._key is None:
            columns = self.columns
            self._key = (columns, 0, len(columns), None)
        return self._key

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
        statics = self.statics
        for pc, count in self.pc_execution_counts().items():
            cls = statics[pc].op_class
            mix[cls] = mix.get(cls, 0) + count
        return mix

    def _count_where(self, attribute: str) -> int:
        statics = self.statics
        return sum(count for pc, count in self.pc_execution_counts().items()
                   if getattr(statics[pc], attribute))

    def branch_count(self) -> int:
        return self._count_where("is_branch")

    def load_count(self) -> int:
        return self._count_where("is_load")

    def store_count(self) -> int:
        return self._count_where("is_store")

    def memory_count(self) -> int:
        return self._count_where("is_memory")

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
        window = Trace(self.program, completed=self.completed,
                       columns=self.columns.rows(start, stop))
        window._statics = self.statics
        window._key = (root, lo + start, lo + stop, None)
        if self._entries is not None:
            window._entries = self._entries[start:stop]
        return window

    def select(self, pcs: frozenset) -> "Trace":
        """The rows whose PC is in ``pcs``, in order: a skeleton's
        look-ahead window.  On the kernel (``select_rows``) its columns
        carry each row's own seq; under the reference interpreter it
        shares this trace's entries instead.  Its key is this trace's with
        ``pcs`` as the selected PCs."""
        from repro.core.compile import native_kernel

        root, lo, hi, selected = self.key
        statics = self.statics
        kernel = native_kernel()
        if kernel is None:
            selection = Trace(self.program, [
                entry for entry in self.entries if entry.static.pc in pcs],
                self.completed)
        else:
            mask = bytearray(len(statics))
            for pc in pcs:
                if 0 <= pc < len(mask):
                    mask[pc] = 1
            columns = self.columns
            pc, ea, result, flags, next_pc, seq = (
                array(code, column) for code, column in zip(
                    "iqqBiq", kernel.select_rows(columns._spec(mask=mask))))
            selection = Trace(self.program, completed=self.completed,
                              columns=TraceColumns(
                                  pc, ea, result, flags, next_pc,
                                  seq[0] if seq else columns.seq0, seq))
        selection._statics = statics
        selection._key = (root, lo, hi,
                          pcs if selected is None else pcs & selected)
        return selection
