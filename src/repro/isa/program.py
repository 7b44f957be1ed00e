"""Program container: static code plus an initial data image.

The data image is typed: its words are one ``array('q')`` in insertion
order, and their addresses are runs of consecutive words, ``(base,
count)`` pairs in a second ``array('q')``.  The compiled emulator reads
both as they are, they pickle as two buffers, and building one takes no
per-word Python.  :attr:`Program.data` is a read-only mapping over them
for the reference emulator and for inspection.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence

from repro.isa.instructions import Instruction

#: Data addresses are word (8-byte) aligned; a run's words are this far
#: apart.
WORD_BYTES = 8

_MASK64 = (1 << 64) - 1


def to_word(value: int) -> int:
    """``value`` wrapped to a 64-bit two's-complement word."""
    value &= _MASK64
    if value >= 1 << 63:
        value -= 1 << 64
    return value


class DataImage(Mapping):
    """A program's initial data memory, read-only: byte addresses to
    integer values, in insertion order.

    ``words`` holds the values in that order; ``runs`` holds their
    addresses as ``(base, count)`` pairs, flat: ``count`` words at
    ``base``, ``base + WORD_BYTES``, ... each.  A value beyond int64 is
    stored as its wrapped word (:func:`to_word`), as both emulators wrap
    it when it is loaded, and kept whole in ``wide`` (by address), so the
    mapping reads back every value it was given.  Lookups go through a
    dict built on the first one.
    """

    __slots__ = ("runs", "words", "wide", "_lookup")

    def __init__(self, runs: array, words: array,
                 wide: Optional[Dict[int, int]] = None) -> None:
        self.runs = runs
        self.words = words
        self.wide: Dict[int, int] = wide or {}
        self._lookup: Optional[Dict[int, int]] = None

    def to_dict(self) -> Dict[int, int]:
        """A new dict of the image (the reference emulator's memory)."""
        image = dict(zip(self, self.words))
        image.update(self.wide)
        return image

    def __getitem__(self, address: int) -> int:
        if self._lookup is None:
            self._lookup = self.to_dict()
        return self._lookup[address]

    def __iter__(self) -> Iterator[int]:
        runs = self.runs
        return chain.from_iterable(
            range(base, base + count * WORD_BYTES, WORD_BYTES)
            for base, count in zip(runs[::2], runs[1::2]))

    def __len__(self) -> int:
        return len(self.words)

    def __reduce__(self):
        return DataImage, (self.runs, self.words, self.wide)


@dataclass
class BasicBlock:
    """A maximal straight-line sequence of instructions.

    ``start`` and ``end`` are inclusive static PCs.  The block's terminator
    (if any) is the control instruction at ``end``.
    """

    index: int
    start: int
    end: int
    successors: List[int] = field(default_factory=list)

    def __contains__(self, pc: int) -> bool:
        return self.start <= pc <= self.end

    def __len__(self) -> int:
        return self.end - self.start + 1


class Program:
    """Static code (a list of :class:`Instruction`) plus initial data memory.

    The data image (:class:`DataImage`) maps word-aligned byte addresses to
    integer values; the functional emulator starts its architectural memory
    from it at reset so that a single :class:`Program` can be re-executed
    many times (e.g. once per simulated configuration) without state leaking
    between runs.  :class:`~repro.isa.builder.ProgramBuilder` builds it;
    a program built without one has no data.
    """

    def __init__(
        self,
        instructions: Sequence[Instruction],
        data: Optional[DataImage] = None,
        name: str = "program",
        entry_point: int = 0,
    ) -> None:
        self._instructions: List[Instruction] = list(instructions)
        self._validate()
        if data is None:
            data = DataImage(array("q"), array("q"))
        self.data = data
        self.name = name
        self.entry_point = entry_point

    # -- construction-time validation ------------------------------------
    def _validate(self) -> None:
        for idx, inst in enumerate(self._instructions):
            if inst.pc != idx:
                raise ValueError(
                    f"instruction at index {idx} has inconsistent pc {inst.pc}"
                )
            if inst.target is not None and not (
                0 <= inst.target < len(self._instructions)
            ):
                raise ValueError(
                    f"instruction {idx} targets out-of-range pc {inst.target}"
                )

    # -- container protocol ----------------------------------------------
    def __len__(self) -> int:
        return len(self._instructions)

    def __getitem__(self, pc: int) -> Instruction:
        return self._instructions[pc]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    @property
    def instructions(self) -> Sequence[Instruction]:
        return tuple(self._instructions)

    # -- queries -----------------------------------------------------------
    def branch_pcs(self) -> List[int]:
        """Static PCs of all conditional branches."""
        return [inst.pc for inst in self._instructions if inst.is_branch]

    def control_pcs(self) -> List[int]:
        """Static PCs of all control instructions (branches, jumps, calls, rets)."""
        return [inst.pc for inst in self._instructions if inst.is_control]

    def describe(self) -> str:
        """Multi-line human-readable listing (for examples and debugging)."""
        header = f"# program {self.name!r}: {len(self)} static instructions"
        return "\n".join([header] + [str(inst) for inst in self._instructions])
