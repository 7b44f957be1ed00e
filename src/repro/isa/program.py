"""Program container: static code plus an initial data image."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.isa.instructions import Instruction


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

    The data image is a sparse mapping from word-aligned byte addresses to
    integer values; the functional emulator copies it into its architectural
    memory at reset so that a single :class:`Program` can be re-executed many
    times (e.g. once per simulated configuration) without state leaking
    between runs.
    """

    def __init__(
        self,
        instructions: Sequence[Instruction],
        data: Optional[Dict[int, int]] = None,
        name: str = "program",
        entry_point: int = 0,
    ) -> None:
        self._instructions: List[Instruction] = list(instructions)
        self._validate()
        self.data: Dict[int, int] = dict(data or {})
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
