"""Return Address Stack."""

from __future__ import annotations

from typing import List, Optional


class ReturnAddressStack:
    """Fixed-depth circular return-address stack (32 entries in Table I).

    On overflow the oldest entry is overwritten, as in real hardware; the
    corresponding return will then mispredict, which the timing model charges
    like any other branch misprediction.
    """

    def __init__(self, depth: int = 32) -> None:
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.depth = depth
        self._stack: List[int] = []
        self.pushes = 0
        self.pops = 0
        self.overflows = 0
        self.underflows = 0

    def push(self, return_address: int) -> None:
        self.pushes += 1
        if len(self._stack) >= self.depth:
            self.overflows += 1
            self._stack.pop(0)
        self._stack.append(return_address)

    def pop(self) -> Optional[int]:
        self.pops += 1
        if not self._stack:
            self.underflows += 1
            return None
        return self._stack.pop()

    def __len__(self) -> int:
        return len(self._stack)

    def clear(self) -> None:
        self._stack.clear()
