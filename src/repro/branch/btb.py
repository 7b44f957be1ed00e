"""Branch Target Buffer."""

from __future__ import annotations

from array import array
from typing import Optional


class BranchTargetBuffer:
    """Set-associative BTB mapping branch PCs to predicted targets.

    The look-ahead thread sends indirect-branch target hints through the
    footnote queue; the main core uses those in place of its own BTB lookup
    when available (Sec. III-A), which is modelled by the DLA front-end, not
    here.  This class is the conventional structure both cores contain.

    Each set packs its valid ways into flat arrays in insertion order —
    the iteration-order semantics the original dict-of-entries carried
    (update of an existing way keeps its position; the eviction victim is
    the *first* way with the minimal ``last_use``) — so the compiled
    kernel can borrow the state zero-copy and stay bit-identical.
    """

    def __init__(self, entries: int = 4096, associativity: int = 4) -> None:
        if entries % associativity != 0:
            raise ValueError("entries must be divisible by associativity")
        self.entries = entries
        self.associativity = associativity
        self.num_sets = entries // associativity
        self._tag = array("q", bytes(8 * entries))
        self._target = array("q", bytes(8 * entries))
        self._last_use = array("q", bytes(8 * entries))
        self._count = array("q", bytes(8 * self.num_sets))
        self.hits = 0
        self.misses = 0

    def _set_and_tag(self, pc: int) -> tuple[int, int]:
        return pc % self.num_sets, pc // self.num_sets

    def lookup(self, pc: int, now: int = 0) -> Optional[int]:
        """Predicted target for a control instruction at ``pc`` (or ``None``)."""
        index, tag = self._set_and_tag(pc)
        base = index * self.associativity
        tags = self._tag
        for k in range(base, base + self._count[index]):
            if tags[k] == tag:
                self.hits += 1
                self._last_use[k] = now
                return self._target[k]
        self.misses += 1
        return None

    def update(self, pc: int, target: int, now: int = 0) -> None:
        """Record the resolved target of a taken control instruction."""
        index, tag = self._set_and_tag(pc)
        base = index * self.associativity
        count = self._count[index]
        tags = self._tag
        for k in range(base, base + count):
            if tags[k] == tag:
                self._target[k] = target
                self._last_use[k] = now
                return
        if count >= self.associativity:
            last_use = self._last_use
            victim = base
            for k in range(base + 1, base + count):
                if last_use[k] < last_use[victim]:
                    victim = k
            targets = self._target
            for k in range(victim, base + count - 1):
                tags[k] = tags[k + 1]
                targets[k] = targets[k + 1]
                last_use[k] = last_use[k + 1]
            count -= 1
        slot = base + count
        tags[slot] = tag
        self._target[slot] = target
        self._last_use[slot] = now
        self._count[index] = count + 1

    def contains(self, pc: int) -> bool:
        index, tag = self._set_and_tag(pc)
        base = index * self.associativity
        tags = self._tag
        for k in range(base, base + self._count[index]):
            if tags[k] == tag:
                return True
        return False
