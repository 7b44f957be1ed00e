"""Best-Offset Prefetcher (Michaud, HPCA 2016).

BOP is the L2 prefetcher of the paper's baseline configuration (256 recent
request table entries, a 52-entry offset candidate list).  The algorithm
learns, over successive evaluation rounds, the single offset ``D`` such that
for most demanded lines ``X``, line ``X - D`` was requested recently — i.e.
prefetching ``X + D`` would have been timely.  The implementation below
follows the published algorithm: round-robin scoring of candidate offsets
against a recent-requests (RR) table, promotion of the winner at the end of a
round, and a score threshold below which prefetching is disabled.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import List, Optional

from repro.prefetch.base import Prefetcher, PrefetchRequest


def _default_offsets() -> List[int]:
    """The 52-candidate offset list from the BOP paper.

    Offsets are of the form ``2^i * 3^j * 5^k`` up to 256, which covers the
    strides produced by common loop nests while keeping the list short.
    """
    candidates = set()
    for i in range(9):
        for j in range(6):
            for k in range(4):
                value = (2 ** i) * (3 ** j) * (5 ** k)
                if 1 <= value <= 256:
                    candidates.add(value)
    ordered = sorted(candidates)
    return ordered[:52]


@dataclass
class BestOffsetConfig:
    rr_entries: int = 256
    offsets: List[int] = field(default_factory=_default_offsets)
    block_bytes: int = 64
    #: Rounds end after this many scored accesses.
    round_max: int = 100
    #: An offset reaching this score is selected immediately.
    score_max: int = 31
    #: Winners scoring below this leave prefetching off for the next round.
    bad_score: int = 1
    target_level: str = "l2"

    def __post_init__(self) -> None:
        if len(set(self.offsets)) != len(self.offsets):
            raise ValueError("BOP candidate offsets must be distinct")


class BestOffsetPrefetcher(Prefetcher):
    """Offset prefetcher with RR-table-based timeliness scoring.

    The RR table is the first ``_rr_len`` slots of the ``_rr_blocks`` /
    ``_rr_orders`` arrays (block, insertion order; the oldest order is the
    replacement victim) and ``_scores`` holds one score per candidate, in
    ``offsets`` order.  The compiled kernel trains on these arrays in place
    and carries the scalar state through a run.
    """

    def __init__(self, config: Optional[BestOffsetConfig] = None, **overrides) -> None:
        self.config = config or BestOffsetConfig(**overrides)
        self.target_level = self.config.target_level
        self._rr_blocks = array("q", bytes(8 * self.config.rr_entries))
        self._rr_orders = array("q", bytes(8 * self.config.rr_entries))
        self._scores = array("q", bytes(8 * len(self.config.offsets)))
        self.reset()

    # ------------------------------------------------------------------
    def _rr_slot(self, block: int) -> Optional[int]:
        blocks = self._rr_blocks[:self._rr_len]
        return blocks.index(block) if block in blocks else None

    def _rr_insert(self, block: int) -> None:
        slot = self._rr_slot(block)
        if slot is None:
            if self._rr_len >= self.config.rr_entries:
                slot = min(range(self._rr_len), key=self._rr_orders.__getitem__)
            else:
                slot = self._rr_len
                self._rr_len += 1
            self._rr_blocks[slot] = block
        self._rr_orders[slot] = self._rr_order
        self._rr_order += 1

    def _new_round(self) -> None:
        scores = self._scores
        scores[:] = array("q", bytes(8 * len(scores)))
        self._round_accesses = 0
        self._test_index = 0

    def _end_round(self) -> None:
        scores = self._scores
        best = max(range(len(scores)), key=scores.__getitem__)
        if scores[best] <= self.config.bad_score:
            self._prefetch_on = False
            self._current_offset = None
        else:
            self._prefetch_on = True
            self._current_offset = self.config.offsets[best]
        self._new_round()

    # ------------------------------------------------------------------
    def observe(self, pc: int, address: int, hit: bool, cycle: int) -> List[PrefetchRequest]:
        block = address // self.config.block_bytes

        # Score one candidate offset per (miss or prefetch-hit) access.
        offsets = self.config.offsets
        k = self._test_index % len(offsets)
        tested = offsets[k]
        self._test_index += 1
        if self._rr_slot(block - tested) is not None:
            self._scores[k] += 1
            if self._scores[k] >= self.config.score_max:
                self._current_offset = tested
                self._prefetch_on = True
                self._new_round()
        self._round_accesses += 1
        if self._round_accesses >= self.config.round_max:
            self._end_round()

        # The line being demanded now will (once filled) become a "recent
        # request" that future offsets are scored against.
        self._rr_insert(block)

        if not self._prefetch_on or self._current_offset is None:
            return []
        target_block = block + self._current_offset
        return [PrefetchRequest(target_block * self.config.block_bytes,
                                level=self.config.target_level)]

    def reset(self) -> None:
        self._rr_len = 0
        self._rr_order = 0
        self._new_round()
        self._current_offset: Optional[int] = 1  # start with next-line behaviour
        self._prefetch_on = True

    @property
    def current_offset(self) -> Optional[int]:
        """Offset currently used for prefetching (``None`` when disabled)."""
        return self._current_offset
