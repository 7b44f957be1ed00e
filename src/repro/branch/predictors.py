"""The branch direction predictor: TAGE-lite over a bimodal base table."""

from __future__ import annotations

from array import array
from typing import List, Optional


def _saturate(counter: int, taken: bool, max_value: int) -> int:
    if taken:
        return min(counter + 1, max_value)
    return max(counter - 1, 0)


class BimodalPredictor:
    """PC-indexed table of 2-bit saturating counters (TAGE's base table)."""

    def __init__(self, entries: int = 4096, counter_bits: int = 2) -> None:
        self.entries = entries
        self.max_value = (1 << counter_bits) - 1
        self.threshold = 1 << (counter_bits - 1)
        # An array (not a list) so the compiled kernel can borrow the
        # counters zero-copy when this table backs the TAGE base.
        self._table = array("q", [self.threshold]) * entries

    def _index(self, pc: int) -> int:
        return pc % self.entries

    def predict(self, pc: int) -> bool:
        return self._table[self._index(pc)] >= self.threshold

    def update(self, pc: int, taken: bool) -> None:
        idx = self._index(pc)
        self._table[idx] = _saturate(self._table[idx], taken, self.max_value)


class _TageEntryView:
    """Mutable view of one tagged-table slot.

    API-compatible with the entry objects the dict-backed implementation
    used to store, so introspection (tests, analysis tools) keeps working
    against the flat-array representation.
    """

    __slots__ = ("_p", "_k")

    def __init__(self, predictor: "TageLitePredictor", slot: int) -> None:
        self._p = predictor
        self._k = slot

    @property
    def tag(self) -> int:
        return self._p._tag_arr[self._k]

    @property
    def counter(self) -> int:
        return self._p._ctr[self._k]

    @counter.setter
    def counter(self, value: int) -> None:
        self._p._ctr[self._k] = value

    @property
    def useful(self) -> int:
        return self._p._useful[self._k]

    @useful.setter
    def useful(self, value: int) -> None:
        self._p._useful[self._k] = value


class _TageTableView:
    """Dict-like view of one tagged table (``.get(index)`` / truthiness)."""

    __slots__ = ("_p", "_t")

    def __init__(self, predictor: "TageLitePredictor", table: int) -> None:
        self._p = predictor
        self._t = table

    def get(self, index: int) -> Optional[_TageEntryView]:
        slot = self._t * self._p.table_entries + index
        if self._p._present[slot]:
            return _TageEntryView(self._p, slot)
        return None

    def __bool__(self) -> bool:
        base = self._t * self._p.table_entries
        return 1 in self._p._present[base:base + self._p.table_entries]


def _fold(value: int, bits: int) -> int:
    """XOR-fold ``value`` down to ``bits`` bits."""
    mask = (1 << bits) - 1
    folded = 0
    while value:
        folded ^= value & mask
        value >>= bits
    return folded


class TageLitePredictor:
    """A compact TAGE: bimodal base plus tagged tables with geometric histories.

    This keeps the parts of TAGE that give it its accuracy — longest-matching
    tagged component wins, new entries allocated on mispredictions with short
    histories preferred, usefulness counters guarding replacement — while
    dropping the statistical corrector and loop predictor of full TAGE-SC-L.
    """

    def __init__(self, num_tables: int = 4, table_entries: int = 1024,
                 min_history: int = 4, max_history: int = 64,
                 tag_bits: int = 11) -> None:
        self.base = BimodalPredictor(8192)
        self.num_tables = num_tables
        self.table_entries = table_entries
        self.tag_mask = (1 << tag_bits) - 1
        # Geometric history lengths between min and max.
        self.history_lengths = []
        for i in range(num_tables):
            ratio = (max_history / min_history) ** (i / max(1, num_tables - 1))
            self.history_lengths.append(int(round(min_history * ratio)))
        #: Per-table history masks, precomputed (hot path).
        self._history_masks = [(1 << length) - 1 for length in self.history_lengths]
        # Tagged tables as flat arrays ([table][index] row-major), shared
        # zero-copy with the compiled kernel's native TAGE.  A dict slot
        # of the original implementation maps to ``_present[k]`` plus the
        # (tag, counter, useful) triple at the same index.
        size = num_tables * table_entries
        self._present = array("b", bytes(size))
        self._tag_arr = array("q", bytes(8 * size))
        self._ctr = array("q", bytes(8 * size))
        self._useful = array("q", bytes(8 * size))
        self._hist = array("Q", (0,))
        self._masks_arr = array("Q", self._history_masks)
        self._last_provider: Optional[int] = None
        self._last_index: Optional[int] = None

    @property
    def _history(self) -> int:
        return self._hist[0]

    @_history.setter
    def _history(self, value: int) -> None:
        self._hist[0] = value & 0xFFFFFFFFFFFFFFFF

    @property
    def _tables(self) -> List[_TageTableView]:
        return [_TageTableView(self, t) for t in range(self.num_tables)]

    # -- hashing -----------------------------------------------------------
    def _fold(self, value: int, bits: int) -> int:
        return _fold(value, bits)

    def _index(self, pc: int, table: int) -> int:
        hist = self._history & self._history_masks[table]
        return (pc ^ _fold(hist, 10) ^ (table * 0x9E37)) % self.table_entries

    def _tag(self, pc: int, table: int) -> int:
        hist = self._history & self._history_masks[table]
        return (pc ^ (pc >> 5) ^ _fold(hist, 7) ^ (table * 0x1F3)) & self.tag_mask

    # -- prediction ---------------------------------------------------------
    def _lookup(self, pc: int):
        """(provider table, index, entry) of the longest history match.

        The index/tag expressions below are inlined copies of
        :meth:`_index`/:meth:`_tag` (the allocation path still uses those
        helpers).  They must stay in sync — pinned by
        ``tests/branch/test_branch_prediction.py::test_tage_lookup_matches_hash_helpers``.
        """
        history = self._hist[0]
        masks = self._history_masks
        entries = self.table_entries
        tag_mask = self.tag_mask
        present = self._present
        tag_arr = self._tag_arr
        pc_hash = pc ^ (pc >> 5)
        for table in range(self.num_tables - 1, -1, -1):
            hist = history & masks[table]
            index = (pc ^ _fold(hist, 10) ^ (table * 0x9E37)) % entries
            slot = table * entries + index
            if present[slot]:
                tag = (pc_hash ^ _fold(hist, 7) ^ (table * 0x1F3)) & tag_mask
                if tag_arr[slot] == tag:
                    return table, index, _TageEntryView(self, slot)
        return None, -1, None

    def predict(self, pc: int) -> bool:
        provider, _index, entry = self._lookup(pc)
        if provider is None:
            return self.base.predict(pc)
        return entry.counter >= 0

    def update(self, pc: int, taken: bool) -> None:
        self.predict_update(pc, taken)

    def predict_update(self, pc: int, taken: bool) -> bool:
        history = self._hist[0]
        masks = self._history_masks
        entries = self.table_entries
        tag_mask = self.tag_mask
        present = self._present
        tag_arr = self._tag_arr
        ctr = self._ctr
        useful = self._useful
        pc_hash = pc ^ (pc >> 5)

        provider = -1
        slot = -1
        for table in range(self.num_tables - 1, -1, -1):
            hist = history & masks[table]
            index = (pc ^ _fold(hist, 10) ^ (table * 0x9E37)) % entries
            k = table * entries + index
            if present[k]:
                tag = (pc_hash ^ _fold(hist, 7) ^ (table * 0x1F3)) & tag_mask
                if tag_arr[k] == tag:
                    provider = table
                    slot = k
                    break

        if provider >= 0:
            predicted = ctr[slot] >= 0
            ctr[slot] = max(-4, min(3, ctr[slot] + (1 if taken else -1)))
            if predicted == taken:
                useful[slot] = min(useful[slot] + 1, 3)
            else:
                useful[slot] = max(useful[slot] - 1, 0)
        else:
            predicted = self.base.predict(pc)
        self.base.update(pc, taken)

        # Allocate a longer-history entry on a misprediction.
        if predicted != taken:
            start = provider + 1 if provider >= 0 else 0
            for table in range(start, self.num_tables):
                index = self._index(pc, table)
                k = table * entries + index
                if not present[k] or useful[k] == 0:
                    present[k] = 1
                    tag_arr[k] = self._tag(pc, table)
                    ctr[k] = 0 if taken else -1
                    useful[k] = 0
                    break

        self._hist[0] = ((history << 1) | int(taken)) & 0xFFFFFFFFFFFFFFFF
        return predicted

