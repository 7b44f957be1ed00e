"""Per-PC stride prefetcher (reference-prediction-table style).

This is the "conventional stride prefetcher" that Sec. IV-C1 of the paper
adds to the baseline for comparison with the T1 offload engine.  Unlike T1 —
which is *told* which instructions are strided — this prefetcher has to
discover strides on its own from the address stream, confirm them over
several observations, and pick a prefetch degree; that extra uncertainty is
exactly why the paper finds it both less accurate and more traffic-hungry
than T1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.prefetch.base import Prefetcher, PrefetchRequest


class _EntryState(enum.Enum):
    INITIAL = "initial"
    TRANSIENT = "transient"
    STEADY = "steady"
    NO_PREDICTION = "no_prediction"


@dataclass
class _TableEntry:
    last_address: int
    stride: int = 0
    state: _EntryState = _EntryState.INITIAL
    last_use: int = 0


@dataclass
class StridePrefetcherConfig:
    """Tuning knobs (defaults follow the paper's tuned L1 stride prefetcher:
    32 tracked strides, prefetch degree 4)."""

    table_entries: int = 32
    degree: int = 4
    block_bytes: int = 64
    target_level: str = "l1"


class StridePrefetcher(Prefetcher):
    """Classic Chen/Baer reference prediction table with 2-step confirmation."""

    def __init__(self, config: Optional[StridePrefetcherConfig] = None, **overrides) -> None:
        self.config = config or StridePrefetcherConfig(**overrides)
        self.target_level = self.config.target_level
        self._table: Dict[int, _TableEntry] = {}

    def observe(self, pc: int, address: int, hit: bool, cycle: int) -> List[PrefetchRequest]:
        entry = self._table.get(pc)
        if entry is None:
            self._allocate(pc, address, cycle)
            return []

        observed_stride = address - entry.last_address
        requests: List[PrefetchRequest] = []

        if entry.state is _EntryState.INITIAL:
            entry.stride = observed_stride
            entry.state = _EntryState.TRANSIENT
        elif observed_stride == entry.stride and entry.stride != 0:
            entry.state = _EntryState.STEADY
            requests = self._issue(address, entry.stride)
        else:
            # Mispredicted stride: fall back and re-learn.
            if entry.state is _EntryState.STEADY:
                entry.state = _EntryState.TRANSIENT
            else:
                entry.state = _EntryState.NO_PREDICTION
            entry.stride = observed_stride

        entry.last_address = address
        entry.last_use = cycle
        return requests

    # ------------------------------------------------------------------
    def _issue(self, address: int, stride: int) -> List[PrefetchRequest]:
        block = self.config.block_bytes
        requests = []
        seen_blocks = {address // block}
        for distance in range(1, self.config.degree + 1):
            target = address + distance * stride
            if target < 0:
                continue
            if target // block in seen_blocks:
                continue
            seen_blocks.add(target // block)
            requests.append(PrefetchRequest(target, level=self.config.target_level))
        return requests

    def _allocate(self, pc: int, address: int, cycle: int) -> None:
        if len(self._table) >= self.config.table_entries:
            victim = min(self._table, key=lambda k: self._table[k].last_use)
            del self._table[victim]
        self._table[pc] = _TableEntry(last_address=address, last_use=cycle)

    def reset(self) -> None:
        self._table.clear()
