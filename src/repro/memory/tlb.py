"""A small fully-associative data TLB.

The look-ahead thread sends TLB hints through the footnote queue whenever it
misses in the TLB (Sec. III-A of the paper), so the main thread's TLB can be
warmed ahead of time.  The model below is a fully associative LRU TLB with a
fixed page-walk penalty; a ``prefill`` entry point implements the hint path.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Optional

from repro.memory.cache import lru_victim


@dataclass(frozen=True)
class TlbConfig:
    entries: int = 64
    page_bytes: int = 4096
    #: Page-walk latency in core cycles charged on a TLB miss.
    miss_penalty: int = 30


@dataclass
class TlbStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    prefills: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Tlb:
    """Fully-associative LRU TLB.

    Entries live in flat per-slot arrays that the compiled kernel reads and
    updates in place: the first ``_count[0]`` slots of ``_vpn`` (``-1`` =
    empty) are the resident translations, ``_last_use`` is a list (times
    keep their int/float type) and ``_stamp`` orders the entries by
    insertion from the ``_clock`` counter.  The LRU victim is the entry
    with the smallest ``(last_use, stamp)``, so ties break in insertion
    order (:func:`~repro.memory.cache.lru_victim`, shared with the caches).
    The arrays are mutated in place, never rebound.
    """

    def __init__(self, config: Optional[TlbConfig] = None) -> None:
        self.config = config or TlbConfig()
        self.stats = TlbStats()
        self._page_bytes = self.config.page_bytes
        entries = self.config.entries
        self._vpn = array("q", [-1]) * entries
        self._last_use: list = [0] * entries
        self._stamp = array("q", bytes(8 * entries))
        self._count = array("q", [0])
        self._clock = array("q", [0])

    def _slot(self, vpn: int) -> Optional[int]:
        try:
            return self._vpn.index(vpn, 0, self._count[0])
        except ValueError:
            return None

    def access(self, address: int, now: int) -> int:
        """Translate; returns the added latency (0 on hit, miss_penalty on miss)."""
        stats = self.stats
        stats.accesses += 1
        vpn = address // self._page_bytes
        slot = self._slot(vpn)
        if slot is not None:
            stats.hits += 1
            self._last_use[slot] = now
            return 0
        stats.misses += 1
        self._insert(vpn, now)
        return self.config.miss_penalty

    def prefill(self, address: int, now: int) -> None:
        """Install a translation ahead of use (look-ahead TLB hint)."""
        vpn = address // self._page_bytes
        if self._slot(vpn) is None:
            self.stats.prefills += 1
        self._insert(vpn, now)

    def _insert(self, vpn: int, now: int) -> None:
        slot = self._slot(vpn)
        if slot is None:
            count = self._count[0]
            if count >= self.config.entries:
                slot = lru_victim(self._last_use, self._stamp, 0, count)
            else:
                slot = count   # slots free up only on flush
                self._count[0] = count + 1
            self._vpn[slot] = vpn
            clock = self._clock
            self._stamp[slot] = clock[0]
            clock[0] += 1
        self._last_use[slot] = now

    def contains(self, address: int) -> bool:
        return self._slot(address // self._page_bytes) is not None

    def flush(self) -> None:
        vpn = self._vpn
        for slot in range(self._count[0]):
            vpn[slot] = -1
        self._count[0] = 0

    def _resident(self) -> list:
        """Resident slots in LRU-tie (insertion) order."""
        return sorted(range(self._count[0]), key=self._stamp.__getitem__)

    def entries(self) -> Dict[int, int]:
        """``{vpn: last_use}`` in LRU-tie (insertion) order."""
        vpn, last_use = self._vpn, self._last_use
        return {vpn[slot]: last_use[slot] for slot in self._resident()}

    def snapshot_state(self) -> tuple:
        """Resident ``(vpn, slot)`` pairs and last uses in LRU-tie order,
        plus the statistics: a copy for comparing two TLBs."""
        slots = self._resident()
        vpn, last_use = self._vpn, self._last_use
        return (tuple((vpn[slot], slot) for slot in slots),
                tuple(last_use[slot] for slot in slots),
                dict(vars(self.stats)))
