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


@dataclass
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

    Entries live in flat per-slot arrays (``_vpn``, ``-1`` = empty, and
    the ``_last_use`` list) that the compiled kernel reads and updates on
    a hit;
    ``_slots`` maps vpn -> slot and is the insertion-order authority the
    LRU victim choice breaks ties in.  Hits never reorder it, and the
    arrays are mutated in place, never rebound.
    """

    def __init__(self, config: Optional[TlbConfig] = None) -> None:
        self.config = config or TlbConfig()
        self.stats = TlbStats()
        self._page_bytes = self.config.page_bytes
        self._slots: Dict[int, int] = {}
        self._vpn = array("q", [-1]) * self.config.entries
        self._last_use: list = [0] * self.config.entries

    def _vpn_of(self, address: int) -> int:
        return address // self._page_bytes

    def access(self, address: int, now: int) -> int:
        """Translate; returns the added latency (0 on hit, miss_penalty on miss)."""
        stats = self.stats
        stats.accesses += 1
        vpn = address // self._page_bytes
        slot = self._slots.get(vpn)
        if slot is not None:
            stats.hits += 1
            self._last_use[slot] = now
            return 0
        stats.misses += 1
        self._insert(vpn, now)
        return self.config.miss_penalty

    def prefill(self, address: int, now: int) -> None:
        """Install a translation ahead of use (look-ahead TLB hint)."""
        vpn = self._vpn_of(address)
        if vpn not in self._slots:
            self.stats.prefills += 1
        self._insert(vpn, now)

    def _insert(self, vpn: int, now: int) -> None:
        slots = self._slots
        slot = slots.get(vpn)
        if slot is None:
            if len(slots) >= self.config.entries:
                last_use = self._last_use
                victim = min(slots, key=lambda v: last_use[slots[v]])
                slot = slots.pop(victim)
            else:
                slot = len(slots)   # slots free up only on flush
            slots[vpn] = slot
            self._vpn[slot] = vpn
        self._last_use[slot] = now

    def contains(self, address: int) -> bool:
        return self._vpn_of(address) in self._slots

    def flush(self) -> None:
        for slot in self._slots.values():
            self._vpn[slot] = -1
        self._slots.clear()

    def entries(self) -> Dict[int, int]:
        """``{vpn: last_use}`` in LRU-tie (insertion) order."""
        last_use = self._last_use
        return {vpn: last_use[slot] for vpn, slot in self._slots.items()}

    # -- state snapshot (warm-memory memoization) --------------------------
    def snapshot_state(self) -> tuple:
        slots = tuple(self._slots.items())
        last_use = self._last_use
        return (slots, tuple(last_use[slot] for _, slot in slots),
                dict(vars(self.stats)))

    def restore_state(self, snapshot: tuple) -> None:
        slots, last_uses, stats = snapshot
        self.flush()
        for (vpn, slot), last in zip(slots, last_uses):
            self._slots[vpn] = slot
            self._vpn[slot] = vpn
            self._last_use[slot] = last
        for name, value in stats.items():
            setattr(self.stats, name, value)
