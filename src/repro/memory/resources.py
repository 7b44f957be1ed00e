"""Shared occupancy/contention primitives of the memory backend.

Every finite buffering resource in the memory system — MSHR files, victim
write buffers, DRAM read/write queues — meters the same physical phenomenon:
a bounded set of slots, each held from admission until a completion
timestamp passes.  The simulator is trace-driven rather than event-driven,
so all of them share one *lazy timestamp* model implemented here once:

:class:`OccupancyResource`
    The generic keyed resource.  An entry is a ``key -> completion cycle``
    pair that logically occupies a slot until its completion time passes;
    entries behind the current access time have retired and are pruned on
    demand.  A full resource makes the next admission wait for the earliest
    entry to retire (the freed slot is consumed immediately, so back-to-back
    stalled admissions queue behind one another).

:class:`MshrFile`
    The miss-status-holding registers of one cache level — an
    ``OccupancyResource`` client keyed by block address, where a second
    admission for an in-flight key *coalesces* (keeping the earliest
    arrival) instead of taking a second slot.

:class:`BankedMshrFile`
    An address-interleaved array of :class:`MshrFile` banks.  A miss can
    stall on its bank while other banks still have room — a *bank conflict*,
    surfaced separately from capacity stalls via :attr:`last_conflict`.

:class:`OccupancyQueue`
    The anonymous (un-keyed) variant used by write buffers and DRAM queues:
    nothing ever coalesces, and the resource behaves as a bounded,
    admission-ordered multiset of completion times.

Keeping one implementation is what makes the telemetry spine uniform: every
client counts the same events (admissions, stalls, stall cycles, peak
occupancy) with the same semantics, and the per-level ``memsys`` telemetry
dicts assembled by :mod:`repro.memory.hierarchy` read the counters through
one vocabulary instead of a bespoke set per resource.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Optional, Tuple


def probe_peak(resource, now: Optional[float], recorded: int) -> int:
    """Amortised high-water-mark probe shared by every resource's telemetry.

    Only measures when the resource's *lazy* size (an upper bound) exceeds
    the recorded peak, so the retire scan is amortised over genuine highs;
    without a probe time the lazy size itself is used.  ``resource`` is
    anything with ``__len__`` and ``occupancy(now)`` — plain resources and
    banked files alike.
    """
    if len(resource) <= recorded:
        return recorded
    occupancy = resource.occupancy(now) if now is not None else len(resource)
    return occupancy if occupancy > recorded else recorded


class OccupancyResource:
    """A bounded set of slots held until per-entry completion timestamps pass.

    The capacity must be positive; "unbounded" is expressed by *not building
    the resource at all* (clients keep a ``None`` and skip the model), which
    keeps the uncontended timing path bit-identical to a machine without the
    resource.

    Entries are ``(key, completion)`` pairs kept in admission order in fixed
    arrays: lane ``l`` of a store owns slots ``l * (capacity + 1)`` onwards
    (one spare slot absorbs an un-gated admission before its overflow drop)
    and its live entries are the first ``_len[l]`` of them.  ``_keys`` is a
    typed array and ``_done`` a list, so every completion keeps the int or
    float type it arrived with.  Resources built together by :meth:`lanes`
    share one store, which the compiled kernel mutates in place: never
    rebind the arrays.
    """

    __slots__ = ("capacity", "_keys", "_done", "_len", "_lane", "_base")

    #: Whether the most recent non-zero delay was a bank conflict rather than
    #: a capacity stall.  Plain resources never set it; the banked MSHR file
    #: overrides it per stall.  A class attribute keeps the common read free.
    last_conflict = False

    def __init__(self, capacity: int, _store: Optional[tuple] = None,
                 _lane: int = 0) -> None:
        if capacity <= 0:
            raise ValueError(
                "resource capacity must be positive (unbounded = no resource)"
            )
        self.capacity = capacity
        if _store is None:
            _store = self.store(capacity, 1)
        self._keys, self._done, self._len = _store
        self._lane = _lane
        self._base = _lane * (capacity + 1)

    @staticmethod
    def store(capacity: int, lanes: int) -> tuple:
        """Fresh ``(keys, completions, lengths)`` arrays for ``lanes``
        resources of ``capacity`` slots each."""
        slots = lanes * (capacity + 1)
        return array("q", bytes(8 * slots)), [0] * slots, array("q", bytes(8 * lanes))

    @classmethod
    def lanes(cls, capacity: int, count: int) -> list:
        """``count`` resources of ``capacity`` slots sharing one store."""
        shared = cls.store(capacity, count)
        return [cls(capacity, shared, lane) for lane in range(count)]

    # -- entry arrays ------------------------------------------------------
    def _find(self, key: int) -> Optional[int]:
        base = self._base
        keys = self._keys[base:base + self._len[self._lane]]
        return base + keys.index(key) if key in keys else None

    def _delete(self, slot: int) -> None:
        """Remove one entry, keeping the others in admission order."""
        end = self._base + self._len[self._lane] - 1
        if slot < end:
            # (A shared array may not be resized, so never assign an
            # empty slice.)
            self._keys[slot:end] = self._keys[slot + 1:end + 1]
            self._done[slot:end] = self._done[slot + 1:end + 1]
        self._done[end] = 0
        self._len[self._lane] -= 1

    def _earliest(self) -> int:
        """Slot of the first entry, in admission order, to retire."""
        base = self._base
        done = self._done[base:base + self._len[self._lane]]
        return base + done.index(min(done))

    def _append(self, key: int, completion: float) -> None:
        """Admit a new entry; past capacity, drop the earliest-retiring one
        (it is the first to have completed anyway)."""
        n = self._len[self._lane]
        slot = self._base + n
        self._keys[slot] = key
        self._done[slot] = completion
        self._len[self._lane] = n + 1
        if n + 1 > self.capacity:
            self._delete(self._earliest())

    # -- occupancy ---------------------------------------------------------
    def _retire(self, now: float) -> None:
        n = self._len[self._lane]
        if not n:
            return
        base = self._base
        done = self._done[base:base + n]
        if min(done) > now:
            return
        keys = self._keys[base:base + n]
        live = [k for k, completion in enumerate(done) if completion > now]
        kept = len(live)
        if kept:
            self._keys[base:base + kept] = array("q", [keys[k] for k in live])
        self._done[base:base + n] = [done[k] for k in live] + [0] * (n - kept)
        self._len[self._lane] = kept

    def occupancy(self, now: float) -> int:
        """Entries still in flight at cycle ``now``."""
        self._retire(now)
        return self._len[self._lane]

    def available(self, now: float, key: Optional[int] = None) -> bool:
        """Whether a new entry could be admitted at cycle ``now``.

        The full retire scan only runs when the resource looks full — the
        common uncontended case is a single length check.  ``key`` is
        accepted (and ignored) so that address-routed clients can ask the
        same question of banked and un-banked resources uniformly.
        """
        if self._len[self._lane] < self.capacity:
            return True
        self._retire(now)
        return self._len[self._lane] < self.capacity

    # -- admission ---------------------------------------------------------
    def acquire_delay(self, key: int, now: float) -> float:
        """Cycles a new admission for ``key`` must wait for a free slot.

        An in-flight entry for the same key coalesces and never stalls.  A
        key whose earlier flight already completed is treated as a fresh
        admission, not coalesced onto the stale entry (which would occupy no
        slot and keep the stale completion time); stale pruning is per-key
        here and the full retire scan only runs when the resource looks
        full, keeping the uncontended path O(1).  A full resource pops its
        earliest-retiring entry and charges the wait: the caller is
        guaranteed to follow up with an :meth:`admit`, which takes over the
        freed slot.
        """
        slot = self._find(key)
        if slot is not None:
            if self._done[slot] > now:
                return 0.0
            self._delete(slot)
        return self._full_delay(now)

    def _full_delay(self, now: float) -> float:
        """Wait until the earliest entry retires when no slot is free.

        A full resource pops its earliest-retiring entry and charges the
        wait; the caller is guaranteed to follow up with an admission that
        takes over the freed slot (so back-to-back stalls queue behind one
        another).  This one tail is shared by every stall computation —
        keyed (:meth:`acquire_delay`) and anonymous
        (:meth:`OccupancyQueue.reserve_delay`) — so the stall semantics of
        MSHR files, write buffers and DRAM queues cannot diverge.
        """
        if self._len[self._lane] < self.capacity:
            return 0.0
        self._retire(now)
        if self._len[self._lane] < self.capacity:
            return 0.0
        slot = self._earliest()
        earliest = self._done[slot]
        self._delete(slot)
        return earliest - now

    def admit(self, key: int, completion: float) -> bool:
        """Track an in-flight entry; returns True for a fresh admission.

        An existing entry for the key coalesces, keeping the earliest
        completion time.  The resource never grows beyond its capacity: if
        an un-gated admission would overflow it, the earliest-retiring entry
        is dropped (it is the first to have completed anyway).
        """
        slot = self._find(key)
        if slot is not None:
            if completion < self._done[slot]:
                self._done[slot] = completion
            return False
        self._append(key, completion)
        return True

    # -- lifecycle ---------------------------------------------------------
    def drain(self) -> None:
        """Forget every in-flight entry (quiesce at a clock-domain boundary)."""
        n = self._len[self._lane]
        if n:
            self._done[self._base:self._base + n] = [0] * n
            self._len[self._lane] = 0

    def entries(self) -> List[Tuple[int, float]]:
        """The in-flight ``(key, completion)`` pairs in admission order."""
        base = self._base
        end = base + self._len[self._lane]
        return list(zip(self._keys[base:end], self._done[base:end]))

    def snapshot_state(self) -> Tuple[Tuple[int, float], ...]:
        return tuple(self.entries())

    def __len__(self) -> int:
        return self._len[self._lane]


class MshrFile(OccupancyResource):
    """Miss-status-holding registers of one cache level.

    A direct :class:`OccupancyResource` client keyed by block number: a
    primary miss allocates an entry held until its fill time passes, a
    secondary fill for an in-flight block coalesces onto the existing entry
    instead of allocating a second one, and a full file stalls further
    primary misses (:meth:`acquire_delay`).
    """

    __slots__ = ()

    def acquire_delay(self, block: int, now: float) -> float:
        """Cycles a primary miss for ``block`` must wait for a free entry.

        Secondary misses (the block is already in flight — e.g. it was
        evicted while its refill was outstanding) coalesce and never stall;
        see :meth:`OccupancyResource.acquire_delay` for the full contract.
        """
        return OccupancyResource.acquire_delay(self, block, now)

    def allocate(self, block: int, completion: float) -> bool:
        """Track an in-flight fill; returns True for a fresh (primary) entry.

        An existing entry for the block coalesces, keeping the earliest
        data-arrival time.  (Demand misses prune a *stale* same-block entry
        in :meth:`acquire_delay` before their fill lands here; a prefetch
        fill landing on a stale entry merely retires one scan earlier — a
        transient one-entry undercount on a speculative corner.)
        """
        return self.admit(block, completion)


class BankedMshrFile:
    """Address-interleaved MSHR banks: ``bank = block % num_banks``.

    The total capacity is split evenly across the banks (``entries`` must be
    divisible by ``banks``), so a machine with ``mshr_banks=1`` is exactly
    the single :class:`MshrFile`.  Banking introduces a second stall cause:
    a miss whose bank is full waits even while other banks have free slots.
    Such *bank conflicts* are flagged on :attr:`last_conflict` after each
    non-zero :meth:`acquire_delay` so the cache can count them separately
    from whole-file capacity stalls.  The banks are lanes of one store.
    """

    __slots__ = ("capacity", "num_banks", "_banks", "last_conflict")

    def __init__(self, entries: int, banks: int) -> None:
        if banks <= 0:
            raise ValueError("MSHR bank count must be positive")
        if entries % banks:
            raise ValueError(
                f"MSHR entries ({entries}) must divide evenly across "
                f"{banks} banks"
            )
        self.capacity = entries
        self.num_banks = banks
        self._banks: List[MshrFile] = MshrFile.lanes(entries // banks, banks)
        self.last_conflict = False

    def _bank(self, block: int) -> MshrFile:
        return self._banks[block % self.num_banks]

    # -- admission ---------------------------------------------------------
    def acquire_delay(self, block: int, now: float) -> float:
        bank = self._bank(block)
        delay = bank.acquire_delay(block, now)
        if delay > 0.0:
            self.last_conflict = any(
                other is not bank and other.available(now)
                for other in self._banks
            )
        else:
            self.last_conflict = False
        return delay

    def allocate(self, block: int, completion: float) -> bool:
        return self._bank(block).allocate(block, completion)

    def available(self, now: float, key: Optional[int] = None) -> bool:
        """Whether an admission could proceed at ``now``.

        With a ``key`` (block number) the question is asked of that block's
        bank — the answer that actually gates an address-routed prefetch.
        Without one, any bank with room counts as available.
        """
        if key is not None:
            return self._bank(key).available(now)
        return any(bank.available(now) for bank in self._banks)

    def occupancy(self, now: float) -> int:
        return sum(bank.occupancy(now) for bank in self._banks)

    # -- lifecycle ---------------------------------------------------------
    def drain(self) -> None:
        for bank in self._banks:
            bank.drain()
        self.last_conflict = False

    def snapshot_state(self) -> tuple:
        return tuple(bank.snapshot_state() for bank in self._banks)

    def __len__(self) -> int:
        return sum(len(bank) for bank in self._banks)


class OccupancyQueue(OccupancyResource):
    """Anonymous bounded queue of completion timestamps.

    Used where entries have no meaningful identity — victim write buffers
    and DRAM read/write queues.  Nothing ever coalesces: each :meth:`push`
    takes a real slot until its completion time passes.
    :meth:`reserve_delay` is the anonymous analogue of
    :meth:`~OccupancyResource.acquire_delay` (no per-key pruning), with the
    same contract: a popped slot must be consumed by a follow-up
    :meth:`push`.
    """

    __slots__ = ()

    def reserve_delay(self, now: float) -> float:
        return self._full_delay(now)

    def push(self, completion: float) -> None:
        self._append(0, completion)


@dataclass(frozen=True)
class WriteBufferConfig:
    """Victim write buffer of one cache level.

    Dirty victims evicted from the level enter the buffer and occupy a slot
    until their write completes at the next level down (or DRAM); while the
    buffer is full, fills that would evict another dirty victim are
    back-pressured.  ``None`` in :attr:`~repro.memory.cache.CacheConfig
    .write_buffer` means no buffer is modelled — victims drain instantly,
    bit-identical to the pre-model machine.
    """

    #: Number of in-flight victim writebacks the level can buffer.
    entries: int = 8

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError(
                "write buffer entries must be positive (no buffer = None)"
            )
