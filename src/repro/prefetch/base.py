"""Common prefetcher interface."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass
class PrefetchRequest:
    """One block the prefetcher wants fetched.

    ``level`` selects the cache level the prefetch should fill ("l1" or
    "l2"); conventional L2 prefetchers such as BOP use "l2", while the L1
    stride prefetcher of Sec. IV-C1 and the DLA prefetch hints use "l1".
    """

    address: int
    level: str = "l2"


class Prefetcher:
    """Base class: observes the demand access stream, emits prefetches."""

    #: Default target level for requests produced by this prefetcher.
    target_level = "l2"

    def observe(self, pc: int, address: int, hit: bool, cycle: int) -> List[PrefetchRequest]:
        """Called on every demand access to the level this prefetcher guards.

        Parameters
        ----------
        pc:
            Static PC of the load/store performing the access.
        address:
            Byte address being accessed.
        hit:
            Whether the access hit in the guarded cache level.
        cycle:
            Current core cycle (used by prefetchers that track timeliness).
        """
        raise NotImplementedError

    def notify_drop(self, request: PrefetchRequest) -> None:
        """The memory system dropped ``request`` (no free MSHR entry).

        Prefetches never stall for a miss register the way demand misses do;
        a full file at issue time simply loses the request.  This default is
        a pure no-op hook (drop *counts* live on the guarded cache's
        ``CacheStats.prefetches_dropped``); stateful prefetchers may
        override it to track lost coverage or re-queue the block.
        """


class NullPrefetcher(Prefetcher):
    """A prefetcher that never prefetches (the ``noPF`` configurations)."""

    def observe(self, pc: int, address: int, hit: bool, cycle: int) -> List[PrefetchRequest]:
        return []
