"""Hardware prefetchers.

The paper's baseline core uses a Best-Offset Prefetcher (BOP) at L2, chosen
as the best of a group of state-of-the-art prefetchers, and its analysis of
the T1 offload engine compares against adding a conventional stride
prefetcher at L1.  This package implements those two prefetchers, plus the
null prefetcher of the "noPF" configurations, behind a single event-driven
interface: ``observe(pc, address, hit, cycle)`` returns the list of block
addresses the prefetcher wants brought in.  ``SystemConfig`` names them by
their :data:`PREFETCHER_FACTORIES` key.
"""

from repro.prefetch.base import NullPrefetcher, Prefetcher, PrefetchRequest
from repro.prefetch.stride import StridePrefetcher, StridePrefetcherConfig
from repro.prefetch.best_offset import BestOffsetPrefetcher, BestOffsetConfig

PREFETCHER_FACTORIES = {
    "none": NullPrefetcher,
    "stride": StridePrefetcher,
    "bop": BestOffsetPrefetcher,
}


def make_prefetcher(name: str, **kwargs) -> Prefetcher:
    """Instantiate a prefetcher by registry name."""
    if name not in PREFETCHER_FACTORIES:
        raise KeyError(f"unknown prefetcher {name!r}; known: {sorted(PREFETCHER_FACTORIES)}")
    return PREFETCHER_FACTORIES[name](**kwargs)


__all__ = [
    "Prefetcher",
    "PrefetchRequest",
    "NullPrefetcher",
    "StridePrefetcher",
    "StridePrefetcherConfig",
    "BestOffsetPrefetcher",
    "BestOffsetConfig",
    "make_prefetcher",
    "PREFETCHER_FACTORIES",
]
