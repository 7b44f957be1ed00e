"""Distributed campaign fabric: cell-sync transport + fleet dispatcher.

The lease/merge layer (store leases, shard partitions, worker claim loops,
``repro merge``) is host-agnostic by construction — a cell is done exactly
when its result is in a ``.repro_cache/``.  This package moves cells
between cache directories and submits workers to a backend:

:mod:`repro.campaign.fabric.sync`
    Batched, idempotent, torn-transfer-safe push/pull of cache entries and
    campaign lease/failure/journal state between a local cache root and a
    shared directory — one transfer, called with the roots swapped.

:mod:`repro.campaign.fabric.dispatch`
    Renders one self-contained job script per host, submits them to a
    backend (:mod:`repro.campaign.fabric.backends`: ``process_pool``,
    ``local`` — the same subprocess backend one host at a time — or
    ``slurm``), polls campaign status until the fleet converges, and
    merges — byte-identical to a single-host run.

CLI surface: ``repro dispatch`` and ``repro sync``.
"""

from repro.campaign.fabric.dispatch import (  # noqa: F401
    DispatchError, Dispatcher, DispatchPlan, HostJob,
)
from repro.campaign.fabric.sync import (  # noqa: F401
    CacheSync, SyncError, SyncReport,
)

__all__ = [
    "CacheSync",
    "DispatchError",
    "DispatchPlan",
    "Dispatcher",
    "HostJob",
    "SyncError",
    "SyncReport",
]
