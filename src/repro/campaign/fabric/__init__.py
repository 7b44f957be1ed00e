"""Distributed campaign fabric: the fleet dispatcher.

The lease/merge layer (store leases, shard partitions, worker claim loops,
``repro merge``) is host-agnostic by construction — a cell is done exactly
when its result is in a ``.repro_cache/``.  So a fleet needs only one
cache root that every host mounts: each host job runs ``repro run`` on it
(``--shard i/N`` or ``--worker``) and its cells land there directly.

:mod:`repro.campaign.fabric.dispatch`
    Renders one self-contained job script per host, submits them to a
    backend (:mod:`repro.campaign.fabric.backends`: ``process_pool`` or
    ``slurm``), polls campaign status until the fleet converges, and
    merges — byte-identical to a single-host run.

CLI surface: ``repro dispatch``.
"""

from repro.campaign.fabric.dispatch import (  # noqa: F401
    DispatchError, Dispatcher, DispatchPlan, HostJob,
)

__all__ = [
    "DispatchError",
    "DispatchPlan",
    "Dispatcher",
    "HostJob",
]
