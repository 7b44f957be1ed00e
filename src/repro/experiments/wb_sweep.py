"""Victim write-buffer sensitivity — when do writebacks throttle the machine?

Varies the per-level victim write-buffer depth (1/2/4/8/off, on L1D/L2/L3)
for the baseline and R3-DLA and reports throughput relative to the
bufferless (instant-drain) reference, plus the contention stall telemetry.
With a buffer modelled, dirty victims occupy a slot until their write lands
at the next level down, and a full buffer back-pressures fills — the first
time ``CacheStats.writebacks`` is a timing-relevant event.

Shape to expect: store-heavy workloads with poor locality feel single-entry
buffers (every dirty eviction serialises on the previous drain); by 8
entries the curves sit on the instant-drain reference.

One axis binding of :mod:`repro.experiments.memsys_sweep` — see there for
the shared machinery and the sibling ``mshr``/``dramq`` axes.
"""

from __future__ import annotations

from typing import Optional

from repro.campaign.spec import CampaignSpec
from repro.experiments.memsys_sweep import (
    AXIS_WB,
    WB_SETTINGS,
    MemsysSweepResult,
    artifact_tables,
    axis_variants,
    run_axis,
)
from repro.experiments.runner import ExperimentRunner

__all__ = ["WB_SETTINGS", "run", "CAMPAIGN", "artifact_tables"]


def run(runner: Optional[ExperimentRunner] = None) -> MemsysSweepResult:
    return run_axis(CAMPAIGN, AXIS_WB, runner)


CAMPAIGN = CampaignSpec(
    name="wb-sweep",
    title="Write-buffer sweep — victim drain sensitivity of BL vs R3-DLA",
    experiment=__name__,
    description="Throughput of the baseline and R3-DLA with per-level victim "
                "write buffers of 1/2/4/8/no-buffer entries, relative to the "
                "instant-drain (bufferless) machine.",
    variants=axis_variants(AXIS_WB),
    tags=("sweep", "memsys", "memory"),
)


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
