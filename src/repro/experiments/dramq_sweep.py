"""DRAM-queue sensitivity — when does the controller throttle look-ahead?

Varies the DRAM controller read/write queue depth (2/4/8/16/unbounded per
bank group) for the baseline and R3-DLA and reports throughput relative to
the unbounded-queue reference, plus the contention stall telemetry.  A full
queue delays demand fills and write-buffer drains alike, so this axis is
where the look-ahead thread's extra traffic and the main thread's demand
misses contend most directly.

Shape to expect: R3-DLA leans on deep queues harder than the baseline (its
prefetch traffic rides the same queues); shallow 2-entry queues hurt it
disproportionately on memory-bound workloads.

One axis binding of :mod:`repro.experiments.memsys_sweep` — see there for
the shared machinery and the sibling ``mshr``/``wb`` axes.
"""

from __future__ import annotations

from typing import Optional

from repro.campaign.spec import CampaignSpec
from repro.experiments.memsys_sweep import (
    AXIS_DRAMQ,
    DRAMQ_SETTINGS,
    MemsysSweepResult,
    artifact_tables,
    axis_variants,
    run_axis,
)
from repro.experiments.runner import ExperimentRunner

__all__ = ["DRAMQ_SETTINGS", "run", "CAMPAIGN", "artifact_tables"]


def run(runner: Optional[ExperimentRunner] = None) -> MemsysSweepResult:
    return run_axis(CAMPAIGN, AXIS_DRAMQ, runner)


CAMPAIGN = CampaignSpec(
    name="dramq-sweep",
    title="DRAM-queue sweep — controller queue sensitivity of BL vs R3-DLA",
    experiment=__name__,
    description="Throughput of the baseline and R3-DLA with DRAM controller "
                "read/write queues of 2/4/8/16/unbounded entries per bank "
                "group, relative to the unbounded-queue machine.",
    variants=axis_variants(AXIS_DRAMQ),
    tags=("sweep", "memsys", "memory"),
)


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
