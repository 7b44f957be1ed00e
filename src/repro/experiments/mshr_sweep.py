"""MSHR sensitivity — how much memory-level parallelism does R3-DLA need?

This sweep varies the per-level MSHR-file capacity (4/8/16/32/unbounded,
uniform across L1I/L1D/L2/L3) for both the baseline and R3-DLA and reports
throughput relative to the unbounded (infinite-MLP) machine, plus the
contention stall telemetry that shows where the file saturates.

Shape to expect: tiny files (4 entries) throttle both machines, but R3-DLA
degrades faster because the look-ahead thread's prefetches compete with the
main thread's demand misses for the same entries; by 32 entries both curves
are flat against the unbounded reference.

The sweep machinery itself is the generalised memory-backend harness of
:mod:`repro.experiments.memsys_sweep`; this module binds its ``mshr`` axis
(and keeps the original ``mshr-sweep`` campaign name).  The sibling axes
live in :mod:`repro.experiments.wb_sweep` (victim write buffers) and
:mod:`repro.experiments.dramq_sweep` (DRAM controller queues).
"""

from __future__ import annotations

from typing import Optional

from repro.campaign.spec import CampaignSpec
from repro.experiments.memsys_sweep import (
    AXIS_MSHR,
    MSHR_SETTINGS,
    MemsysSweepResult,
    artifact_tables,
    axis_variants,
    run_axis,
)
from repro.experiments.runner import ExperimentRunner

__all__ = ["MSHR_SETTINGS", "run", "CAMPAIGN", "artifact_tables"]


def run(runner: Optional[ExperimentRunner] = None) -> MemsysSweepResult:
    return run_axis(CAMPAIGN, AXIS_MSHR, runner)


CAMPAIGN = CampaignSpec(
    name="mshr-sweep",
    title="MSHR sweep — MLP sensitivity of BL vs R3-DLA",
    experiment=__name__,
    description="Throughput of the baseline and R3-DLA with per-level MSHR "
                "files of 4/8/16/32/unbounded entries, relative to the "
                "unbounded (infinite-MLP) machine.",
    variants=axis_variants(AXIS_MSHR),
    tags=("sweep", "mshr", "memory"),
)


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
