"""Fig. 12 — offloading strided prefetch: DLA+stride vs DLA+T1.

Two ways of covering strided accesses on top of baseline DLA are compared:
adding a conventional L1 stride prefetcher (DLA + Stride) versus offloading
to the T1 engine (DLA + T1).  Both speedup over plain DLA (a) and total
memory traffic normalised to plain DLA (b) are reported.  Shapes to
reproduce: T1 delivers a higher mean speedup and never slows a workload
down, while the stride prefetcher's speculative prefetches generate more
memory traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.metrics import SpeedupTable
from repro.analysis.reporting import format_table
from repro.experiments.parallel import run_cells
from repro.experiments.runner import ExperimentRunner
from repro.workloads.suites import SUITES


@dataclass
class Fig12Result:
    speedup: SpeedupTable
    traffic: SpeedupTable

    def render(self) -> str:
        lines = ["Fig. 12-a — speedup over plain DLA", ""]
        lines.append(format_table(self.speedup.summary_rows(list(SUITES))))
        lines.append("")
        lines.append("Fig. 12-b — memory traffic normalised to plain DLA")
        lines.append(format_table(self.traffic.summary_rows(list(SUITES))))
        return "\n".join(lines)


def run(runner: Optional[ExperimentRunner] = None) -> Fig12Result:
    runner = runner or ExperimentRunner(quick=True)
    speedup = SpeedupTable()
    traffic = SpeedupTable()
    for setup, outcomes in run_cells(CAMPAIGN, runner):
        dla = outcomes["dla"]
        dla_stride = outcomes["dla-stride"]
        dla_t1 = outcomes["dla-t1"]

        speedup.record("DLA + Stride", setup.name, dla.cycles / dla_stride.cycles, setup.suite)
        speedup.record("DLA + T1", setup.name, dla.cycles / dla_t1.cycles, setup.suite)
        base_traffic = max(1, dla.memory_traffic)
        traffic.record("DLA + Stride", setup.name,
                       dla_stride.memory_traffic / base_traffic, setup.suite)
        traffic.record("DLA + T1", setup.name,
                       dla_t1.memory_traffic / base_traffic, setup.suite)
    return Fig12Result(speedup=speedup, traffic=traffic)


# ---------------------------------------------------------------------------
# campaign registration (see repro.campaign)
# ---------------------------------------------------------------------------
from repro.campaign.spec import CampaignSpec, variants  # noqa: E402

CAMPAIGN = CampaignSpec(
    name="fig12",
    title="Fig. 12 — offloading strided prefetch: DLA+stride vs DLA+T1",
    experiment=__name__,
    description="Speedup over plain DLA and memory traffic of an L1 stride "
                "prefetcher vs the T1 offload engine.",
    variants=variants(
        dict(name="dla", kind="dla", dla_preset="dla"),
        dict(name="dla-stride", kind="dla", dla_preset="dla", prefetch="l1stride"),
        dict(name="dla-t1", kind="dla", dla_optimizations={"t1": True}),
    ),
    tags=("paper", "prefetch"),
)


def artifact_tables(result: Fig12Result) -> Dict[str, List[Dict[str, object]]]:
    return {
        "speedup": result.speedup.summary_rows(list(SUITES)),
        "traffic": result.traffic.summary_rows(list(SUITES)),
    }


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
