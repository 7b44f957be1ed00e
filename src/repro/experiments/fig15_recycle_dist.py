"""Fig. 15 — distribution of skeleton versions chosen by the recycle controller.

For each workload, the recycle controller tunes one skeleton version per loop
unit; the figure shows, per workload, what fraction of the execution ran
under each version.  Shape to reproduce: no single version dominates across
all workloads — different programs (and different loops within a program)
prefer different skeletons, which is the motivation for recycling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.reporting import format_table
from repro.experiments.parallel import run_cells
from repro.experiments.runner import ExperimentRunner


@dataclass
class Fig15Result:
    #: workload -> {version name: fraction of instructions}
    distributions: Dict[str, Dict[str, float]]
    version_names: List[str]

    def render(self) -> str:
        rows = artifact_tables(self)["version_distribution"]
        return (
            "Fig. 15 — distribution of skeleton versions chosen during tuning\n\n"
            + format_table(rows)
        )


def run(runner: Optional[ExperimentRunner] = None) -> Fig15Result:
    runner = runner or ExperimentRunner(quick=True)
    distributions: Dict[str, Dict[str, float]] = {}
    version_names: List[str] = []
    for setup, outcomes in run_cells(CAMPAIGN, runner):
        segmented = outcomes["recycle-dynamic"]
        version_names = list(segmented.version_names)
        distributions[setup.name] = {
            version_names[index]: fraction
            for index, fraction in segmented.version_distribution.items()
        }
    return Fig15Result(distributions=distributions, version_names=version_names)


# ---------------------------------------------------------------------------
# campaign registration (see repro.campaign)
# ---------------------------------------------------------------------------
from repro.campaign.spec import CampaignSpec, variants  # noqa: E402

CAMPAIGN = CampaignSpec(
    name="fig15",
    title="Fig. 15 — distribution of skeleton versions chosen",
    experiment=__name__,
    description="Per-workload fraction of execution run under each skeleton "
                "version during dynamic recycle tuning.",
    variants=variants(
        dict(name="recycle-dynamic", kind="segmented", dla_preset="r3",
             dynamic=True),
    ),
    max_cell_workloads_quick=5,
    tags=("paper", "recycle"),
)


def artifact_tables(result: Fig15Result) -> Dict[str, List[Dict[str, object]]]:
    rows: List[Dict[str, object]] = []
    for workload, dist in result.distributions.items():
        row: Dict[str, object] = {"workload": workload}
        for name in result.version_names:
            row[name] = dist.get(name, 0.0)
        rows.append(row)
    return {"version_distribution": rows}


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
