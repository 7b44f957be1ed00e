"""Fig. 11 — R3-DLA on a wide SMT core.

For each workload, compare four ways of spending one wide SMT core:
full-core single thread (FC), DLA across two half-cores, R3-DLA across two
half-cores, and two-copy SMT throughput — all normalised to a single
half-core.  Shape to reproduce: the wide core alone gives a modest average
gain, DLA is sometimes better and sometimes worse, R3-DLA beats both on
average, and two-copy SMT throughput tops the chart (it is a throughput
number, not single-thread performance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.reporting import format_bar_chart, format_table
from repro.dla.smt import comparison_from_outcomes
from repro.experiments.parallel import run_cells
from repro.experiments.runner import ExperimentRunner
from repro.util.stats_math import geometric_mean


@dataclass
class Fig11Result:
    per_workload: Dict[str, Dict[str, float]]
    geomean: Dict[str, float]

    def render(self) -> str:
        lines = ["Fig. 11 — throughput normalised to a half-core", ""]
        lines.append(format_table(artifact_tables(self)["throughput"]))
        lines.append("")
        lines.append("geomean across workloads:")
        lines.append(format_bar_chart(self.geomean))
        return "\n".join(lines)


def run(runner: Optional[ExperimentRunner] = None) -> Fig11Result:
    runner = runner or ExperimentRunner(quick=True)
    per_workload: Dict[str, Dict[str, float]] = {}
    for setup, outcomes in run_cells(CAMPAIGN, runner):
        comparison = comparison_from_outcomes(
            outcomes["smt-hc"], outcomes["smt-fc"], outcomes["smt-dla"],
            outcomes["smt-r3dla"], outcomes["smt-pair"])
        per_workload[setup.name] = comparison.as_dict()
    geomean = {
        mode: geometric_mean([values[mode] for values in per_workload.values()])
        for mode in ("FC", "DLA", "R3-DLA", "SMT")
    }
    return Fig11Result(per_workload=per_workload, geomean=geomean)


# ---------------------------------------------------------------------------
# campaign registration (see repro.campaign)
# ---------------------------------------------------------------------------
from repro.campaign.spec import CampaignSpec, variants  # noqa: E402

CAMPAIGN = CampaignSpec(
    name="fig11",
    title="Fig. 11 — R3-DLA on a wide SMT core",
    experiment=__name__,
    description="Full-core, DLA/R3-DLA across two half-cores, and two-copy "
                "SMT throughput, normalised to a single half-core.",
    variants=variants(*(dict(name=kind, kind=kind) for kind in (
        "smt-hc", "smt-fc", "smt-dla", "smt-r3dla", "smt-pair"))),
    max_cell_workloads_quick=4,
    tags=("paper", "smt"),
)


def artifact_tables(result: Fig11Result) -> Dict[str, List[Dict[str, object]]]:
    throughput = [
        {"workload": name, **values}
        for name, values in result.per_workload.items()
    ]
    geomean = [{"mode": mode, "value": value} for mode, value in result.geomean.items()]
    return {"throughput": throughput, "geomean": geomean}


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
