"""Fig. 10 — CPU and DRAM energy of DLA and R3-DLA, normalised to baseline.

Shapes to reproduce: the two-thread system costs extra CPU energy (the paper
reports ~1.1x geomean for R3-DLA, less than DLA's overhead because the
skeleton is leaner), while DRAM energy *drops* below baseline (~0.9x) because
the shorter run time cuts background energy and wrong-path traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.reporting import format_table
from repro.experiments.parallel import run_cells
from repro.experiments.runner import ExperimentRunner
from repro.util.stats_math import geometric_mean
from repro.workloads.suites import SUITES


@dataclass
class Fig10Result:
    rows: List[Dict[str, object]]
    per_workload: Dict[str, Dict[str, float]]

    def render(self) -> str:
        return "Fig. 10 — energy normalised to baseline (geomean per suite)\n\n" + format_table(
            self.rows
        )


def run(runner: Optional[ExperimentRunner] = None) -> Fig10Result:
    runner = runner or ExperimentRunner(quick=True)
    per_workload: Dict[str, Dict[str, float]] = {}
    suite_of: Dict[str, str] = {}
    for setup, outcomes in run_cells(CAMPAIGN, runner):
        baseline = outcomes["bl"]
        base_cpu = baseline.energy.total
        base_dram = baseline.dram_energy
        dla = outcomes["dla"]
        r3 = outcomes["r3"]
        per_workload[setup.name] = {
            "DLA cpu": dla.cpu_energy / max(1e-9, base_cpu),
            "R3-DLA cpu": r3.cpu_energy / max(1e-9, base_cpu),
            "DLA dram": dla.dram_energy / max(1e-9, base_dram),
            "R3-DLA dram": r3.dram_energy / max(1e-9, base_dram),
        }
        suite_of[setup.name] = setup.suite

    rows: List[Dict[str, object]] = []
    suites_present = [s for s in SUITES if any(v == s for v in suite_of.values())]
    for suite in suites_present + [None]:
        names = [n for n in per_workload if suite is None or suite_of[n] == suite]
        if not names:
            continue
        row: Dict[str, object] = {"suite": suite or "all"}
        for metric in ("DLA cpu", "R3-DLA cpu", "DLA dram", "R3-DLA dram"):
            row[metric] = geometric_mean([per_workload[n][metric] for n in names])
        rows.append(row)
    return Fig10Result(rows=rows, per_workload=per_workload)


# ---------------------------------------------------------------------------
# campaign registration (see repro.campaign)
# ---------------------------------------------------------------------------
from repro.campaign.spec import CampaignSpec, variants  # noqa: E402

CAMPAIGN = CampaignSpec(
    name="fig10",
    title="Fig. 10 — CPU and DRAM energy normalised to baseline",
    experiment=__name__,
    description="Two-thread CPU energy overhead and DRAM energy savings of "
                "DLA and R3-DLA.",
    variants=variants(
        dict(name="bl", kind="baseline"),
        dict(name="dla", kind="dla", dla_preset="dla"),
        dict(name="r3", kind="dla", dla_preset="r3"),
    ),
    tags=("paper", "energy"),
)


def artifact_tables(result: Fig10Result) -> Dict[str, List[Dict[str, object]]]:
    per_workload = [
        {"workload": name, **values}
        for name, values in result.per_workload.items()
    ]
    return {"energy_summary": result.rows, "energy_per_workload": per_workload}


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
