"""Fig. 1 — implicit parallelism of integer applications.

For each SPEC-like integer workload, measure the dataflow-limit IPC with
moving windows of 128/512/2048 instructions under ideal and realistic
instruction/data supply.  The paper's observation to reproduce: with a
realistic supply subsystem the exploitable parallelism drops by roughly 5x
on average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.reporting import format_table
from repro.experiments.parallel import run_cells
from repro.experiments.runner import ExperimentRunner
from repro.util.stats_math import geometric_mean

#: The moving windows of the ``ilp`` cells (``measure_implicit_parallelism``'s).
WINDOWS = (128, 512, 2048)


@dataclass
class Fig01Result:
    rows: List[Dict[str, object]]
    geomean_ratio: Dict[int, float]

    def render(self) -> str:
        lines = ["Fig. 1 — implicit parallelism (IPC), ideal vs real supply", ""]
        lines.append(format_table(self.rows))
        lines.append("")
        for window in WINDOWS:
            lines.append(
                f"window {window}: ideal/real parallelism ratio (geomean) = "
                f"{self.geomean_ratio[window]:.1f}x"
            )
        return "\n".join(lines)


def run(runner: Optional[ExperimentRunner] = None) -> Fig01Result:
    runner = runner or ExperimentRunner(quick=True)
    rows: List[Dict[str, object]] = []
    ratios: Dict[int, List[float]] = {w: [] for w in WINDOWS}
    for setup, outcomes in run_cells(CAMPAIGN, runner):
        result = outcomes["ilp"]
        row: Dict[str, object] = {"workload": setup.name}
        for window in WINDOWS:
            row[f"ideal:{window}"] = result.ideal[window]
            row[f"real:{window}"] = result.real[window]
            ratios[window].append(result.ratio(window))
        rows.append(row)
    geomean_ratio = {w: geometric_mean(v) for w, v in ratios.items()}
    return Fig01Result(rows=rows, geomean_ratio=geomean_ratio)


# ---------------------------------------------------------------------------
# campaign registration (see repro.campaign)
# ---------------------------------------------------------------------------
from repro.campaign.spec import CampaignSpec, variants  # noqa: E402

CAMPAIGN = CampaignSpec(
    name="fig01",
    title="Fig. 1 — implicit parallelism, ideal vs real supply",
    experiment=__name__,
    description="Dataflow-limit IPC with 128/512/2048-instruction windows "
                "under ideal and realistic instruction/data supply.",
    # The integer applications shown in Fig. 1 (our analogues).
    workloads=("suite:spec2k6",),
    variants=variants(dict(name="ilp", kind="ilp")),
    max_cell_workloads_quick=4,
    tags=("paper", "analysis"),
)


def artifact_tables(result: Fig01Result) -> Dict[str, List[Dict[str, object]]]:
    return {
        "parallelism": result.rows,
        "ratio_geomean": [
            {"window": window, "ideal_over_real": result.geomean_ratio[window]}
            for window in WINDOWS
        ],
    }


def main() -> None:  # pragma: no cover - console entry point
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
