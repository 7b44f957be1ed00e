"""Fig. 9 — overall performance of DLA and R3-DLA.

(a) Speedup of six configurations over the baseline-with-BOP:
    BL(noPF), BL, DLA(noPF), DLA, R3-DLA(noPF), R3-DLA — per suite geomean
    with min/max range.
(b) Comparison with related approaches: B-Fetch, SlipStream, CRE, DLA,
    R3-DLA (suite-wide geomean).

Shapes to reproduce: R3-DLA > DLA > BL everywhere; removing the hardware
prefetcher hurts the baseline far more than it hurts the DLA variants; the
related approaches land between the baseline and full R3-DLA.
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
class Fig09Result:
    table: SpeedupTable
    related: SpeedupTable

    def render(self) -> str:
        lines = ["Fig. 9-a — speedup over baseline with BOP", ""]
        lines.append(format_table(self.table.summary_rows(list(SUITES))))
        lines.append("")
        lines.append("Fig. 9-b — related approaches (suite-wide geomean)")
        lines.append(format_table(self.related.summary_rows([])))
        return "\n".join(lines)


def run(runner: Optional[ExperimentRunner] = None) -> Fig09Result:
    runner = runner or ExperimentRunner(quick=True)
    table = SpeedupTable()
    related = SpeedupTable()

    for setup, outcomes in run_cells(CAMPAIGN, runner):
        ref_cycles = outcomes["bl"].cycles
        bl_nopf = outcomes["bl-nopf"]
        dla = outcomes["dla"]
        dla_nopf = outcomes["dla-nopf"]
        r3 = outcomes["r3"]
        r3_nopf = outcomes["r3-nopf"]

        table.record("BL (noPF)", setup.name, ref_cycles / bl_nopf.cycles, setup.suite)
        table.record("BL", setup.name, 1.0, setup.suite)
        table.record("DLA (noPF)", setup.name, ref_cycles / dla_nopf.cycles, setup.suite)
        table.record("DLA", setup.name, ref_cycles / dla.cycles, setup.suite)
        table.record("R3-DLA (noPF)", setup.name, ref_cycles / r3_nopf.cycles, setup.suite)
        table.record("R3-DLA", setup.name, ref_cycles / r3.cycles, setup.suite)

        # No variant plans the related approaches (ROADMAP item 4): one would
        # change this spec's fingerprint, which perfbench pins.
        bfetch = runner.auxiliary(setup, "bfetch")
        slip = runner.auxiliary(setup, "slipstream")
        cre = runner.auxiliary(setup, "cre")
        related.record("B-Fetch", setup.name, ref_cycles / bfetch.cycles, setup.suite)
        related.record("S-Stream", setup.name, ref_cycles / slip.cycles, setup.suite)
        related.record("CRE", setup.name, ref_cycles / cre.cycles, setup.suite)
        related.record("DLA", setup.name, ref_cycles / dla.cycles, setup.suite)
        related.record("R3-DLA", setup.name, ref_cycles / r3.cycles, setup.suite)

    return Fig09Result(table=table, related=related)


# ---------------------------------------------------------------------------
# campaign registration (see repro.campaign)
# ---------------------------------------------------------------------------
from repro.campaign.spec import CampaignSpec, variants  # noqa: E402

CAMPAIGN = CampaignSpec(
    name="fig09",
    title="Fig. 9 — overall performance of DLA and R3-DLA",
    experiment=__name__,
    description="Speedup of {BL, DLA, R3-DLA} x {BOP, noPF} over the "
                "baseline-with-BOP, plus related approaches.",
    variants=variants(
        dict(name="bl", kind="baseline"),
        dict(name="bl-nopf", kind="baseline", prefetch="none"),
        dict(name="dla", kind="dla", dla_preset="dla"),
        dict(name="dla-nopf", kind="dla", dla_preset="dla", prefetch="none"),
        dict(name="r3", kind="dla", dla_preset="r3"),
        dict(name="r3-nopf", kind="dla", dla_preset="r3", prefetch="none"),
    ),
    tags=("paper", "headline"),
)


def artifact_tables(result: Fig09Result) -> Dict[str, List[Dict[str, object]]]:
    return {
        "speedup": result.table.summary_rows(list(SUITES)),
        "related": result.related.summary_rows([]),
    }


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
