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
from repro.core.system import simulate_baseline
from repro.dla.config import DlaConfig
from repro.dla.smt import comparison_from_outcomes, simulate_smt_pair, smt_configs
from repro.dla.system import DlaSystem
from repro.experiments.runner import ExperimentRunner
from repro.util.stats_math import geometric_mean


@dataclass
class Fig11Result:
    per_workload: Dict[str, Dict[str, float]]
    geomean: Dict[str, float]

    def render(self) -> str:
        rows: List[Dict[str, object]] = []
        for name, values in self.per_workload.items():
            row: Dict[str, object] = {"workload": name}
            row.update(values)
            rows.append(row)
        lines = ["Fig. 11 — throughput normalised to a half-core", ""]
        lines.append(format_table(rows))
        lines.append("")
        lines.append("geomean across workloads:")
        lines.append(format_bar_chart(self.geomean))
        return "\n".join(lines)


def run(runner: Optional[ExperimentRunner] = None,
        max_workloads: Optional[int] = None) -> Fig11Result:
    runner = runner or ExperimentRunner(quick=True)
    setups = runner.setups()
    if max_workloads is None:
        max_workloads = 4 if runner.quick else len(setups)
    per_workload: Dict[str, Dict[str, float]] = {}
    half_cfg, full_cfg = smt_configs(runner.system_config)
    dla_config = DlaConfig()
    for setup in setups[:max_workloads]:
        trace = setup.timed_trace
        # Every scenario goes through the runner's auxiliary cache (like
        # fig09's related approaches), so campaign reruns and resumes are
        # free instead of re-simulating the whole SMT matrix.
        half = runner.auxiliary(setup, "smt-hc", lambda: simulate_baseline(
            trace, half_cfg))
        full = runner.auxiliary(setup, "smt-fc", lambda: simulate_baseline(
            trace, full_cfg))
        dla = runner.auxiliary(setup, "smt-dla", lambda: DlaSystem(
            setup.program, half_cfg, dla_config.baseline_dla(),
            profile=setup.profile,
            builder=setup.skeleton_builder).simulate(trace))
        r3 = runner.auxiliary(setup, "smt-r3dla", lambda: DlaSystem(
            setup.program, half_cfg, dla_config.r3(),
            profile=setup.profile,
            builder=setup.skeleton_builder).simulate(trace))
        pair = runner.auxiliary(setup, "smt-pair", lambda: simulate_smt_pair(
            trace, full_cfg))
        comparison = comparison_from_outcomes(half, full, dla, r3, pair)
        per_workload[setup.name] = comparison.as_dict()
    geomean = {
        mode: geometric_mean([values[mode] for values in per_workload.values()])
        for mode in ("FC", "DLA", "R3-DLA", "SMT")
    }
    return Fig11Result(per_workload=per_workload, geomean=geomean)


# ---------------------------------------------------------------------------
# campaign registration (see repro.campaign)
# ---------------------------------------------------------------------------
from repro.campaign.spec import CampaignSpec  # noqa: E402

CAMPAIGN = CampaignSpec(
    name="fig11",
    title="Fig. 11 — R3-DLA on a wide SMT core",
    experiment=__name__,
    description="Full-core, DLA/R3-DLA across two half-cores, and two-copy "
                "SMT throughput, normalised to a single half-core.",
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
