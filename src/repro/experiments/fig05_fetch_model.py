"""Fig. 5 — analytic fetch-buffer model.

(a) The steady-state queue-length distribution for capacities 8 and 32 under
    an I-cache and a trace-cache supply distribution;
(b) the expected number of fetch bubbles as the capacity grows.

The paper derives both from the Markov-chain model of Appendix B with
empirically measured demand/supply distributions (povray in the paper; the
most front-end-sensitive of our workloads here).  The shape to reproduce:
larger capacity sharply reduces the probability of an empty queue and drives
expected bubbles from >1 towards a small fraction, while the trace cache adds
little once the buffer is large.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.reporting import format_table
from repro.experiments.runner import ExperimentRunner

CAPACITIES = (8, 12, 16, 20, 24, 28, 32)
#: The workload standing in for povray (front-end heavy, branchy).
DEFAULT_WORKLOAD = "sjeng"


@dataclass
class Fig05Result:
    queue_distributions: Dict[str, List[float]]
    bubble_curves: Dict[str, Dict[int, float]]

    def render(self) -> str:
        tables = artifact_tables(self)
        lines = ["Fig. 5 — fetch buffer analytic model", ""]
        lines.append("(a) steady-state queue length distribution")
        lines.append(format_table(tables["queue_distribution"]))
        lines.append("")
        lines.append("(b) expected fetch bubbles vs capacity")
        lines.append(format_table(tables["bubbles"]))
        return "\n".join(lines)


def run(runner: Optional[ExperimentRunner] = None,
        workload: str = DEFAULT_WORKLOAD) -> Fig05Result:
    # The model needs numpy: import it here, not when the registry loads.
    from repro.dla.analytic import FetchBufferModel, empirical_distributions

    runner = runner or ExperimentRunner(quick=True)
    setup = runner.setup(workload)
    sample = setup.timed_trace.window(0, 6000)
    distributions = empirical_distributions(sample, runner.system_config)

    icache_model = FetchBufferModel(distributions.demand, distributions.supply)
    trace_model = FetchBufferModel(distributions.demand, distributions.trace_cache_supply)

    queue_distributions = {
        "icache_cap8": list(icache_model.steady_state(8)),
        "icache_cap32": list(icache_model.steady_state(32)),
        "trace_cap8": list(trace_model.steady_state(8)),
        "trace_cap32": list(trace_model.steady_state(32)),
    }
    bubble_curves = {
        "icache": icache_model.bubble_curve(CAPACITIES),
        "trace_cache": trace_model.bubble_curve(CAPACITIES),
    }
    return Fig05Result(queue_distributions=queue_distributions, bubble_curves=bubble_curves)


# ---------------------------------------------------------------------------
# campaign registration (see repro.campaign)
# ---------------------------------------------------------------------------
from repro.campaign.spec import CampaignSpec  # noqa: E402

CAMPAIGN = CampaignSpec(
    name="fig05",
    title="Fig. 5 — analytic fetch-buffer model",
    experiment=__name__,
    description="Markov-chain queue-length distributions and expected fetch "
                "bubbles vs capacity (I-cache vs trace-cache supply).",
    workloads=(DEFAULT_WORKLOAD,),
    tags=("paper", "analysis"),
)


def artifact_tables(result: Fig05Result) -> Dict[str, List[Dict[str, object]]]:
    length = max(len(d) for d in result.queue_distributions.values())
    queue_rows: List[Dict[str, object]] = []
    for i in range(length):
        row: Dict[str, object] = {"queue_length": i}
        for label, dist in result.queue_distributions.items():
            row[label] = dist[i] if i < len(dist) else 0.0
        queue_rows.append(row)
    bubble_rows: List[Dict[str, object]] = []
    for capacity in CAPACITIES:
        row = {"capacity": capacity}
        for label, curve in result.bubble_curves.items():
            row[label] = curve[capacity]
        bubble_rows.append(row)
    return {"queue_distribution": queue_rows, "bubbles": bubble_rows}


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
