"""Fig. 14 — theoretical vs simulated fetch-buffer queue-length distribution.

The Markov-chain model of Appendix B is validated against the occupancy
histogram collected by the timing model for the same workload and capacity.
Shape to reproduce: the two distributions follow the same general trend
(which is all the paper claims).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.reporting import format_table
from repro.experiments.parallel import run_cells
from repro.experiments.runner import ExperimentRunner

WORKLOAD = "sjeng"
CAPACITY = 32


@dataclass
class Fig14Result:
    theoretical: List[float]
    simulated: List[float]
    mean_absolute_error: float

    def render(self) -> str:
        rows = artifact_tables(self)["queue_distribution"]
        return (
            "Fig. 14 — queue-length distribution, model vs simulation\n\n"
            + format_table(rows)
            + f"\n\nmean absolute error = {self.mean_absolute_error:.4f}"
        )


def run(runner: Optional[ExperimentRunner] = None) -> Fig14Result:
    # The model needs numpy: import it here, not when the registry loads.
    from repro.dla.analytic import (
        FetchBufferModel,
        empirical_distributions,
        simulated_queue_distribution,
    )

    runner = runner or ExperimentRunner(quick=True)
    (setup, outcomes), = run_cells(CAMPAIGN, runner)
    simulated = simulated_queue_distribution(
        outcomes["bl-fb32"].core.fetch_queue_histogram, CAPACITY)

    # The analytic model is no cell (ROADMAP item 4): it computes here.
    sample = setup.timed_trace.window(0, 6000)
    distributions = empirical_distributions(sample, runner.system_config)
    model = FetchBufferModel(distributions.demand, distributions.supply)
    theoretical = list(model.steady_state(CAPACITY))

    error = sum(abs(t - s) for t, s in zip(theoretical, simulated)) / (CAPACITY + 1)
    return Fig14Result(theoretical=theoretical, simulated=simulated,
                       mean_absolute_error=error)


# ---------------------------------------------------------------------------
# campaign registration (see repro.campaign)
# ---------------------------------------------------------------------------
from repro.campaign.spec import CampaignSpec, variants  # noqa: E402

CAMPAIGN = CampaignSpec(
    name="fig14",
    title="Fig. 14 — fetch-buffer queue model vs simulation",
    experiment=__name__,
    description="Markov-chain queue-length distribution validated against "
                "the timing model's occupancy histogram.",
    workloads=(WORKLOAD,),
    variants=variants(
        dict(name="bl-fb32", kind="baseline",
             core_overrides={"fetch_buffer_entries": CAPACITY}),
    ),
    tags=("paper", "validation"),
)


def artifact_tables(result: Fig14Result) -> Dict[str, List[Dict[str, object]]]:
    distribution = [
        {
            "queue_length": i,
            "theoretical": result.theoretical[i],
            "simulated": result.simulated[i],
        }
        for i in range(len(result.theoretical))
    ]
    return {
        "queue_distribution": distribution,
        "summary": [{"mean_absolute_error": result.mean_absolute_error}],
    }


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
