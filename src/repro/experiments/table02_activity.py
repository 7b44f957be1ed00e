"""Table II — activity, energy and power of the two threads.

For DLA and R3-DLA, report the look-ahead thread's and main thread's decode
(D), execute (X) and commit (C) activity, dynamic energy, dynamic power,
static power and total power, all normalised to the baseline core running the
same workload.  Shapes to reproduce: the look-ahead thread decodes/executes
roughly a third to a half of the baseline's instructions (less under R3-DLA
than DLA thanks to T1), its dynamic power is well below the baseline's, and
the main thread's activity is slightly below baseline (fewer wrong-path
instructions) while its power is comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.reporting import format_table
from repro.dla.config import DlaConfig
from repro.experiments.runner import ExperimentRunner
from repro.util.stats_math import geometric_mean


@dataclass
class Table02Result:
    rows: List[Dict[str, object]]

    def render(self) -> str:
        return "Table II — activity / energy / power normalised to baseline\n\n" + format_table(
            self.rows
        )


def _thread_row(label: str, thread_result, thread_energy, baseline, baseline_energy) -> Dict[str, object]:
    return {
        "config": label,
        "D": thread_result.decoded / max(1, baseline.core.decoded),
        "X": thread_result.executed / max(1, baseline.core.executed),
        "C": thread_result.committed / max(1, baseline.core.committed),
        "dyn_energy": thread_energy.dynamic / max(1e-9, baseline_energy.dynamic),
        "dyn_power": thread_energy.dynamic_power / max(1e-9, baseline_energy.dynamic_power),
        "static_power": thread_energy.static_power / max(1e-9, baseline_energy.static_power),
        "power": thread_energy.total_power / max(1e-9, baseline_energy.total_power),
    }


def run(runner: Optional[ExperimentRunner] = None) -> Table02Result:
    runner = runner or ExperimentRunner(quick=True)
    accumulators: Dict[str, List[Dict[str, float]]] = {}
    for setup in runner.setups():
        baseline = runner.baseline(setup, "bl")
        baseline_energy = baseline.energy
        for config_label, dla_config in (
            ("DLA", DlaConfig().baseline_dla()),
            ("R3-DLA", DlaConfig().r3()),
        ):
            outcome = runner.dla(setup, dla_config, config_label.lower())
            for thread_label, result, energy in (
                ("LT", outcome.lookahead, outcome.lookahead_energy),
                ("MT", outcome.main, outcome.main_energy),
            ):
                row = _thread_row(f"{config_label} {thread_label}", result, energy,
                                  baseline, baseline_energy)
                accumulators.setdefault(row["config"], []).append(
                    {k: v for k, v in row.items() if k != "config"}
                )

    rows: List[Dict[str, object]] = []
    for config_label, samples in accumulators.items():
        averaged: Dict[str, object] = {"config": config_label}
        for key in samples[0]:
            values = [max(1e-9, sample[key]) for sample in samples]
            averaged[key] = geometric_mean(values)
        rows.append(averaged)
    return Table02Result(rows=rows)


# ---------------------------------------------------------------------------
# campaign registration (see repro.campaign)
# ---------------------------------------------------------------------------
from repro.campaign.spec import CampaignSpec, variants  # noqa: E402

CAMPAIGN = CampaignSpec(
    name="table02",
    title="Table II — activity, energy and power of the two threads",
    experiment=__name__,
    description="Decode/execute/commit activity and power of the look-ahead "
                "and main threads, normalised to the baseline core.",
    variants=variants(
        dict(name="bl", kind="baseline"),
        dict(name="dla", kind="dla", dla_preset="dla"),
        dict(name="r3", kind="dla", dla_preset="r3"),
    ),
    tags=("paper", "energy"),
)


def artifact_tables(result: Table02Result) -> Dict[str, List[Dict[str, object]]]:
    return {"activity": result.rows}


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
