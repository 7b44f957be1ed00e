"""Fig. 13 — individual optimizations and their synergy.

(a) A fetch buffer added to the baseline vs added to DLA: BOQ-driven fetch
    makes the larger buffer far more useful (and never harmful).
(b) Skeleton recycling with dynamic (on-line) vs static (off-line) tuning:
    both help; static tuning is consistently at least as good because it
    never pays for trying suboptimal versions.
(c) Each technique applied *first* (on top of baseline DLA) vs applied
    *last* (added to a system that already has the other techniques): the
    last-applied increment is larger, demonstrating the synergy argument of
    Sec. IV-C4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.reporting import format_table
from repro.experiments.parallel import run_cells
from repro.experiments.runner import ExperimentRunner
from repro.util.stats_math import geometric_mean


@dataclass
class Fig13Result:
    fetch_buffer_rows: List[Dict[str, object]]
    recycle_rows: List[Dict[str, object]]
    synergy_rows: List[Dict[str, object]]

    def render(self) -> str:
        lines = ["Fig. 13-a — fetch buffer over BL vs over DLA", ""]
        lines.append(format_table(self.fetch_buffer_rows))
        lines.append("")
        lines.append("Fig. 13-b — dynamic vs static recycle tuning")
        lines.append(format_table(self.recycle_rows))
        lines.append("")
        lines.append("Fig. 13-c — technique applied first vs last")
        lines.append(format_table(self.synergy_rows))
        return "\n".join(lines)


def _gains(cells, before: str, after: str) -> List[float]:
    """Per workload, the cycles of variant ``before`` over those of ``after``."""
    return [outcomes[before].cycles / outcomes[after].cycles
            for _setup, outcomes in cells]


def _gain_row(configuration: str, gains: List[float]) -> Dict[str, object]:
    return {"configuration": configuration, "geomean": geometric_mean(gains),
            "min": min(gains), "max": max(gains)}


#: Fig. 13-c: technique, the DLA variant applying it alone ("first"), and
#: the one applying the other two (it is applied "last" on top of that,
#: giving ``r3-no-recycle``).  The paper labels T1 offloading "AS".
_TECHNIQUES = (
    ("AS", "dla-t1", "dla-vr-fb"),
    ("VR", "dla-vr", "dla-t1-fb"),
    ("FB", "dla-fb", "dla-t1-vr"),
)


def run(runner: Optional[ExperimentRunner] = None) -> Fig13Result:
    cells = run_cells(CAMPAIGN, runner or ExperimentRunner(quick=True))
    return Fig13Result(
        fetch_buffer_rows=[
            _gain_row("FB over BL", _gains(cells, "bl", "bl-fb32")),
            _gain_row("FB over DLA", _gains(cells, "dla", "dla-fb")),
        ],
        recycle_rows=[
            _gain_row("Dynamic", _gains(cells, "r3-no-recycle", "recycle-dynamic")),
            _gain_row("Static", _gains(cells, "r3-no-recycle", "recycle-static")),
        ],
        synergy_rows=[
            {"technique": label,
             "first": geometric_mean(_gains(cells, "dla", alone)),
             "last": geometric_mean(_gains(cells, others, "r3-no-recycle"))}
            for label, alone, others in _TECHNIQUES
        ],
    )


# ---------------------------------------------------------------------------
# campaign registration (see repro.campaign)
# ---------------------------------------------------------------------------
from repro.campaign.spec import CampaignSpec, variants  # noqa: E402

CAMPAIGN = CampaignSpec(
    name="fig13",
    title="Fig. 13 — individual optimizations and their synergy",
    experiment=__name__,
    description="Fetch buffer over BL vs DLA, dynamic vs static recycle "
                "tuning, and each technique applied first vs last.",
    variants=variants(
        dict(name="bl", kind="baseline"),
        dict(name="bl-fb32", kind="baseline",
             core_overrides={"fetch_buffer_entries": 32}),
        dict(name="dla", kind="dla", dla_preset="dla"),
        dict(name="dla-fb", kind="dla", dla_optimizations={"fetch_buffer": True}),
        dict(name="dla-t1", kind="dla", dla_optimizations={"t1": True}),
        dict(name="dla-vr", kind="dla", dla_optimizations={"value_reuse": True}),
        dict(name="dla-t1-vr", kind="dla",
             dla_optimizations={"t1": True, "value_reuse": True}),
        dict(name="dla-t1-fb", kind="dla",
             dla_optimizations={"t1": True, "fetch_buffer": True}),
        dict(name="dla-vr-fb", kind="dla",
             dla_optimizations={"value_reuse": True, "fetch_buffer": True}),
        dict(name="r3-no-recycle", kind="dla",
             dla_optimizations={"t1": True, "value_reuse": True,
                                "fetch_buffer": True}),
        dict(name="recycle-static", kind="segmented", dla_preset="r3"),
        dict(name="recycle-dynamic", kind="segmented", dla_preset="r3",
             dynamic=True),
    ),
    tags=("paper", "ablation", "recycle"),
)


def artifact_tables(result: Fig13Result) -> Dict[str, List[Dict[str, object]]]:
    return {
        "fetch_buffer": result.fetch_buffer_rows,
        "recycle": result.recycle_rows,
        "synergy": result.synergy_rows,
    }


def main() -> None:  # pragma: no cover
    print(run().render())


if __name__ == "__main__":  # pragma: no cover
    main()
