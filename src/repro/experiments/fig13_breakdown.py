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
from repro.dla.config import DlaConfig
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


def _fetch_buffer_study(runner: ExperimentRunner) -> List[Dict[str, object]]:
    bl_gains, dla_gains = [], []
    big_cfg = runner.system_config.with_overrides(fetch_buffer_entries=32)
    dla_config = DlaConfig().baseline_dla()
    fb_config = DlaConfig().with_optimizations(fetch_buffer=True)
    for setup in runner.setups():
        small = runner.baseline(setup, "bl")
        big = runner.baseline(setup, "bl-fb32", big_cfg)
        bl_gains.append(small.cycles / big.cycles)

        dla_small = runner.dla(setup, dla_config, "dla")
        dla_big = runner.dla(setup, fb_config, "dla-fb")
        dla_gains.append(dla_small.cycles / dla_big.cycles)
    return [
        {"configuration": "FB over BL", "geomean": geometric_mean(bl_gains),
         "min": min(bl_gains), "max": max(bl_gains)},
        {"configuration": "FB over DLA", "geomean": geometric_mean(dla_gains),
         "min": min(dla_gains), "max": max(dla_gains)},
    ]


def _recycle_study(runner: ExperimentRunner) -> List[Dict[str, object]]:
    dynamic_gains, static_gains = [], []
    base_config = DlaConfig().with_optimizations(t1=True, value_reuse=True,
                                                 fetch_buffer=True)
    config = DlaConfig().r3()
    for setup in runner.setups():
        base = runner.dla(setup, base_config, "r3-no-recycle")
        for dynamic, sink, label in ((False, static_gains, "recycle-static"),
                                     (True, dynamic_gains, "recycle-dynamic")):
            outcome = runner.dla_segmented(setup, config, dynamic=dynamic, label=label)
            sink.append(base.cycles / outcome.cycles)
    return [
        {"configuration": "Dynamic", "geomean": geometric_mean(dynamic_gains),
         "min": min(dynamic_gains), "max": max(dynamic_gains)},
        {"configuration": "Static", "geomean": geometric_mean(static_gains),
         "min": min(static_gains), "max": max(static_gains)},
    ]


_TECHNIQUES = {
    "AS": "t1",             # the paper labels T1 offloading "AS" in Fig. 13-c
    "VR": "value_reuse",
    "FB": "fetch_buffer",
}


def _synergy_study(runner: ExperimentRunner) -> List[Dict[str, object]]:
    rows = []
    all_flags = {v: True for v in _TECHNIQUES.values()}
    base_config = DlaConfig().baseline_dla()
    full_config = DlaConfig().with_optimizations(**all_flags)
    for label, flag in _TECHNIQUES.items():
        only_config = DlaConfig().with_optimizations(**{flag: True})
        others_config = DlaConfig().with_optimizations(**{**all_flags, flag: False})
        first_gains, last_gains = [], []
        for setup in runner.setups():
            base = runner.dla(setup, base_config, "dla")
            only = runner.dla(setup, only_config, f"dla-{flag}")
            first_gains.append(base.cycles / only.cycles)

            full = runner.dla(setup, full_config, "dla-all3")
            others = runner.dla(setup, others_config, f"dla-not-{flag}")
            last_gains.append(others.cycles / full.cycles)
        rows.append({
            "technique": label,
            "first": geometric_mean(first_gains),
            "last": geometric_mean(last_gains),
        })
    return rows


def run(runner: Optional[ExperimentRunner] = None,
        include_recycle: bool = True) -> Fig13Result:
    runner = runner or ExperimentRunner(quick=True)
    fetch_rows = _fetch_buffer_study(runner)
    recycle_rows = _recycle_study(runner) if include_recycle else []
    synergy_rows = _synergy_study(runner)
    return Fig13Result(
        fetch_buffer_rows=fetch_rows,
        recycle_rows=recycle_rows,
        synergy_rows=synergy_rows,
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
