"""Each planned cell is keyed once per pass.

A campaign keys every cell when it plans it, and the key travels with the
cell through screening, execution and assembly: assembly reads the
runner's plan instead of planning (and keying) again.  A scheduler that
reorders its cells for execution, as a benchmark harness shuffling them
does, changes neither the key count nor the rendered artifacts, because
assembly reads the plan in plan order.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from pathlib import Path

import pytest

from repro.campaign import render
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.store import CampaignStore
from repro.experiments import fig09_speedup
from repro.experiments.runner import ExperimentRunner

#: fig09 on two workloads: six planned variants each, plus the three
#: related approaches its assembly runs per workload through ``auxiliary``.
SPEC = replace(fig09_speedup.CAMPAIGN, workloads=("mcf", "sjeng"),
               warmup_instructions=600, timed_instructions=600)


class _ReversedScheduler(CampaignScheduler):
    """The campaign scheduler executing its cells in reverse plan order."""

    def cells(self):
        return super().cells()[::-1]


@pytest.fixture()
def counts(monkeypatch):
    """Calls of the runner's two key functions, and of ``auxiliary``."""
    counts = {"keys": 0, "auxiliary": 0}

    def counted(name, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for attr in ("workload_key", "segmented_key_for"):
        monkeypatch.setattr(ExperimentRunner, attr,
                            counted("keys", vars(ExperimentRunner)[attr]))
    monkeypatch.setattr(ExperimentRunner, "auxiliary",
                        counted("auxiliary", ExperimentRunner.auxiliary))
    return counts


def _pass(cls, cache: Path, out: Path, monkeypatch, counts) -> dict:
    """One campaign run plus render on cache root ``cache``; returns the
    pass's key and auxiliary counts and its planned-cell counts."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    counts.update(keys=0, auxiliary=0)
    scheduler = cls(SPEC, store=CampaignStore(SPEC.name, cache / "campaigns"),
                    processes=1)
    scheduler.run()
    render.render_campaign(SPEC.name, store=scheduler.store, out_dir=str(out))
    seen = dict(counts)
    seen.update(planned=len(scheduler.cells()),
                distinct=len(scheduler.keyed_cells()))
    return seen


def _tree(root: Path) -> dict:
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_each_planned_cell_is_keyed_once_per_pass(tmp_path, monkeypatch,
                                                  counts):
    plain = _pass(CampaignScheduler, tmp_path / "plain",
                  tmp_path / "plain-out", monkeypatch, counts)
    cold = _pass(_ReversedScheduler, tmp_path / "reversed",
                 tmp_path / "cold-out", monkeypatch, counts)
    resumed = _pass(_ReversedScheduler, tmp_path / "reversed",
                    tmp_path / "resumed-out", monkeypatch, counts)

    for seen in (plain, cold, resumed):
        assert seen["planned"] == seen["distinct"] == 12
        assert seen["auxiliary"] == 6
        assert seen["keys"] == seen["distinct"] + seen["auxiliary"]
    expected = _tree(tmp_path / "plain-out")
    assert expected
    assert _tree(tmp_path / "cold-out") == expected
    assert _tree(tmp_path / "resumed-out") == expected
