"""Assembly reads only planned cells.

Every figure module declares its configurations once, as its ``CAMPAIGN``
variants, and assembles from those cells by variant name.  So once a
campaign's cells are done, its assembly (the "assembled in" progress line,
which reports the runner-stats delta of the assembly alone) simulates
nothing.  A module that spelled a configuration its ``CAMPAIGN`` does not
plan would simulate it there, and fail this test.  Work that never passes
through the runner's cache does not show in that count, so assembly's core
runs and ILP passes are counted too (outside setup materialisation, whose
profiling pass runs a core of its own).
"""

from __future__ import annotations

import functools
import importlib
import re
import sys

import pytest

from repro.analysis import ilp
from repro.campaign.registry import BUILTIN_EXPERIMENT_MODULES
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.core.pipeline import OutOfOrderCore
from repro.experiments.runner import ExperimentRunner

WINDOW = dict(warmup_instructions=1500, timed_instructions=1500)
WORKLOAD = "mcf"

#: Simulations per workload that assembly still runs because no variant
#: plans them: fig09's B-Fetch, SlipStream and CRE comparisons (ROADMAP
#: item 4).  Their core runs are not counted.
UNPLANNED_PER_WORKLOAD = {"fig09": 3}

#: Core runs of the analytic fetch-buffer model of fig05 and fig14:
#: ``dla.analytic.empirical_distributions`` measures the model's demand and
#: supply distributions with three core runs, an input of the model, not a
#: cell.
ANALYTIC_CORE_RUNS = {"fig05": 3, "fig14": 3}


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    """One disk cache for every campaign: their cells overlap."""
    return tmp_path_factory.mktemp("assembly")


def _count_during_assembly(monkeypatch, module) -> dict:
    """Count ``OutOfOrderCore.run`` and ``measure_implicit_parallelism``
    calls made while ``module.run`` (the assembly) is on the stack and
    ``ExperimentRunner.setup`` is not."""
    counts = {"core runs": 0, "ILP passes": 0}
    counting = []

    def counted(name, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if counting and counting[-1]:
                counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    def scoped(function, active):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            counting.append(active)
            try:
                return function(*args, **kwargs)
            finally:
                counting.pop()
        return wrapper

    monkeypatch.setattr(OutOfOrderCore, "run",
                        counted("core runs", OutOfOrderCore.run))
    measure = ilp.measure_implicit_parallelism
    for name, loaded in list(sys.modules.items()):
        if (name.split(".")[0] == "repro"
                and getattr(loaded, "measure_implicit_parallelism", None) is measure):
            monkeypatch.setattr(loaded, "measure_implicit_parallelism",
                                counted("ILP passes", measure))
    monkeypatch.setattr(module, "run", scoped(module.run, True))
    monkeypatch.setattr(ExperimentRunner, "setup",
                        scoped(ExperimentRunner.setup, False))
    return counts


@pytest.mark.parametrize("module_path", BUILTIN_EXPERIMENT_MODULES)
def test_assembly_simulates_no_planned_cell(module_path, shared_cache,
                                            monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(shared_cache / "cache"))
    module = importlib.import_module(module_path)
    spec = module.CAMPAIGN
    # A campaign that pins its workloads (fig01, fig14) keeps them.
    workloads = list(spec.workloads or (WORKLOAD,))
    narrowed = CampaignSpec.from_dict(
        {**spec.to_dict(), "workloads": workloads, **WINDOW})
    counts = _count_during_assembly(monkeypatch, module)
    lines = []
    CampaignScheduler(
        narrowed, processes=1, progress=lines.append,
        store=CampaignStore(spec.name, shared_cache / "campaigns"),
    ).run()
    assembled = [line for line in lines if " assembled in " in line]
    assert len(assembled) == 1, lines
    simulations = int(re.search(r"\((\d+) simulations", assembled[0]).group(1))
    expected = UNPLANNED_PER_WORKLOAD.get(spec.name, 0) * len(workloads)
    assert simulations == expected, assembled[0]
    if spec.name not in UNPLANNED_PER_WORKLOAD:
        assert counts == {"core runs": ANALYTIC_CORE_RUNS.get(spec.name, 0),
                          "ILP passes": 0}
