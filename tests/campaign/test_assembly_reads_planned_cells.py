"""Assembly reads only planned cells.

Every figure module declares its configurations once, as its ``CAMPAIGN``
variants, and assembles from those cells by variant name.  So once a
campaign's cells are done, its assembly (the "assembled in" progress line,
which reports the runner-stats delta of the assembly alone) simulates
nothing.  A module that spelled a configuration its ``CAMPAIGN`` does not
plan would simulate it there, and fail this test.
"""

from __future__ import annotations

import importlib
import re

import pytest

from repro.campaign.registry import BUILTIN_EXPERIMENT_MODULES
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore

WINDOW = dict(warmup_instructions=1500, timed_instructions=1500)
WORKLOAD = "mcf"

#: Simulations per workload that assembly still runs because no variant
#: plans them: fig09's B-Fetch, SlipStream and CRE comparisons and fig11's
#: five SMT scenarios.  ROADMAP item 4 turns both into cells.
UNPLANNED_PER_WORKLOAD = {"fig09": 3, "fig11": 5}


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    """One disk cache for every campaign: their cells overlap."""
    return tmp_path_factory.mktemp("assembly")


@pytest.mark.parametrize("module_path", BUILTIN_EXPERIMENT_MODULES)
def test_assembly_simulates_no_planned_cell(module_path, shared_cache,
                                            monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(shared_cache / "cache"))
    spec = importlib.import_module(module_path).CAMPAIGN
    # A campaign that pins its workloads (fig14) keeps them.
    workloads = list(spec.workloads or (WORKLOAD,))
    narrowed = CampaignSpec.from_dict(
        {**spec.to_dict(), "workloads": workloads, **WINDOW})
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
