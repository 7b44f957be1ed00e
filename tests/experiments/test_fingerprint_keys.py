"""Pinned content keys: a key that drifts orphans every cached result.

The hex values below are unsalted content keys (``fingerprint``, before
``code_salt`` is folded in) computed by the simulator before its config
classes were frozen and their canonical text memoised.  A change that
moves any of them changes what every cache slot is called, so it must be
a deliberate one that updates this file.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.store import CampaignStore
from repro.dla.config import DlaConfig
from repro.experiments import fig09_speedup, memsys_sweep
from repro.experiments.runner import ExperimentRunner
from repro.workloads.suites import get_workload

WINDOW = dict(warmup_instructions=1500, timed_instructions=1500)


@pytest.fixture(scope="module")
def runner() -> ExperimentRunner:
    return ExperimentRunner(quick=True, workload_names=["mcf"],
                            disk_cache=False, **WINDOW)


def test_workload_keys_are_pinned(runner):
    mcf = get_workload("mcf")
    assert runner.workload_key(mcf, "baseline") == "a8526855ad65ef5674523226"
    assert (runner.workload_key(mcf, "dla", None, DlaConfig().r3())
            == "0546d1030ffdfbb1c87ee792")
    assert (runner.segmented_key_for(mcf, DlaConfig().r3(), False)
            == "ca7d9587375a926c3ff816b2")
    assert runner.workload_key(mcf, "aux-bfetch") == "80a33c77f3417b2a0ce8d9a3"
    assert runner.setup_key(mcf) == "303afe97f2645a5b55562c8d"


def test_full_mode_segmented_key_is_pinned():
    full = ExperimentRunner(quick=False, workload_names=["mcf"],
                            disk_cache=False, **WINDOW)
    assert (full.segmented_key_for(get_workload("mcf"), DlaConfig().r3(), True)
            == "02c9c7fa1ad3314790f1d4f5")


def test_memsys_variant_key_is_pinned(runner):
    variant = next(v for v in memsys_sweep.CAMPAIGN.variants
                   if v.name == "bl-contended")
    config = variant.system_config(runner.system_config)
    assert (runner.workload_key(get_workload("mcf"), "baseline", config)
            == "45e3b676c6d70255c574838b")


def test_fig09_campaign_keys_are_pinned(tmp_path):
    scheduler = CampaignScheduler(
        fig09_speedup.CAMPAIGN, quick=True, processes=1,
        store=CampaignStore("fig09", root=tmp_path))
    keys = [key for key, _request in scheduler.keyed_cells()]
    assert len(keys) == 60
    digest = hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()[:24]
    assert digest == "e2b70db513d6c1e8bb240c20"
