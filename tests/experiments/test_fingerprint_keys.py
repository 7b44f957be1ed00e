"""Pinned content keys: a key that drifts orphans every cached result.

The hex values below are unsalted content keys (``fingerprint``, before
``code_salt`` is folded in).  They were last moved on purpose when the
config fields no model read (PRF sizes, pipeline depth, issue width,
clock and voltage, the VPT size, SIF training and recycle-version counts,
the recycle flag, the predictor name and the wrong-path switch) left the
configs' canonical text.  A change that moves any of them changes what
every cache slot is called, so it must be a deliberate one that updates
this file.
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
    assert runner.workload_key(mcf, "baseline") == "5b57fad417f95cbab82d7f89"
    assert (runner.workload_key(mcf, "dla", None, DlaConfig().r3())
            == "90745ab84aeee3c728cae078")
    assert (runner.segmented_key_for(mcf, DlaConfig().r3(), False)
            == "416827e411a622dfd41d91e5")
    assert runner.workload_key(mcf, "aux-bfetch") == "ba965721c20557d950036d36"
    assert runner.setup_key(mcf) == "4cc680035e7d931f8ffea542"


def test_full_mode_segmented_key_is_pinned():
    full = ExperimentRunner(quick=False, workload_names=["mcf"],
                            disk_cache=False, **WINDOW)
    assert (full.segmented_key_for(get_workload("mcf"), DlaConfig().r3(), True)
            == "9e0637036c2b6d1f951ab97c")


def test_memsys_variant_key_is_pinned(runner):
    variant = next(v for v in memsys_sweep.CAMPAIGN.variants
                   if v.name == "bl-contended")
    config = variant.system_config(runner.system_config)
    assert (runner.workload_key(get_workload("mcf"), "baseline", config)
            == "7018969c4b32a32311bbc82b")


def test_fig09_campaign_keys_are_pinned(tmp_path):
    scheduler = CampaignScheduler(
        fig09_speedup.CAMPAIGN, quick=True, processes=1,
        store=CampaignStore("fig09", root=tmp_path))
    keys = [key for key, _request in scheduler.keyed_cells()]
    assert len(keys) == 60
    digest = hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()[:24]
    assert digest == "bb753cf4dd94f349265dd3ad"
