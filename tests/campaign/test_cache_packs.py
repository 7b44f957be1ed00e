"""Cache packs end to end: a cold campaign's entries sit on one inode per
group commit, and a copy of every name (as CI's artifact hand-off makes)
serves the same campaign without a simulation."""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.campaign.cli import main
from repro.campaign.render import render_campaign
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.experiments.runner import clear_setup_cache
from repro.workloads.suites import get_workload

WORKLOADS = ("libquantum", "mcf")
WINDOW = dict(warmup_instructions=1500, timed_instructions=1500)


def _fig09_spec() -> CampaignSpec:
    from repro.campaign.registry import get_campaign

    spec = get_campaign("fig09")
    return CampaignSpec.from_dict(
        {**spec.to_dict(), "workloads": list(WORKLOADS), **WINDOW})


def _clear_process_memos() -> None:
    clear_setup_cache()
    for name in WORKLOADS:
        workload = get_workload(name)
        workload._program = None
        workload._traces.clear()


def _run(tmp_path, monkeypatch, root, out_dir):
    """``repro run`` the two-workload fig09 campaign inline into cache
    root ``root``; returns the run's summary and rendered artifacts."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    spec = _fig09_spec()
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    _clear_process_memos()
    assert main(["run", "--spec", str(spec_path), "--processes", "1",
                 "--no-render"]) == 0
    store = CampaignStore(spec.name)
    paths = render_campaign(spec.name, store=store, out_dir=str(out_dir))
    return store.status()["last_run"], {
        path.name: path.read_bytes() for path in paths}


@pytest.fixture()
def cold(tmp_path, monkeypatch):
    root = tmp_path / "cold"
    summary, artifacts = _run(tmp_path, monkeypatch, root, tmp_path / "a")
    assert summary["cells_simulated"] > 0
    return root, artifacts


def test_a_cold_run_lands_one_inode_per_group_commit(cold):
    root, _artifacts = cold
    names = list(root.glob("*.pkl"))
    inodes = {os.stat(path).st_ino for path in names}
    # One pack per workload group, plus the assembly's (fig09's B-Fetch,
    # SlipStream and CRE cells).
    assert len(inodes) == len(WORKLOADS) + 1
    assert len(names) > len(inodes)
    assert not list(root.glob("*.tmp.*"))


def test_copied_names_serve_the_campaign_unchanged(cold, tmp_path,
                                                   monkeypatch):
    root, artifacts = cold
    copies = tmp_path / "copies"
    copies.mkdir()
    for path in root.glob("*.pkl"):
        shutil.copy(path, copies / path.name)
    summary, again = _run(tmp_path, monkeypatch, copies, tmp_path / "b")
    assert summary["cells_simulated"] == 0
    assert again == artifacts
    assert not (copies / "quarantine").exists()
