"""Deferred setups: a setup whose disk entry exists is read on first use.

A resumed campaign whose cells all hit keys every cell from the workload
definition alone, so it must read no setup entry.  A deferred setup whose
entry is gone or corrupt by the time it is first used is built again
exactly as a cold miss builds it.
"""

from __future__ import annotations

import shutil

import pytest

from repro.campaign.render import render_campaign
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.experiments.cache import ResultDiskCache
from repro.experiments.parallel import ParallelExperimentRunner
from repro.experiments.runner import (
    ExperimentRunner, clear_setup_cache, setup_cache_stats,
)
from repro.workloads.suites import get_workload

WORKLOADS = ("libquantum", "mcf")
WINDOW = dict(warmup_instructions=1500, timed_instructions=1500)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    path = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
    return path


def _clear_process_memos() -> None:
    """What a fresh process starts without: setups, programs and traces."""
    clear_setup_cache()
    for name in WORKLOADS:
        workload = get_workload(name)
        workload._program = None
        workload._traces.clear()


def _fig09_campaign() -> CampaignSpec:
    from repro.campaign.registry import get_campaign

    spec = get_campaign("fig09")
    return CampaignSpec.from_dict(
        {**spec.to_dict(), "workloads": list(WORKLOADS), **WINDOW})


def _run_and_render(spec: CampaignSpec, root, out_dir):
    runner = ParallelExperimentRunner(
        quick=True, workload_names=spec.resolve_workloads(), processes=1,
        **WINDOW)
    store = CampaignStore(spec.name, root / "campaigns")
    CampaignScheduler(spec, store=store, runner=runner).run()
    paths = render_campaign(spec.name, store=store, out_dir=str(out_dir))
    return runner, {path.name: path.read_bytes() for path in paths}


def test_fully_cached_resume_reads_no_setup_entry(cache_dir, tmp_path,
                                                  monkeypatch):
    spec = _fig09_campaign()
    _clear_process_memos()
    cold_runner, cold = _run_and_render(spec, tmp_path, tmp_path / "cold")
    assert cold_runner.stats.simulations > 0
    setup_keys = {cold_runner._disk_key(cold_runner.setup_key(get_workload(n)))
                  for n in WORKLOADS}
    assert all(cold_runner.disk_cache.contains(key) for key in setup_keys)

    _clear_process_memos()
    reads = []
    original = ResultDiskCache.get

    def recorded(cache, key):
        reads.append(key)
        return original(cache, key)

    monkeypatch.setattr(ResultDiskCache, "get", recorded)
    runner, resumed = _run_and_render(spec, tmp_path, tmp_path / "resumed")
    assert reads                                   # the cells came from disk
    assert not setup_keys & set(reads)
    assert setup_cache_stats()["builds"] == setup_cache_stats()["disk_hits"] == 0
    assert runner.stats.simulations == 0
    assert resumed == cold


def _truncate(cache: ResultDiskCache, key: str) -> None:
    path = cache._path(key)
    path.write_bytes(path.read_bytes()[:64])


def _remove_directory(cache: ResultDiskCache, key: str) -> None:
    shutil.rmtree(cache.directory)


@pytest.mark.parametrize("damage", [_truncate, _remove_directory],
                         ids=["truncated", "directory-removed"])
def test_deferred_setup_builds_when_its_entry_is_lost(cache_dir, damage):
    name = WORKLOADS[1]
    cold = ExperimentRunner(quick=True, workload_names=[name],
                            disk_cache=False, **WINDOW)
    expected = cold.baseline(cold.setup(name), "bl")

    clear_setup_cache()
    ExperimentRunner(quick=True, workload_names=[name], disk_cache=True,
                     **WINDOW).setup(name)                  # puts the entry
    clear_setup_cache()
    runner = ExperimentRunner(quick=True, workload_names=[name],
                              disk_cache=True, **WINDOW)
    setup = runner.setup(name)
    assert setup._parts is None
    key = runner._disk_key(runner.setup_key(setup.workload))
    damage(runner.disk_cache, key)

    outcome = runner.baseline(setup, "bl")           # a miss: reads the setup
    assert setup._parts is not None
    assert runner.stats.simulations == 1
    assert outcome == expected
    assert setup_cache_stats() == {"builds": 1, "memory_hits": 0,
                                   "disk_hits": 0}
    assert runner.disk_cache.quarantined == (1 if damage is _truncate else 0)
    # The build put the entry again: the next process reads it back.
    clear_setup_cache()
    again = ExperimentRunner(quick=True, workload_names=[name],
                             disk_cache=True, **WINDOW).setup(name)
    assert again.timed_trace.columns.pc == setup.timed_trace.columns.pc
    assert setup_cache_stats()["disk_hits"] == 1
