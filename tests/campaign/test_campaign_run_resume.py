"""Scheduler + store: end-to-end runs, kill-between-cells resume, status."""

from __future__ import annotations

import pytest

from repro.campaign.scheduler import CampaignScheduler, run_campaign
from repro.campaign.spec import CampaignSpec, variants
from repro.campaign.store import MANIFEST_SCHEMA, CampaignStore
from repro.experiments.parallel import ParallelExperimentRunner

WINDOW = dict(warmup_instructions=1500, timed_instructions=1500)


def _spec() -> CampaignSpec:
    return CampaignSpec(
        name="resume-test",
        title="Resume test campaign",
        experiment="repro.experiments.fig10_energy",
        workloads=("libquantum", "mcf"),
        variants=variants(
            dict(name="bl", kind="baseline"),
            dict(name="dla", kind="dla", dla_preset="dla"),
            dict(name="r3", kind="dla", dla_preset="r3"),
        ),
        **WINDOW,
    )


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    path = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
    return path


def _runner(spec: CampaignSpec) -> ParallelExperimentRunner:
    return ParallelExperimentRunner(
        quick=True, workload_names=spec.resolve_workloads(),
        warmup_instructions=spec.warmup_instructions,
        timed_instructions=spec.timed_instructions,
        processes=1,
    )


class _KilledMidCampaign(BaseException):
    # BaseException, not Exception: this simulates the *process* dying
    # (kill -9 / Ctrl-C), which must sail through the cell-failure
    # isolation layer.  An ordinary Exception would now (correctly) be
    # captured as a per-cell failure record and retried instead.
    pass


class _InterruptingRunner(ParallelExperimentRunner):
    """Dies *between* cells once ``budget`` simulations have completed."""

    def __init__(self, *args, budget: int, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._budget = budget

    def _check_budget(self) -> None:
        if self.stats.simulations >= self._budget:
            raise _KilledMidCampaign()

    def baseline(self, *args, **kwargs):
        self._check_budget()
        return super().baseline(*args, **kwargs)

    def dla(self, *args, **kwargs):
        self._check_budget()
        return super().dla(*args, **kwargs)


def test_campaign_runs_and_persists(cache_dir, tmp_path):
    spec = _spec()
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    scheduler = CampaignScheduler(spec, store=store, runner=_runner(spec))
    summary = scheduler.run()
    assert summary["cells_total"] == 6
    assert summary["cells_simulated"] == 6
    result = store.load_result()
    assert result is not None
    assert result["tables"]["energy_summary"]
    assert result["text"].startswith("Fig. 10")
    status = store.status()
    assert status["state"] == "complete"
    assert status["cells_done"] == 6


def test_the_assembly_line_reports_the_assembly_not_the_run(cache_dir,
                                                             tmp_path):
    """Every cell fig10 assembles from is planned, so a plain run's
    assembly simulates nothing; the run summary still counts the cells."""
    spec = _spec()
    lines = []
    scheduler = CampaignScheduler(
        spec, store=CampaignStore(spec.name, tmp_path / "campaigns"),
        runner=_runner(spec), progress=lines.append)
    summary = scheduler.run()
    assert summary["simulations"] == 6
    assembled = [line for line in lines if "assembled in" in line]
    assert len(assembled) == 1
    assert "(0 simulations, 6 cache hits)" in assembled[0]


def test_kill_between_cells_then_resume_with_zero_resimulation(cache_dir, tmp_path):
    spec = _spec()
    store = CampaignStore(spec.name, tmp_path / "campaigns")

    # First attempt dies after 2 of the 6 cells have been simulated.
    killed = _InterruptingRunner(
        quick=True, workload_names=spec.resolve_workloads(), processes=1,
        budget=2, **WINDOW,
    )
    with pytest.raises(_KilledMidCampaign):
        CampaignScheduler(spec, store=store, runner=killed).run()
    assert killed.stats.simulations == 2

    # Restart with a fresh runner/scheduler (fresh process equivalent):
    # the two finished cells come back from disk, only the rest simulate.
    resumed = _runner(spec)
    summary = CampaignScheduler(spec, store=store, runner=resumed).run()
    assert summary["cells_total"] == 6
    assert summary["cells_simulated"] == 4            # 6 - 2 already done
    assert resumed.stats.simulations == 4
    assert resumed.stats.disk_hits >= 2               # the killed run's cells

    # A third run re-simulates nothing at all.
    third = _runner(spec)
    summary = CampaignScheduler(spec, store=store, runner=third).run()
    assert summary["cells_simulated"] == 0
    assert third.stats.simulations == 0


def test_spec_change_resets_manifest_but_not_simulations(cache_dir, tmp_path):
    spec = _spec()
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    CampaignScheduler(spec, store=store, runner=_runner(spec)).run()
    manifest = store.load_manifest()
    assert manifest["spec_fingerprint"] == spec.fingerprint()

    # Narrow the spec: new fingerprint -> fresh bookkeeping, but the cell
    # results themselves still come from the shared cache.
    narrowed = CampaignSpec.from_dict(
        {**spec.to_dict(), "workloads": ["libquantum"]}
    )
    runner = _runner(narrowed)
    summary = CampaignScheduler(narrowed, store=store, runner=runner).run()
    assert store.load_manifest()["spec_fingerprint"] == narrowed.fingerprint()
    assert summary["cells_total"] == 3
    assert summary["cells_simulated"] == 0            # all were cached
    assert runner.stats.simulations == 0


def test_aliased_variants_count_once_in_every_mode(cache_dir, tmp_path):
    """Two variants with identical configurations share one content key:
    run() and shard + finalize both count it as one cell."""
    spec = CampaignSpec(
        name="alias-test",
        title="Aliased variants",
        experiment="repro.experiments.fig10_energy",
        workloads=("libquantum",),
        variants=variants(
            dict(name="bl", kind="baseline"),
            dict(name="bl-again", kind="baseline"),
        ),
        **WINDOW,
    )
    single = CampaignScheduler(spec, store=CampaignStore(
        spec.name, tmp_path / "single"), runner=_runner(spec)).run()
    assert single["cells_total"] == 1
    assert single["cells_simulated"] + single["cells_from_cache"] == 1

    store = CampaignStore(spec.name, tmp_path / "sharded")
    shard = CampaignScheduler(spec, store=store,
                              runner=_runner(spec)).run_shard(0, 1)
    merged = CampaignScheduler(spec, store=store,
                               runner=_runner(spec)).finalize()
    assert shard["cells_total"] == merged["cells_total"] == 1


def test_an_older_manifest_resets_to_the_plan_on_open(cache_dir, tmp_path):
    """A v2 manifest carried per-cell ``status``/``completed_by`` records;
    opening it resets it to the plan, and the results still come from the
    disk cache."""
    spec = _spec()
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    CampaignScheduler(spec, store=store, runner=_runner(spec)).run()
    old = store.load_manifest()
    old["schema"] = 2
    for info in old["cells"].values():
        info.update(status="done", completed_by="someone")
    store.save_manifest(old)

    runner = _runner(spec)
    summary = CampaignScheduler(spec, store=store, runner=runner).run()
    assert summary["cells_simulated"] == 0 and runner.stats.simulations == 0
    manifest = store.load_manifest()
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert sorted(manifest["cells"]) == sorted(old["cells"])
    for info in manifest["cells"].values():
        assert sorted(info) == ["kind", "variant", "workload"]
    assert store.status()["cells_done"] == 6


def test_status_not_complete_after_mode_change(cache_dir, tmp_path):
    """A mode/spec change must not report the stale result as complete."""
    spec = _spec()
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    CampaignScheduler(spec, store=store, runner=_runner(spec)).run()
    assert store.status()["state"] == "complete"
    # Re-plan in full mode (as an interrupted `repro run --full` would):
    store.begin(spec, "full", store.load_manifest()["cells"])
    assert store.status()["state"] == "partial"       # quick result is stale


def test_run_campaign_by_name_smoke(cache_dir, tmp_path, monkeypatch):
    # Pin the rotating smoke figure so the cell count is deterministic.
    monkeypatch.setenv("REPRO_SMOKE_FIGURE", "fig09")
    store = CampaignStore("smoke", tmp_path / "campaigns")
    summary = run_campaign("smoke", store=store)
    assert summary["cells_total"] == 12
    assert store.load_result() is not None


def test_unknown_campaign_name_raises(cache_dir):
    from repro.campaign.spec import SpecError

    with pytest.raises(SpecError):
        run_campaign("never-heard-of-it")
