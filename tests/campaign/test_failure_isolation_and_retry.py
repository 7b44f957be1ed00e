"""Cell failure isolation: capture, bounded retries, poisoning, degraded
artifacts, and the CLI exit-code contract."""

from __future__ import annotations

import json

import pytest

from repro.campaign.cli import main
from repro.campaign.health import RetryPolicy, record_poisoned
from repro.campaign.render import render_markdown
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec, variants
from repro.campaign.store import CampaignStore
from repro.experiments.parallel import ParallelExperimentRunner
from repro.util import faults

WINDOW = dict(warmup_instructions=1500, timed_instructions=1500)

#: Milliseconds-scale backoff so retry rounds don't slow the suite down.
FAST_POLICY = RetryPolicy(max_attempts=3, backoff_base=0.01)


@pytest.fixture(autouse=True)
def inert_plan():
    faults.reset()
    yield
    faults.reset()


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    path = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
    return path


def _spec(workloads=("libquantum", "mcf")) -> CampaignSpec:
    return CampaignSpec(
        name="fault-test",
        title="Failure isolation campaign",
        experiment="repro.experiments.fig10_energy",
        workloads=tuple(workloads),
        variants=variants(
            dict(name="bl", kind="baseline"),
            dict(name="dla", kind="dla", dla_preset="dla"),
            dict(name="r3", kind="dla", dla_preset="r3"),
        ),
        **WINDOW,
    )


class _BrokenDlaRunner(ParallelExperimentRunner):
    """Deterministic *permanent* defect: every DLA simulation of one
    workload raises — the isolated path, the retries, and artefact assembly
    all hit the same bug, exactly like a real code defect would."""

    broken_workload = "mcf"

    def run_cell(self, setup, request):
        if request.kind == "dla" and setup.name == self.broken_workload:
            raise ValueError(f"simulated permanent defect in {setup.name}")
        return super().run_cell(setup, request)


def _runner(spec, cls=ParallelExperimentRunner):
    return cls(
        quick=True, workload_names=spec.resolve_workloads(), processes=1,
        warmup_instructions=spec.warmup_instructions,
        timed_instructions=spec.timed_instructions,
    )


# ---------------------------------------------------------------------------
# isolation primitive
# ---------------------------------------------------------------------------
def test_warm_isolated_captures_failures_and_keeps_going(cache_dir, tmp_path):
    spec = _spec()
    runner = _runner(spec, _BrokenDlaRunner)
    scheduler = CampaignScheduler(spec, store=CampaignStore(
        spec.name, tmp_path / "campaigns"), runner=runner)
    requests = [request for _key, request in scheduler.keyed_cells()]
    executed, failures = runner.warm_isolated(requests)

    assert len(failures) == 2                    # mcf/dla + mcf/r3
    assert executed == len(requests) - 2         # the rest still ran
    for info in failures.values():
        assert info["error_type"] == "ValueError"
        assert "permanent defect" in info["message"]
        assert len(info["traceback_digest"]) == 12
        assert info["workload"] == "mcf"
        assert info["duration_seconds"] >= 0.0


# ---------------------------------------------------------------------------
# transient failures converge clean
# ---------------------------------------------------------------------------
def test_transient_fault_retries_to_clean_convergence(cache_dir, tmp_path):
    spec = _spec(workloads=("libquantum",))
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    # Every cell's *first* attempt raises (attempt-gated); retries are clean.
    faults.activate(faults.FaultPlan.parse(
        "cell.simulate:raise:times=none,attempts=1",
        ledger_dir=tmp_path / "ledger",
    ))
    scheduler = CampaignScheduler(spec, store=store, runner=_runner(spec),
                                  retry_policy=FAST_POLICY)
    summary = scheduler.run()

    assert "cells_failed" not in summary          # converged clean
    result = store.load_result()
    assert "health" not in result                 # fault-free-identical shape
    assert result["tables"]["energy_summary"]
    status = store.status()
    assert status["state"] == "complete"
    assert status["cells_failed"] == 0
    assert status["retries"] == 3                 # one failed attempt per cell
    # The failure records survive the successful retries, for audit.
    assert all(not record["poisoned"] for record in store.failures().values())


# ---------------------------------------------------------------------------
# permanent failures poison + degrade (never abort)
# ---------------------------------------------------------------------------
def test_permanent_failure_poisons_and_assembles_degraded(cache_dir, tmp_path):
    spec = _spec()
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    scheduler = CampaignScheduler(spec, store=store,
                                  runner=_runner(spec, _BrokenDlaRunner),
                                  retry_policy=FAST_POLICY)
    summary = scheduler.run()                     # must NOT raise

    assert summary["cells_failed"] == 2
    result = store.load_result()
    health = result["health"]
    assert health["state"] == "degraded"
    assert len(health["failed"]) == 2
    for entry in health["failed"]:
        assert entry["error_type"] == "ValueError"
        assert entry["workload"] == "mcf"
        assert entry["attempts"] == FAST_POLICY.max_attempts
    # Assembly hit the same defect -> explicit degraded stub, not a crash.
    assert result["text"].startswith("DEGRADED:")

    markdown = render_markdown(result)
    assert "## health: DEGRADED" in markdown
    assert "ValueError" in markdown

    status = store.status()
    assert status["state"] == "degraded"
    assert status["cells_failed"] == 2
    assert status["retries"] == 2 * FAST_POLICY.max_attempts

    # Failure lives in the failure records; the manifest holds only the plan.
    poisoned = [record for record in store.failures().values()
                if record_poisoned(record)]
    assert len(poisoned) == 2
    assert all("status" not in info
               for info in store.load_manifest()["cells"].values())


def test_poisoned_cells_skipped_on_rerun_and_finalize_never_blocks(
        cache_dir, tmp_path):
    spec = _spec()
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    CampaignScheduler(spec, store=store,
                      runner=_runner(spec, _BrokenDlaRunner),
                      retry_policy=FAST_POLICY).run()

    # A rerun does not burn attempts re-proving poisoned cells...
    rerun = _runner(spec, _BrokenDlaRunner)
    summary = CampaignScheduler(spec, store=store, runner=rerun,
                                retry_policy=FAST_POLICY).run()
    assert summary["cells_failed"] == 2
    records = store.failures()
    assert all(record["attempts"] == FAST_POLICY.max_attempts
               for record in records.values())

    # ...and finalize assembles around them instead of CampaignIncomplete.
    merged = CampaignScheduler(
        spec, store=store, runner=_runner(spec, _BrokenDlaRunner)).finalize()
    assert merged["cells_failed"] == 2


def test_worker_loop_poisons_and_reports(cache_dir, tmp_path):
    spec = _spec()
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    scheduler = CampaignScheduler(spec, store=store,
                                  runner=_runner(spec, _BrokenDlaRunner),
                                  retry_policy=FAST_POLICY)
    summary = scheduler.run_worker(owner="w0", ttl=60.0, poll_seconds=0.05,
                                   finalize=True)
    assert summary["cells_failed"] == 2
    assert not summary["complete"]               # poisoned cells remain
    assert summary["finalized"]                  # but the campaign converged
    assert store.load_result()["health"]["state"] == "degraded"
    assert not store.leases()                    # nothing left held


# ---------------------------------------------------------------------------
# watchdog accounting
# ---------------------------------------------------------------------------
def test_cell_timeout_keeps_the_watchdog_childs_stats(tmp_path, monkeypatch):
    """A cell run in a child process — one per cell under a timeout, one
    per workload group when fanning out — is counted like an inline one:
    the parent merges the child's stats, and reading the child's result
    back from the disk cache is no disk hit."""
    spec = CampaignSpec(
        name="watchdog-stats",
        title="Watchdog accounting campaign",
        experiment="repro.experiments.fig10_energy",
        # Two workloads, so that two processes fan out over two groups.
        workloads=("libquantum", "mcf"),
        variants=variants(
            dict(name="bl", kind="baseline"),
            dict(name="r3", kind="dla", dla_preset="r3"),
        ),
        **WINDOW,
    )
    counted = ("simulations", "simulated_instructions", "compiled_ticks",
               "memory_hits", "disk_hits")
    summaries = []
    for processes, cell_timeout in ((1, None), (1, 60.0), (2, None)):
        root = tmp_path / f"processes-{processes}-timeout-{cell_timeout}"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root / "cache"))
        runner = _runner(spec)
        runner.processes = processes
        scheduler = CampaignScheduler(
            spec, store=CampaignStore(spec.name, root / "campaigns"),
            runner=runner, cell_timeout=cell_timeout)
        summary = scheduler.run()
        summaries.append({name: summary[name] for name in counted})
    inline, watched, fanned_out = summaries
    assert inline["simulations"] >= 4 and inline["disk_hits"] == 0
    assert watched == inline
    assert fanned_out == inline


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------
def _write_spec(tmp_path, spec) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    return str(path)


def _run_cli_with_cell_timeout(tmp_path, monkeypatch, *mode_flags: str):
    """``repro run`` under a plan that hangs every cell and a watchdog
    budget far below the hang: each cell times out, is retried, and is
    poisoned — hangs become bounded, retryable failures."""
    monkeypatch.chdir(tmp_path)
    # The CLI exports its plan to the environment; restore it afterwards.
    monkeypatch.setenv(faults.FAULTS_ENV, "")
    spec = _spec(workloads=("libquantum",))
    code = main([
        "run", "--spec", _write_spec(tmp_path, spec), *mode_flags,
        "--retries", "2", "--retry-backoff", "0.01", "--cell-timeout", "0.1",
        "--faults", "cell.simulate:hang:times=none,attempts=2,seconds=60",
        "--no-render",
    ])
    return spec, code


def _assert_every_cell_timed_out(spec) -> None:
    records = CampaignStore(spec.name).failures()
    assert len(records) == 3
    for record in records.values():
        assert record["error_type"] == "CellTimeout"
        assert record["poisoned"]
        assert record["attempts"] == 2
    # The degraded result still exists — with its failure roster.
    # (Assembly runs without the watchdog and the fault probe, so the cells
    # self-healed into full tables; the health section records what had
    # failed.)
    result = CampaignStore(spec.name).load_result()
    assert len(result["health"]["failed"]) == 3


def test_cli_worker_cell_timeout_flips_exit_code(cache_dir, tmp_path,
                                                 monkeypatch, capsys):
    spec, code = _run_cli_with_cell_timeout(
        tmp_path, monkeypatch, "--worker", "--ttl", "60", "--poll", "0.05")
    capsys.readouterr()
    assert code == 1
    _assert_every_cell_timed_out(spec)


@pytest.mark.parametrize("mode_flags", [(), ("--shard", "0/1")],
                         ids=["run", "shard"])
def test_cli_cell_timeout_applies_without_worker(cache_dir, tmp_path,
                                                 monkeypatch, capsys,
                                                 mode_flags):
    """The watchdog is not a worker-only feature: a plain run and a shard
    (finished by ``repro merge``) honour ``--cell-timeout`` too."""
    spec, code = _run_cli_with_cell_timeout(tmp_path, monkeypatch,
                                            *mode_flags)
    assert code == 1                         # poisoned cells fail the job
    if mode_flags:
        assert main(["merge", spec.name, "--no-render"]) == 1   # degraded
    capsys.readouterr()
    _assert_every_cell_timed_out(spec)


def test_shard_isolates_retries_and_poisons(cache_dir, tmp_path):
    """A failing cell no longer aborts its shard: it is retried, poisoned,
    and the merge assembles a degraded result around it."""
    spec = _spec()
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    summary = CampaignScheduler(spec, store=store,
                                runner=_runner(spec, _BrokenDlaRunner),
                                retry_policy=FAST_POLICY).run_shard(0, 1)
    assert summary["cells_failed"] == 2
    records = store.failures()
    assert len(records) == 2
    for record in records.values():
        assert record["poisoned"]
        assert record["attempts"] == FAST_POLICY.max_attempts

    merged = CampaignScheduler(
        spec, store=store, runner=_runner(spec, _BrokenDlaRunner)).finalize()
    assert merged["cells_failed"] == 2
    assert store.load_result()["health"]["state"] == "degraded"


def test_cli_status_exit_code_on_failed_cells(cache_dir, tmp_path,
                                              monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    spec = _spec()
    # Default store root (under REPRO_CACHE_DIR) so the CLI finds it.
    CampaignScheduler(spec, store=CampaignStore(spec.name),
                      runner=_runner(spec, _BrokenDlaRunner),
                      retry_policy=FAST_POLICY).run()

    code = main(["status", spec.name, "--json"])
    captured = capsys.readouterr()
    assert code == 1                              # failed cells gate CI
    payload = json.loads(captured.out)[spec.name]
    assert payload["state"] == "degraded"
    assert payload["cells_failed"] == 2
    assert payload["retries"] == 2 * FAST_POLICY.max_attempts

    # The human-readable form carries the same signal (plus exit code).
    code = main(["status", spec.name])
    captured = capsys.readouterr()
    assert code == 1
    assert "2 FAILED" in captured.out
    assert "retries 6" in captured.out


def test_degraded_campaign_renders_health_consistently(cache_dir, tmp_path):
    """CSV, Markdown and JSON artifacts agree on the failure roster."""
    import csv

    from repro.campaign.render import render_campaign

    spec = _spec()
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    CampaignScheduler(spec, store=store,
                      runner=_runner(spec, _BrokenDlaRunner),
                      retry_policy=FAST_POLICY).run()

    out = tmp_path / "artifacts"
    written = render_campaign(spec.name, store=store, out_dir=str(out))
    names = {path.name for path in written}
    assert "health.csv" in names

    payload = json.loads((out / spec.name / f"{spec.name}.json").read_text())
    failed = payload["health"]["failed"]
    assert payload["health"]["state"] == "degraded"
    assert len(failed) == 2

    with open(out / spec.name / "health.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(failed)
    # Same cells, same error identity, in the same (deterministic) order.
    assert [row["key"] for row in rows] == [e["key"] for e in failed]
    assert all(row["error_type"] == "ValueError" for row in rows)
    assert all(row["workload"] == "mcf" for row in rows)

    markdown = (out / spec.name / f"{spec.name}.md").read_text()
    assert "## health: DEGRADED" in markdown
    for entry in failed:
        assert entry["key"] in markdown
        assert f"`{entry['workload']}/{entry['variant']}`" in markdown


def test_healthy_campaign_renders_no_health_artifacts(cache_dir, tmp_path):
    from repro.campaign.render import render_campaign

    spec = _spec(workloads=("libquantum",))
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    CampaignScheduler(spec, store=store, runner=_runner(spec)).run()

    out = tmp_path / "artifacts"
    written = render_campaign(spec.name, store=store, out_dir=str(out))
    assert "health.csv" not in {path.name for path in written}
    payload = json.loads((out / spec.name / f"{spec.name}.json").read_text())
    assert "health" not in payload
    assert "## health" not in (out / spec.name / f"{spec.name}.md").read_text()
