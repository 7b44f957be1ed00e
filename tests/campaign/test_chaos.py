"""Chaos acceptance tests: a seeded fault plan (raise + hang->timeout +
truncated cache write) thrown at a 2-worker campaign — and at a 2-shard
campaign plus merge — must converge to artifacts byte-identical to a
fault-free single-host run."""

from __future__ import annotations

import importlib
import json
import threading
from typing import Dict

import pytest

from repro.campaign.cli import main
from repro.campaign.health import RetryPolicy
from repro.campaign.monitor import build_timeline
from repro.campaign.render import render_campaign
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec, variants
from repro.campaign.store import CampaignStore
from repro.campaign.telemetry import load_events
from repro.util import faults

WINDOW = dict(warmup_instructions=1500, timed_instructions=1500)

FAST_POLICY = RetryPolicy(max_attempts=3, backoff_base=0.01)

#: The seeded chaos plan: one transient raise, one hang (killed by the
#: cell watchdog), one torn cache write (caught by the checksum verify).
#: ``attempts=1`` gates the simulation faults to first attempts only, so
#: retries converge; ``times=1`` budgets each in the shared ledger.
CHAOS_PLAN = (
    "cell.simulate:raise:times=1,attempts=1;"
    "cell.simulate:hang:times=1,attempts=1,seconds=60;"
    "cache.write:truncate:times=1"
)


def _spec() -> CampaignSpec:
    return CampaignSpec(
        name="chaos-test",
        title="Chaos campaign",
        experiment="repro.experiments.fig10_energy",
        workloads=("libquantum",),
        variants=variants(
            dict(name="bl", kind="baseline"),
            dict(name="dla", kind="dla", dla_preset="dla"),
            dict(name="r3", kind="dla", dla_preset="r3"),
        ),
        **WINDOW,
    )


def _figure_spec(module: str) -> CampaignSpec:
    """Figure ``module``'s own campaign, on libquantum with short windows."""
    spec = importlib.import_module(f"repro.experiments.{module}").CAMPAIGN
    return CampaignSpec.from_dict(
        {**spec.to_dict(), "workloads": ["libquantum"], **WINDOW})


def _scheduler(spec, store, **kwargs) -> CampaignScheduler:
    return CampaignScheduler(spec, store=store, processes=1,
                             **kwargs)


@pytest.fixture(autouse=True)
def inert_plan():
    faults.reset()
    yield
    faults.reset()


def _reference_run(tmp_path, monkeypatch, spec) -> Dict[str, str]:
    """Run and render ``spec`` (one workload) fault-free in its own cache
    universe (under ``artifacts-ref``); returns its cell keys by variant."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-ref"))
    ref_store = CampaignStore(spec.name, tmp_path / "campaigns-ref")
    scheduler = _scheduler(spec, ref_store)
    summary = scheduler.run()
    assert summary["cells_total"] == len(spec.variants)
    render_campaign(spec.name, store=ref_store,
                    out_dir=str(tmp_path / "artifacts-ref"))
    return {request.label: key for key, request in scheduler.keyed_cells()}


def _assert_matches_reference(tmp_path, spec, out_dir) -> None:
    """The artifacts under ``out_dir`` are byte-identical to the
    reference run's."""
    ref_dir = tmp_path / "artifacts-ref" / spec.name
    other_dir = out_dir / spec.name
    ref_files = sorted(path.name for path in ref_dir.iterdir())
    assert ref_files == sorted(path.name for path in other_dir.iterdir())
    assert ref_files                                  # md + json + csv(s)
    for name in ref_files:
        assert (ref_dir / name).read_bytes() == \
            (other_dir / name).read_bytes(), f"artifact {name} differs"


def _chaos_run(tmp_path, monkeypatch, execute) -> CampaignStore:
    """Render a fault-free reference, then run ``execute(index, scheduler)``
    on two threads under the seeded plan in a separate cache universe, and
    check the merged artifacts are byte-identical to the reference."""
    spec = _spec()
    _reference_run(tmp_path, monkeypatch, spec)

    # ------------------------------------------------------------------
    # Chaos: two threads + the seeded plan, separate cache universe.
    # ------------------------------------------------------------------
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-chaos"))
    faults.activate(faults.FaultPlan.parse(
        CHAOS_PLAN, ledger_dir=tmp_path / "cache-chaos" / "faults"))
    chaos_store = CampaignStore(spec.name, tmp_path / "campaigns-chaos")
    errors = []

    def target(index: int) -> None:
        try:
            # Every cell under a watchdog: the hang fault must become a
            # retryable CellTimeout, not a stuck worker.
            execute(index, _scheduler(spec, chaos_store,
                                      retry_policy=FAST_POLICY,
                                      cell_timeout=5.0))
        except BaseException as error:   # noqa: BLE001 - surface in main thread
            errors.append(error)

    threads = [threading.Thread(target=target, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors

    # The faults actually fired and left their audit trail behind.
    status = chaos_store.status()
    assert status["retries"] >= 2        # the raise + the timed-out hang
    assert status["quarantined"] >= 1    # the torn write, caught on read
    assert status["cells_failed"] == 0   # all transient: converged clean
    # Every failed attempt, from the journals: a cell's failure record
    # keeps only its latest failure (the torn write's retry may overwrite
    # the record of a fault that hit the same cell first).
    fired_kinds = {event["error_type"]
                   for event in load_events(chaos_store.events_path)
                   if event["event"] == "cell.failed"}
    assert "InjectedFault" in fired_kinds
    assert "CellTimeout" in fired_kinds
    assert chaos_store.failures()

    # Fan-in: merge + render, then compare against the reference bytes.
    merged = _scheduler(spec, chaos_store).finalize()
    assert "cells_failed" not in merged
    assert "health" not in chaos_store.load_result()
    render_campaign(spec.name, store=chaos_store,
                    out_dir=str(tmp_path / "artifacts-chaos"))
    _assert_matches_reference(tmp_path, spec, tmp_path / "artifacts-chaos")

    # The journals recorded the chaos the artifacts hide: both injected
    # faults show up as retry events, the torn write as a quarantine, and
    # the monitor flags the retry hotspots.  (That the artifact bytes above
    # still match the reference proves journals never leak into renders.)
    timeline = build_timeline(chaos_store)
    counts = timeline["event_counts"]
    assert counts.get("cell.retried", 0) >= 2     # raise + timed-out hang
    assert counts.get("cell.failed", 0) >= 2
    assert counts.get("cache.quarantine", 0) >= 1  # torn write, caught
    kinds = {anomaly["kind"] for anomaly in timeline["anomalies"]}
    assert "retry_hotspot" in kinds
    return chaos_store


def test_chaos_campaign_matches_fault_free_artifacts(tmp_path, monkeypatch):
    summaries = {}

    def worker(index: int, scheduler: CampaignScheduler) -> None:
        summaries[index] = scheduler.run_worker(
            owner=f"w{index}", ttl=60.0, poll_seconds=0.05, finalize=False)

    _chaos_run(tmp_path, monkeypatch, worker)
    assert all(summary["complete"] for summary in summaries.values())


def test_chaos_shard_campaign_matches_fault_free_artifacts(tmp_path,
                                                           monkeypatch):
    """Static shards get the same isolation, retries and watchdog as
    workers: each shard converges on its own slice under the plan."""
    summaries = {}

    def shard(index: int, scheduler: CampaignScheduler) -> None:
        summaries[index] = scheduler.run_shard(index, 2)

    _chaos_run(tmp_path, monkeypatch, shard)
    assert sorted(summaries) == [0, 1]
    assert not any(summary.get("cells_failed")
                   for summary in summaries.values())


@pytest.mark.parametrize("figure, variant, fault, error_type", [
    (None, "bl", "cache.write:truncate:times=1", "CellResultLost"),
    ("fig11_smt", "smt-pair", "cell.simulate:raise:times=1", "InjectedFault"),
], ids=["torn-write", "smt-pair-raise"])
def test_inline_shard_retries_a_failed_cell_and_merges_clean(
        tmp_path, monkeypatch, capsys, figure, variant, fault, error_type):
    """An inline cell (``--processes 1``) is done only once its entry reads
    back: one torn write costs one retryable ``CellResultLost``, and a
    merge from disk matches a fault-free run.  An auxiliary cell (fig11's
    two-copy SMT run) that raises once is retried the same way."""
    spec = _spec() if figure is None else _figure_spec(figure)
    failed_key = _reference_run(tmp_path, monkeypatch, spec)[variant]

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-retried"))
    # The CLI exports its plan to the environment; restore it afterwards.
    monkeypatch.setenv(faults.FAULTS_ENV, "")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    assert main([
        "run", "--spec", str(spec_path), "--shard", "0/1", "--processes", "1",
        "--retry-backoff", "0", "--no-render",
        "--faults", f"{fault},match={failed_key}",
    ]) == 0
    store = CampaignStore(spec.name)
    failed = [(event["key"], event["error_type"])
              for event in load_events(store.events_path)
              if event["event"] == "cell.failed"]
    assert failed == [(failed_key, error_type)]

    assert main(["merge", spec.name, "--no-render"]) == 0
    capsys.readouterr()
    render_campaign(spec.name, store=store,
                    out_dir=str(tmp_path / "artifacts-retried"))
    _assert_matches_reference(tmp_path, spec, tmp_path / "artifacts-retried")


def test_worker_poisons_cells_whose_writes_never_read_back(tmp_path,
                                                          monkeypatch):
    """A worker runs each leased cell inline, and an inline cell is done
    only once its entry reads back: with every write torn, each cell is
    retried, then poisoned as ``CellResultLost``, and ``status`` counts
    none of them done."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    faults.activate(faults.FaultPlan.parse(
        "cache.write:truncate:times=none",
        ledger_dir=tmp_path / "cache" / "faults"))
    spec = _spec()
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    summary = _scheduler(spec, store, retry_policy=FAST_POLICY).run_worker(
        owner="w", ttl=60.0, poll_seconds=0.05)

    records = store.failures()
    assert len(records) == summary["cells_total"] == 3
    for record in records.values():
        assert record["error_type"] == "CellResultLost"
        assert record["poisoned"]
    status = store.status()
    assert status["cells_done"] == 0
    assert status["state"] != "complete"
