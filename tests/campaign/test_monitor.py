"""Timeline aggregation, anomaly detection and the ``repro monitor`` CLI."""

from __future__ import annotations

import json
import threading

import pytest

from repro.campaign.cli import main
from repro.campaign.monitor import (
    AnomalyThresholds, _cell_rollups, _detect_anomalies, _worker_rollups,
    build_timeline, render_summary, sparkline,
)
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec, variants
from repro.campaign.store import CampaignStore
from repro.campaign.telemetry import EventJournal
from repro.experiments.parallel import ParallelExperimentRunner

WINDOW = dict(warmup_instructions=1500, timed_instructions=1500)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    path = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
    return path


def _spec(name: str = "monitor-test") -> CampaignSpec:
    return CampaignSpec(
        name=name,
        title="Monitor test campaign",
        experiment="repro.experiments.fig10_energy",
        workloads=("libquantum",),
        variants=variants(
            dict(name="bl", kind="baseline"),
            dict(name="dla", kind="dla", dla_preset="dla"),
            dict(name="r3", kind="dla", dla_preset="r3"),
        ),
        **WINDOW,
    )


def _scheduler(spec: CampaignSpec, store: CampaignStore) -> CampaignScheduler:
    runner = ParallelExperimentRunner(
        quick=True, workload_names=spec.resolve_workloads(),
        warmup_instructions=spec.warmup_instructions,
        timed_instructions=spec.timed_instructions,
        processes=1,
    )
    return CampaignScheduler(spec, store=store, runner=runner)


# ---------------------------------------------------------------------------
# roll-up helpers on synthetic journals
# ---------------------------------------------------------------------------
def _event(event, owner="w", seq=0, t=0.0, **fields):
    record = {"event": event, "owner": owner, "seq": seq,
              "t_wall": t, "t_mono": t}
    record.update(fields)
    return record


def test_worker_rollups_aggregate_cell_measures():
    events = [
        _event("worker.started", owner="w1", mode="worker"),
        _event("cell.claimed", owner="w1", key="k1"),
        _event("cell.finished", owner="w1", key="k1",
               instructions=3000, sim_seconds=2.0),
        _event("cell.failed", owner="w1", key="k2", error_type="ValueError"),
        _event("worker.stopped", owner="w1", instructions_per_second=5000.0),
        _event("worker.started", owner="w2", mode="worker"),
    ]
    workers = _worker_rollups(events)
    assert sorted(workers) == ["w1", "w2"]
    w1 = workers["w1"]
    assert w1["claims"] == 1 and w1["finished"] == 1 and w1["failed"] == 1
    assert w1["instructions"] == 3000
    # The stop-event summary is authoritative over the per-cell fallback.
    assert w1["inst_per_second"] == 5000.0
    assert w1["started"] and w1["stopped"]
    assert workers["w2"]["started"] and not workers["w2"]["stopped"]


def test_worker_rollups_fall_back_to_cell_measures_for_killed_workers():
    events = [
        _event("cell.finished", owner="dead", key="k1",
               instructions=1000, sim_seconds=4.0),
    ]
    assert _worker_rollups(events)["dead"]["inst_per_second"] == 250.0


def test_cell_rollups_track_attempts_failures_and_poisoning():
    events = [
        _event("cell.claimed", key="k1"),
        _event("cell.started", key="k1", attempt=1, workload="mcf",
               variant="dla"),
        _event("cell.failed", key="k1", attempt=1, error_type="InjectedFault"),
        _event("cell.started", key="k1", attempt=2),
        _event("cell.finished", key="k1", instructions=500, sim_seconds=1.0,
               stall_share=0.3),
        _event("cell.started", key="k2", attempt=1),
        _event("cell.failed", key="k2", attempt=1, error_type="ValueError"),
        _event("cell.poisoned", key="k2", attempt=1),
    ]
    cells = _cell_rollups(events)
    k1, k2 = cells["k1"], cells["k2"]
    assert k1["claims"] == 1 and k1["attempts"] == 2 and k1["finished"]
    assert k1["workload"] == "mcf" and k1["variant"] == "dla"
    assert k1["stall_share"] == 0.3
    assert not k1["poisoned"]
    assert k2["failures"] == 1 and k2["poisoned"] and not k2["finished"]
    assert k2["last_error"] == "ValueError"


# ---------------------------------------------------------------------------
# anomaly detectors on synthetic timelines
# ---------------------------------------------------------------------------
def _worker(ips, started=True, stopped=True, claims=1):
    return {"events": 1, "claims": claims, "finished": claims, "failed": 0,
            "instructions": 0, "sim_seconds": 1.0, "inst_per_second": ips,
            "started": started, "stopped": stopped}


def _cell(sim_seconds=None, stall_share=None, attempts=1, poisoned=False,
          finished=True, last_error=None):
    roll = {"claims": 1, "attempts": attempts, "finished": finished,
            "failures": 0, "poisoned": poisoned}
    if sim_seconds is not None:
        roll["sim_seconds"] = sim_seconds
    if stall_share is not None:
        roll["stall_share"] = stall_share
    if last_error is not None:
        roll["last_error"] = last_error
    return roll


def _timeline(workers=None, cells=None, state="complete", reclaimed=0):
    return {
        "campaign": "synthetic", "state": state,
        "workers": workers or {}, "cells": cells or {},
        "lease": {"renewals": 0, "reclaims": 0, "reclaimed_keys": reclaimed},
    }


def _kinds(anomalies):
    return [a["kind"] for a in anomalies]


def test_worker_slow_flags_the_laggard_not_the_fleet():
    timeline = _timeline(workers={
        "w1": _worker(10000.0, claims=4), "w2": _worker(9500.0, claims=4),
        "w3": _worker(2000.0, claims=4),
    })
    anomalies = _detect_anomalies(timeline, AnomalyThresholds())
    assert _kinds(anomalies) == ["worker_slow"]
    assert anomalies[0]["subject"] == "w3"


def test_worker_slow_ignores_paces_read_off_a_few_mixed_kind_cells():
    # Two healthy workers split a three-cell campaign: one draws the fast
    # baseline cell, the other the two slower DLA cells.  Their paces differ
    # by the kinds they drew, not by health, and neither finished
    # ``min_samples`` cells, so neither is compared.
    events = [
        _event("worker.started", owner="w1", mode="worker"),
        _event("cell.finished", owner="w1", key="bl", variant="bl",
               instructions=3000, sim_seconds=0.005),
        _event("worker.stopped", owner="w1", instructions_per_second=602066.0),
        _event("worker.started", owner="w2", mode="worker"),
        _event("cell.finished", owner="w2", key="dla", variant="dla",
               instructions=3000, sim_seconds=0.015),
        _event("cell.finished", owner="w2", key="r3", variant="r3",
               instructions=3000, sim_seconds=0.016),
        _event("worker.stopped", owner="w2", instructions_per_second=194892.0),
    ]
    timeline = _timeline(workers=_worker_rollups(events))
    assert _detect_anomalies(timeline, AnomalyThresholds()) == []


def test_worker_slow_needs_a_fleet_to_compare_against():
    # A single worker has no peers: its own median can never flag it.
    timeline = _timeline(workers={"only": _worker(1.0)})
    assert _detect_anomalies(timeline, AnomalyThresholds()) == []


def test_worker_lost_only_fires_once_the_campaign_settled():
    workers = {"dead": _worker(0.0, stopped=False)}
    settled = _timeline(workers=workers, state="complete")
    live = _timeline(workers=workers, state="running")
    assert _kinds(_detect_anomalies(settled, AnomalyThresholds())) == [
        "worker_lost"]
    # Mid-run, a started-but-not-stopped worker is just busy.
    assert _detect_anomalies(live, AnomalyThresholds()) == []


def test_latency_outlier_is_double_gated():
    flagged = _timeline(cells={
        "k1": _cell(1.0), "k2": _cell(1.1), "k3": _cell(0.9),
        "k4": _cell(1.0), "k5": _cell(9.0),
    })
    anomalies = _detect_anomalies(flagged, AnomalyThresholds())
    assert _kinds(anomalies) == ["cell_latency_outlier"]
    assert anomalies[0]["subject"] == "k5"

    # Huge robust z but under the 3x-median margin: tight fleets with a
    # near-zero MAD must not flag a hair of jitter.
    jitter = _timeline(cells={
        "k1": _cell(1.0), "k2": _cell(1.01), "k3": _cell(0.99),
        "k4": _cell(1.02), "k5": _cell(1.5),
    })
    assert _detect_anomalies(jitter, AnomalyThresholds()) == []


def test_stall_share_outlier_is_double_gated():
    flagged = _timeline(cells={
        "k1": _cell(stall_share=0.10), "k2": _cell(stall_share=0.12),
        "k3": _cell(stall_share=0.11), "k4": _cell(stall_share=0.10),
        "k5": _cell(stall_share=0.90),
    })
    anomalies = _detect_anomalies(flagged, AnomalyThresholds())
    assert _kinds(anomalies) == ["cell_stall_outlier"]
    assert anomalies[0]["subject"] == "k5"

    # z-outlier but within the absolute stall margin of the median.
    mild = _timeline(cells={
        "k1": _cell(stall_share=0.10), "k2": _cell(stall_share=0.11),
        "k3": _cell(stall_share=0.115), "k4": _cell(stall_share=0.30),
    })
    assert _detect_anomalies(mild, AnomalyThresholds()) == []


def test_lease_storm_threshold():
    assert _detect_anomalies(
        _timeline(reclaimed=2), AnomalyThresholds()) == []
    anomalies = _detect_anomalies(_timeline(reclaimed=3), AnomalyThresholds())
    assert _kinds(anomalies) == ["lease_storm"]


def test_retry_hotspot_and_poisoned_cells():
    timeline = _timeline(cells={
        "hot": _cell(attempts=2, last_error="InjectedFault"),
        "dead": _cell(attempts=3, poisoned=True, finished=False,
                      last_error="ValueError"),
        "fine": _cell(attempts=1),
    })
    anomalies = _detect_anomalies(timeline, AnomalyThresholds())
    assert _kinds(anomalies) == ["cell_poisoned", "retry_hotspot",
                                 "retry_hotspot"]
    assert {a["subject"] for a in anomalies} == {"hot", "dead"}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def test_sparkline_shape():
    assert sparkline([]) == ""
    assert sparkline([0, 0, 0]) == "   "
    line = sparkline([1, 5, 10])
    assert len(line) == 3
    assert line[-1] == "@"                      # the peak maps to the top
    assert line[0] != "@"                       # and the rest below it


def test_render_summary_smoke():
    timeline = _timeline(
        workers={"w1": _worker(5000.0)},
        cells={"k1": _cell(1.0, stall_share=0.2, attempts=2,
                           last_error="InjectedFault")},
    )
    timeline.update({
        "cells_planned": 1, "cells_done": 1, "cells_failed": 0,
        "retries": 1, "events": 5,
        "latency": {"cells_timed": 1, "p50_seconds": 1.0,
                    "p90_seconds": 1.0, "max_seconds": 1.0},
        "throughput": {"buckets": [10, 20], "bucket_seconds": 0.5,
                       "total_instructions": 30},
    })
    timeline["anomalies"] = _detect_anomalies(timeline, AnomalyThresholds())
    text = render_summary(timeline)
    assert "campaign synthetic — complete" in text
    assert "w1" in text and "stopped" in text
    assert "cell latency" in text and "p50 1.00s" in text
    assert "throughput [" in text
    assert "! retry_hotspot: k1" in text


# ---------------------------------------------------------------------------
# end-to-end: a real two-worker campaign reconstructs completely
# ---------------------------------------------------------------------------
def test_timeline_reconstructs_two_worker_campaign(cache_dir):
    spec = _spec()
    store = CampaignStore(spec.name)
    schedulers = [_scheduler(spec, store) for _ in range(2)]
    errors = []

    def work(index: int) -> None:
        try:
            schedulers[index].run_worker(
                owner=f"worker-{index}", ttl=60, batch_size=1,
                poll_seconds=0.02, finalize=False,
            )
        except BaseException as error:
            errors.append(error)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    schedulers[0].finalize()

    timeline = build_timeline(store)
    planned = len(schedulers[0].keyed_cells())
    assert timeline["state"] == "complete"
    assert timeline["cells_done"] == planned
    assert timeline["spec_fingerprint"] == spec.fingerprint()

    # Every planned cell appears with a full claim -> finish chain.
    assert len(timeline["cells"]) == planned
    for key, roll in timeline["cells"].items():
        assert roll["claims"] >= 1, key
        assert roll["finished"], key
    counts = timeline["event_counts"]
    assert counts["cell.claimed"] == planned
    assert counts["cell.finished"] == planned
    assert counts["worker.started"] == 2
    assert counts["worker.stopped"] == 2
    assert counts.get("campaign.assembled") == 1

    # Per-worker roll-ups: both stopped cleanly, the fleet finished all.
    workers = {owner: roll for owner, roll in timeline["workers"].items()
               if owner.startswith("worker-")}
    assert len(workers) == 2
    assert all(roll["stopped"] for roll in workers.values())
    assert sum(roll["finished"] for roll in workers.values()) == planned
    simulating = [roll for roll in workers.values()
                  if roll["inst_per_second"] > 0]
    assert simulating                     # at least one worker measured pace

    assert timeline["latency"]["cells_timed"] >= 1
    assert timeline["throughput"]["total_instructions"] > 0
    # A healthy cold run is anomaly-free.
    assert timeline["anomalies"] == []

    # The dashboard renders without touching the store again.
    text = render_summary(timeline)
    assert f"campaign {spec.name} — complete" in text
    assert "anomalies: none" in text


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
def test_monitor_cli_json_and_exit_codes(cache_dir, tmp_path, capsys):
    spec = _spec("monitor-cli")
    store = CampaignStore(spec.name)
    _scheduler(spec, store).run()

    out_file = tmp_path / "timeline.json"
    assert main(["monitor", spec.name, "--json",
                 "--out", str(out_file)]) == 0
    timeline = json.loads(out_file.read_text())
    assert timeline["campaign"] == spec.name
    assert timeline["state"] == "complete"
    assert timeline["anomalies"] == []
    assert timeline["workers"] and timeline["cells"]

    # --summary prints the dashboard.
    assert main(["monitor", spec.name, "--summary"]) == 0
    text = capsys.readouterr().out
    assert "anomalies: none" in text

    # Inject a poisoned-cell event: anomalies flip the exit code to 1.
    EventJournal(store.events_path, "chaos").emit(
        "cell.poisoned", key="deadbeef", attempt=3, error_type="ValueError")
    assert main(["monitor", spec.name, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [a["kind"] for a in payload["anomalies"]] == ["cell_poisoned"]
