"""Event-journal primitives and the store's telemetry hygiene sweeps."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.campaign.store import CampaignStore
from repro.campaign.telemetry import (
    EventJournal, event_counts, journal_filename, load_events, read_journal,
    sweep_stale_journals,
)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    path = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
    monkeypatch.delenv("REPRO_FAULTS_LEDGER", raising=False)
    return path


def _smoke_spec():
    from repro.campaign.registry import get_campaign

    return get_campaign("smoke")


# ---------------------------------------------------------------------------
# journal primitives
# ---------------------------------------------------------------------------
def test_emit_and_read_round_trip(tmp_path):
    journal = EventJournal(tmp_path / "events", "worker-1")
    journal.emit("worker.started", mode="worker", cells=4)
    journal.emit("cell.finished", key="abc123", instructions=1000,
                 stall_share=0.25)

    events = read_journal(journal.path)
    assert [e["event"] for e in events] == ["worker.started", "cell.finished"]
    assert [e["seq"] for e in events] == [0, 1]
    assert all(e["owner"] == "worker-1" for e in events)
    assert all("t_wall" in e and "t_mono" in e for e in events)
    assert events[1]["key"] == "abc123"
    assert events[1]["instructions"] == 1000


def test_emit_drops_none_fields(tmp_path):
    journal = EventJournal(tmp_path / "events", "w")
    record = journal.emit("cell.failed", key="k", error_type="ValueError",
                          message=None)
    assert "message" not in record
    assert read_journal(journal.path)[0]["error_type"] == "ValueError"


def test_owner_name_is_sanitised_for_the_filesystem(tmp_path):
    assert journal_filename("host-1.example-99") == "host-1.example-99.jsonl"
    assert journal_filename("bad/owner name") == "bad_owner_name.jsonl"
    assert journal_filename("") == "owner.jsonl"
    journal = EventJournal(tmp_path / "events", "a/b:c")
    journal.emit("worker.started")
    assert journal.path.name == "a_b_c.jsonl"
    assert journal.path.exists()


def test_torn_tail_frame_is_skipped_not_fatal(tmp_path):
    journal = EventJournal(tmp_path / "events", "w")
    journal.emit("cell.started", key="k1")
    journal.emit("cell.finished", key="k1")
    # Simulate a crash mid-append: a partial JSON line at the tail.
    with open(journal.path, "a") as fh:
        fh.write('{"event": "cell.sta')
    events = read_journal(journal.path)
    assert [e["event"] for e in events] == ["cell.started", "cell.finished"]


def test_disabled_journal_emits_nothing(tmp_path):
    journal = EventJournal(tmp_path / "events", "w", enabled=False)
    assert journal.emit("worker.started") is None
    assert not journal.path.exists()


def test_write_failure_disables_instead_of_raising(tmp_path):
    # Point the journal at a path whose parent is a *file* — mkdir fails.
    blocker = tmp_path / "events"
    blocker.write_text("not a directory")
    journal = EventJournal(blocker, "w")
    assert journal.emit("worker.started") is None
    assert journal.enabled is False


def test_load_events_merges_deterministically(tmp_path):
    events_dir = tmp_path / "events"
    a = EventJournal(events_dir, "worker-a")
    b = EventJournal(events_dir, "worker-b")
    a.emit("cell.claimed", key="k1")
    b.emit("cell.claimed", key="k2")
    a.emit("cell.finished", key="k1")

    merged = load_events(events_dir)
    assert len(merged) == 3
    # Deterministic: merging the same files twice yields identical output.
    assert merged == load_events(events_dir)
    # Total order: sorted by (t_wall, owner, seq).
    keys = [(e["t_wall"], e["owner"], e["seq"]) for e in merged]
    assert keys == sorted(keys)
    assert event_counts(merged) == {"cell.claimed": 2, "cell.finished": 1}


def test_load_events_on_missing_directory_is_empty(tmp_path):
    assert load_events(tmp_path / "nope") == []


# ---------------------------------------------------------------------------
# hygiene sweeps (store open path)
# ---------------------------------------------------------------------------
def _age(path, seconds):
    old = time.time() - seconds
    os.utime(path, (old, old))


def test_sweep_stale_journals_is_age_gated(tmp_path):
    events_dir = tmp_path / "events"
    fresh = EventJournal(events_dir, "fresh")
    fresh.emit("worker.started")
    stale = EventJournal(events_dir, "stale")
    stale.emit("worker.started")
    _age(stale.path, 8 * 24 * 3600)

    removed = sweep_stale_journals(events_dir)
    assert removed == [stale.path]
    assert fresh.path.exists()

    # clear=True drops everything regardless of age.
    assert sweep_stale_journals(events_dir, clear=True) == [fresh.path]
    assert load_events(events_dir) == []


def test_journal_ttl_env_tunes_the_sweep_age(tmp_path, monkeypatch):
    from repro.campaign.telemetry import (
        JOURNAL_TTL_ENV, STALE_JOURNAL_AGE, stale_journal_age,
    )

    monkeypatch.delenv(JOURNAL_TTL_ENV, raising=False)
    assert stale_journal_age() == STALE_JOURNAL_AGE
    monkeypatch.setenv(JOURNAL_TTL_ENV, "0.5")
    assert stale_journal_age() == 0.5 * 24 * 3600
    # Typos and non-positive values fall back — hygiene must never turn a
    # bad env var into an instant journal wipe.
    for bad in ("nonsense", "0", "-3", ""):
        monkeypatch.setenv(JOURNAL_TTL_ENV, bad)
        assert stale_journal_age() == STALE_JOURNAL_AGE

    # End to end: a 2-hour-old journal survives the default sweep but is
    # swept once the TTL is tightened below its age.
    events_dir = tmp_path / "events"
    journal = EventJournal(events_dir, "fleet-host")
    journal.emit("worker.started")
    _age(journal.path, 2 * 3600)
    monkeypatch.delenv(JOURNAL_TTL_ENV, raising=False)
    assert sweep_stale_journals(events_dir) == []
    monkeypatch.setenv(JOURNAL_TTL_ENV, str(1 / 24))   # one hour
    assert sweep_stale_journals(events_dir) == [journal.path]


def test_store_begin_sweeps_stale_journals_and_fault_ledger(cache_dir):
    spec = _smoke_spec()
    store = CampaignStore(spec.name)
    stale = EventJournal(store.events_path, "long-dead")
    stale.emit("worker.started")
    _age(stale.path, 8 * 24 * 3600)
    fresh = EventJournal(store.events_path, "alive")
    fresh.emit("worker.started")

    ledger = cache_dir / "faults"
    ledger.mkdir(parents=True)
    old_marker = ledger / "deadbeef.0"
    old_marker.write_text("")
    _age(old_marker, 2 * 24 * 3600)
    new_marker = ledger / "cafebabe.0"
    new_marker.write_text("")

    store.begin(spec, "quick", {})
    assert not stale.path.exists()          # aged journal swept
    assert fresh.path.exists()              # live journal kept
    assert not old_marker.exists()          # aged fire-ledger marker swept
    assert new_marker.exists()              # recent marker kept (live chaos run)


def test_store_begin_clears_journals_on_spec_change(cache_dir):
    spec = _smoke_spec()
    store = CampaignStore(spec.name)
    store.begin(spec, "quick", {})
    journal = EventJournal(store.events_path, "w")
    journal.emit("worker.started")

    # Same spec + mode: journals survive (resume keeps history).
    store.begin(spec, "quick", {})
    assert journal.path.exists()

    # Mode change resets the manifest — old journals describe a different
    # campaign shape and are dropped wholesale, age regardless.
    store.begin(spec, "full", {})
    assert not journal.path.exists()


def test_status_carries_fingerprint_and_telemetry_counters(cache_dir):
    spec = _smoke_spec()
    store = CampaignStore(spec.name)
    store.begin(spec, "quick", {})
    EventJournal(store.events_path, "w1").emit("worker.started")
    EventJournal(store.events_path, "w2").emit("cell.claimed", key="k")

    status = store.status()
    assert status["spec_fingerprint"] == spec.fingerprint()
    assert status["telemetry"]["events"] == 2
    assert status["telemetry"]["owners"] == 2
    assert status["telemetry"]["event_counts"] == {
        "cell.claimed": 1, "worker.started": 1,
    }


def test_store_clear_removes_event_journals(cache_dir):
    spec = _smoke_spec()
    store = CampaignStore(spec.name)
    store.begin(spec, "quick", {})
    journal = EventJournal(store.events_path, "w")
    journal.emit("worker.started")

    store.clear()
    assert not journal.path.exists()
    assert not store.events_path.exists()


def test_journal_lines_are_valid_sorted_json(tmp_path):
    journal = EventJournal(tmp_path / "events", "w")
    journal.emit("cell.finished", key="k", instructions=5, stall_share=0.1)
    line = journal.path.read_text().strip()
    record = json.loads(line)
    assert list(record) == sorted(record)   # sort_keys=True on every frame


# ---------------------------------------------------------------------------
# journal rounds
# ---------------------------------------------------------------------------
def test_a_round_holds_cell_frames_until_its_flush(tmp_path):
    journal = EventJournal(tmp_path / "events", "w")
    with journal.round():
        journal.emit("cell.started", key="a")
        journal.emit("cell.claimed", key="a")      # never held
        assert [e["event"] for e in read_journal(journal.path)] == [
            "cell.claimed"]
        journal.flush()
        journal.emit("cell.finished", key="a")
        journal.emit("lease.renewed", count=1)     # never held
    events = read_journal(journal.path)
    assert [e["event"] for e in events] == [
        "cell.claimed", "cell.started", "lease.renewed", "cell.finished"]
    # Sequence numbers follow emission, whatever the write order.
    assert sorted(e["seq"] for e in events) == [0, 1, 2, 3]
    assert [e["seq"] for e in events if e["event"] == "cell.started"] == [0]


def test_a_round_flushes_its_frames_on_an_exception(tmp_path):
    journal = EventJournal(tmp_path / "events", "w")
    with pytest.raises(RuntimeError):
        with journal.round():
            journal.emit("cell.failed", key="a")
            raise RuntimeError("mid-round")
    assert [e["event"] for e in read_journal(journal.path)] == ["cell.failed"]
    journal.emit("cell.finished", key="b")     # outside a round: at once
    assert len(read_journal(journal.path)) == 2


def _two_cell_scheduler(cache_dir, tmp_path):
    from repro.campaign.scheduler import CampaignScheduler
    from repro.campaign.spec import CampaignSpec, variants
    from repro.experiments.parallel import ParallelExperimentRunner

    spec = CampaignSpec(
        name="round-test", title="Journal rounds",
        experiment="repro.experiments.fig10_energy",
        workloads=("libquantum",),
        variants=variants(dict(name="bl", kind="baseline"),
                          dict(name="dla", kind="dla", dla_preset="dla")),
        warmup_instructions=1000, timed_instructions=1000,
    )
    runner = ParallelExperimentRunner(
        quick=True, workload_names=spec.resolve_workloads(),
        warmup_instructions=1000, timed_instructions=1000, processes=1)
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    return CampaignScheduler(spec, store=store, runner=runner)


def _record_appends(monkeypatch):
    """The event names of every journal append, one list per write."""
    import repro.campaign.telemetry as telemetry

    writes = []
    append = telemetry.append_durable

    def recording(path, data):
        writes.append([json.loads(line)["event"]
                       for line in data.decode("utf-8").splitlines()])
        return append(path, data)

    monkeypatch.setattr(telemetry, "append_durable", recording)
    return writes


def test_an_unleased_round_writes_its_cell_frames_twice(cache_dir, tmp_path,
                                                        monkeypatch):
    scheduler = _two_cell_scheduler(cache_dir, tmp_path)
    writes = _record_appends(monkeypatch)
    summary = scheduler.run()
    assert summary["cells_simulated"] == 2
    cell_writes = [events for events in writes
                   if any(name.startswith("cell.") for name in events)]
    assert cell_writes == [["cell.started"] * 2, ["cell.finished"] * 2]


def test_claims_are_on_disk_before_the_round_simulates(cache_dir, tmp_path,
                                                       monkeypatch):
    scheduler = _two_cell_scheduler(cache_dir, tmp_path)
    seen = []
    warm_isolated = scheduler.runner.warm_isolated

    def observing(requests, **kwargs):
        seen.append([e["event"] for e in read_journal(scheduler.journal.path)])
        return warm_isolated(requests, **kwargs)

    monkeypatch.setattr(scheduler.runner, "warm_isolated", observing)
    summary = scheduler.run_worker(owner="w", batch_size=2, poll_seconds=0.01,
                                   finalize=False)
    assert summary["cells_simulated"] == 2 and len(seen) == 2
    first, second = seen
    assert first[:4] == ["worker.started", "cell.claimed", "cell.claimed",
                         "cell.started"]
    assert second[-1] == "cell.started"
    assert second.count("cell.finished") == 1


@pytest.mark.parametrize("module", ["fig11_smt", "table03_mpki", "fig01_ilp"])
def test_finished_cells_journal_their_committed_instructions(cache_dir,
                                                             module):
    """Every kind's ``cell.finished`` event carries the instructions its
    outcome committed: the SMT pair, L1-split and ILP cells included, whose
    outcomes are neither baseline- nor DLA-shaped."""
    import dataclasses
    import importlib

    from repro.campaign.scheduler import CampaignScheduler
    from repro.experiments.runner import committed_instructions

    campaign = importlib.import_module(f"repro.experiments.{module}").CAMPAIGN
    spec = dataclasses.replace(campaign, workloads=("mcf",),
                               warmup_instructions=1500,
                               timed_instructions=1500)
    scheduler = CampaignScheduler(spec, processes=1)
    scheduler.run()
    finished = [event for event in load_events(scheduler.store.events_path)
                if event["event"] == "cell.finished"]
    assert len(finished) == len(scheduler.keyed_cells())
    for event in finished:
        outcome = scheduler.runner.cached_outcome(event["key"])
        assert event["instructions"] == committed_instructions(outcome) > 0
