"""The fabric cell-sync transport: idempotent, batched, torn-transfer-safe.

Covers the contract :mod:`repro.campaign.fabric.sync` promises the
dispatcher and CI:

* push/pull move checksum-framed cache entries and are idempotent (a
  re-sync copies nothing);
* entries travel in sorted fixed-size batches (the report counts them);
* a torn/corrupt entry is quarantined on its own side and never crosses —
  pull refuses a corrupt shared entry, push refuses a corrupt local one;
* campaign state merges monotonically: journals by size, failure records
  by attempt count, leases copy only when absent;
* a campaign filter restricts cell movement to the manifest's keys;
* a remote (``host:/path``) target is refused, never taken for a local
  directory.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.campaign.cli import main
from repro.campaign.fabric.sync import CacheSync, SyncError
from repro.experiments.cache import (
    QUARANTINE_DIR, ResultDiskCache, encode_entry, read_entry, salted_key,
)
from repro.util.durability import PACK_TAIL


def _write_entry(root, name, payload="payload"):
    root.mkdir(parents=True, exist_ok=True)
    data = encode_entry(pickle.dumps(payload))
    (root / f"{name}.pkl").write_bytes(data)
    return data


def _write_torn_entry(root, name):
    root.mkdir(parents=True, exist_ok=True)
    good = encode_entry(pickle.dumps("payload"))
    (root / f"{name}.pkl").write_bytes(good[: len(good) - 3])


@pytest.fixture()
def roots(tmp_path):
    return tmp_path / "local", tmp_path / "shared"


# ---------------------------------------------------------------------------
# push/pull basics
# ---------------------------------------------------------------------------
def test_push_then_pull_round_trip_and_idempotence(roots):
    local, shared = roots
    for i in range(3):
        _write_entry(local, f"cell-{i}")
    sync = CacheSync(local_root=local, target=shared)

    report = sync.push()
    assert report.entries_copied == 3 and report.entries_skipped == 0
    assert sorted(p.name for p in shared.glob("*.pkl")) == [
        "cell-0.pkl", "cell-1.pkl", "cell-2.pkl"]

    # Re-push: everything already present, nothing moves.
    again = sync.push()
    assert again.entries_copied == 0 and again.entries_skipped == 3

    # Pull into a fresh root gets byte-identical entries (each name's own
    # frame, out of the pack it landed in).
    other = local.parent / "other"
    other_sync = CacheSync(local_root=other, target=shared)
    pulled = other_sync.pull()
    assert pulled.entries_copied == 3
    for name in ("cell-0", "cell-1", "cell-2"):
        body = read_entry(other / f"{name}.pkl")
        assert body is not None
        assert body == read_entry(local / f"{name}.pkl")
    assert other_sync.pull().entries_copied == 0


def test_entries_move_in_sorted_fixed_size_batches(roots):
    local, shared = roots
    for i in range(5):
        _write_entry(local, f"cell-{i}")
    report = CacheSync(local_root=local, target=shared, batch_size=2).push()
    assert report.batches == 3          # ceil(5 / 2)
    assert report.entries_total == 5


def test_a_packed_group_moves_its_frames_once_into_one_pack(roots,
                                                            monkeypatch):
    local, shared = roots
    cache = ResultDiskCache(local)
    with cache.batch():
        for index in range(7):
            cache.put(f"cell-{index}", "payload %d" % index * 4000)
    names = sorted(path.name for path in local.glob("*.pkl"))
    pack_size = (local / names[0]).stat().st_size
    frames = sum(len(encode_entry(read_entry(local / name)))
                 for name in names)

    read = []
    pread = os.pread

    def counted_pread(fd, length, offset):
        data = pread(fd, length, offset)
        read.append(len(data))
        return data

    monkeypatch.setattr(os, "pread", counted_pread)
    report = CacheSync(local_root=local, target=shared).push()
    assert report.entries_copied == 7 and report.batches == 1
    # One inode per sync batch at the destination ...
    assert len({(shared / name).stat().st_ino for name in names}) == 1
    # ... holding each entry's own frame once, not the source pack 7 times.
    assert (shared / names[0]).stat().st_size < pack_size * 1.1
    # Each entry read is its own frame plus at most one tail read.
    assert frames <= sum(read) <= frames + len(names) * PACK_TAIL
    assert sum(read) < 2 * pack_size
    for name in names:
        assert read_entry(shared / name) == read_entry(local / name)


def test_sync_rejects_degenerate_configuration(tmp_path):
    with pytest.raises(SyncError):
        CacheSync(local_root=tmp_path, target=None)
    with pytest.raises(SyncError):
        CacheSync(local_root=tmp_path, target=tmp_path)
    with pytest.raises(SyncError):
        CacheSync(local_root=tmp_path, target=tmp_path / "s", batch_size=0)


# ---------------------------------------------------------------------------
# torn-transfer safety
# ---------------------------------------------------------------------------
def test_pull_quarantines_torn_shared_entry(roots):
    local, shared = roots
    _write_entry(shared, "good")
    _write_torn_entry(shared, "torn")
    report = CacheSync(local_root=local, target=shared).pull()
    assert report.entries_copied == 1 and report.entries_corrupt == 1
    assert (local / "good.pkl").exists()
    assert not (local / "torn.pkl").exists()
    # Quarantined on the shared side, never deleted; gone from next pulls.
    assert (shared / QUARANTINE_DIR / "torn.pkl").exists()
    assert not (shared / "torn.pkl").exists()
    assert CacheSync(local_root=local, target=shared).pull().entries_corrupt == 0


def test_push_refuses_corrupt_local_entry(roots):
    local, shared = roots
    _write_entry(local, "good")
    (local / "rotten.pkl").write_bytes(b"not an entry at all")
    report = CacheSync(local_root=local, target=shared).push()
    assert report.entries_copied == 1 and report.entries_corrupt == 1
    assert not (shared / "rotten.pkl").exists()
    assert (local / QUARANTINE_DIR / "rotten.pkl").exists()


# ---------------------------------------------------------------------------
# campaign filter + state merge
# ---------------------------------------------------------------------------
def _write_manifest(root, campaign, keys):
    directory = root / "campaigns" / campaign
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"campaign": campaign,
                "cells": {key: {"state": "planned"} for key in keys}}
    (directory / "manifest.json").write_text(json.dumps(manifest))


def test_campaign_filter_moves_only_manifest_cells(roots):
    local, shared = roots
    _write_manifest(local, "camp", ["mine"])
    wanted = salted_key("mine")
    _write_entry(local, wanted)
    _write_entry(local, "unrelated")
    report = CacheSync(local_root=local, target=shared).push(campaign="camp")
    assert report.entries_copied == 1
    assert (shared / f"{wanted}.pkl").exists()
    assert not (shared / "unrelated.pkl").exists()


def test_state_merge_is_monotonic(roots):
    local, shared = roots
    base_l = local / "campaigns" / "camp"
    base_s = shared / "campaigns" / "camp"
    for base in (base_l, base_s):
        for sub in ("events", "failures", "leases"):
            (base / sub).mkdir(parents=True, exist_ok=True)
    _write_manifest(local, "camp", [])

    # Journals: longer source wins, shorter never clobbers.
    (base_l / "events" / "w1.jsonl").write_text("line1\nline2\n")
    (base_s / "events" / "w1.jsonl").write_text("line1\n")
    (base_s / "events" / "w2.jsonl").write_text("a much longer journal\n")
    (base_l / "events" / "w2.jsonl").write_text("short\n")
    # Failures: higher attempt count wins.
    (base_l / "failures" / "cell.json").write_text(
        json.dumps({"attempts": 3, "error_type": "ValueError"}))
    (base_s / "failures" / "cell.json").write_text(
        json.dumps({"attempts": 1, "error_type": "ValueError"}))
    (base_s / "failures" / "other.json").write_text(
        json.dumps({"attempts": 2}))
    # Leases: copy only when absent.
    (base_l / "leases" / "k1.json").write_text(json.dumps({"owner": "me"}))
    (base_s / "leases" / "k1.json").write_text(json.dumps({"owner": "you"}))
    (base_l / "leases" / "k2.json").write_text(json.dumps({"owner": "me"}))

    report = CacheSync(local_root=local, target=shared).push(campaign="camp")
    assert report.state_copied > 0

    assert (base_s / "events" / "w1.jsonl").read_text() == "line1\nline2\n"
    assert (base_s / "events" / "w2.jsonl").read_text() \
        == "a much longer journal\n"
    assert json.loads((base_s / "failures" / "cell.json").read_text())[
        "attempts"] == 3
    assert json.loads((base_s / "failures" / "other.json").read_text())[
        "attempts"] == 2
    assert json.loads((base_s / "leases" / "k1.json").read_text())[
        "owner"] == "you"
    assert json.loads((base_s / "leases" / "k2.json").read_text())[
        "owner"] == "me"

    # And the mirror direction respects the same rules.
    pull = CacheSync(local_root=local, target=shared).pull(campaign="camp")
    assert (base_l / "failures" / "other.json").exists()
    assert json.loads((base_l / "leases" / "k1.json").read_text())[
        "owner"] == "me"
    assert pull.state_copied >= 1


# ---------------------------------------------------------------------------
# remote targets
# ---------------------------------------------------------------------------
def test_remote_target_is_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for spec in ("host:/srv/cache", "user@host:/srv/cache",
                 "rsync://host/cache"):
        with pytest.raises(SyncError, match="mount the shared root"):
            CacheSync(local_root=tmp_path / "local", target=spec)
    assert main(["sync", "push", "--shared", "user@host:/x"]) != 0
    assert "mount the shared root" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == []
