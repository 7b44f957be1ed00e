"""Disk-cache integrity: framing, quarantine semantics, crash hygiene."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import time

import pytest

from repro.experiments.cache import (
    ENTRY_MAGIC, ResultDiskCache, decode_entry, encode_entry,
)
from repro.util import faults
from repro.util.durability import ORPHAN_TMP_AGE, sweep_orphan_tmps


@pytest.fixture(autouse=True)
def inert_plan():
    faults.reset()
    yield
    faults.reset()


# ---------------------------------------------------------------------------
# entry framing
# ---------------------------------------------------------------------------
def test_encode_decode_roundtrip():
    body = pickle.dumps({"ipc": 1.25})
    framed = encode_entry(body)
    assert framed.startswith(ENTRY_MAGIC)
    assert decode_entry(framed) == body


@pytest.mark.parametrize("mangle", [
    lambda data: data[:-1],                          # truncated body
    lambda data: data[: len(ENTRY_MAGIC) + 2],       # truncated header
    lambda data: b"NOPE" + data[4:],                 # bad magic
    lambda data: data[:-1] + bytes([data[-1] ^ 1]),  # bit flip
    lambda data: pickle.dumps({"ipc": 1.25}),        # legacy unframed entry
])
def test_decode_rejects_damage(mangle):
    framed = encode_entry(pickle.dumps({"ipc": 1.25}))
    assert decode_entry(mangle(framed)) is None


# ---------------------------------------------------------------------------
# cache behaviour under corruption
# ---------------------------------------------------------------------------
def test_put_get_roundtrip_and_counters(tmp_path):
    cache = ResultDiskCache(tmp_path / "cache")
    cache.put("k1", {"value": 7})
    assert cache.contains("k1")
    assert cache.get("k1") == {"value": 7}
    assert (cache.hits, cache.misses, cache.quarantined) == (1, 0, 0)


def test_corrupt_entry_is_quarantined_not_deleted(tmp_path):
    cache = ResultDiskCache(tmp_path / "cache")
    cache.put("k1", {"value": 7})
    entry = tmp_path / "cache" / "k1.pkl"
    damaged = entry.read_bytes()[:-3]
    entry.write_bytes(damaged)

    assert cache.contains("k1")                  # optimistic probe
    assert cache.get("k1") is None               # but the read is a miss
    assert cache.quarantined == 1
    assert cache.misses == 1
    assert not entry.exists()                    # moved, not deleted...
    moved = tmp_path / "cache" / "quarantine" / "k1.pkl"
    assert moved.read_bytes() == damaged         # ...bytes kept as evidence
    assert cache.quarantine_count() == 1

    # A fresh write re-populates the slot and reads back fine.
    cache.put("k1", {"value": 8})
    assert cache.get("k1") == {"value": 8}


def test_legacy_unframed_entry_is_quarantined(tmp_path):
    cache = ResultDiskCache(tmp_path / "cache")
    (tmp_path / "cache").mkdir(parents=True, exist_ok=True)
    (tmp_path / "cache" / "old.pkl").write_bytes(pickle.dumps({"v": 1}))
    assert cache.get("old") is None
    assert cache.quarantine_count() == 1


def test_unpicklable_body_with_valid_checksum_is_quarantined(tmp_path):
    cache = ResultDiskCache(tmp_path / "cache")
    (tmp_path / "cache").mkdir(parents=True, exist_ok=True)
    # Valid frame, garbage body: checksum passes, pickle.loads cannot.
    (tmp_path / "cache" / "k.pkl").write_bytes(encode_entry(b"not a pickle"))
    assert cache.get("k") is None
    assert cache.quarantined == 1


def test_clear_keeps_quarantine(tmp_path):
    cache = ResultDiskCache(tmp_path / "cache")
    cache.put("good", 1)
    cache.put("bad", 2)
    bad = tmp_path / "cache" / "bad.pkl"
    bad.write_bytes(b"garbage")
    assert cache.get("bad") is None              # quarantines it
    removed = cache.clear()
    assert removed == 1                          # only good.pkl
    assert cache.quarantine_count() == 1         # evidence survives clear()


# ---------------------------------------------------------------------------
# crash hygiene
# ---------------------------------------------------------------------------
def test_orphan_tmp_sweep_is_age_gated(tmp_path):
    directory = tmp_path / "cache"
    directory.mkdir()
    old = directory / f"k.pkl.tmp.{os.getpid()}"
    old.write_bytes(b"torn")
    stale = time.time() - (ORPHAN_TMP_AGE + 60)
    os.utime(old, (stale, stale))
    fresh = directory / "k2.pkl.tmp.12345"
    fresh.write_bytes(b"in flight")

    sweep_orphan_tmps(directory)
    assert not old.exists()                      # aged debris removed
    assert fresh.exists()                        # live writer never raced


def test_cache_open_sweeps_aged_tmp_debris(tmp_path):
    directory = tmp_path / "cache"
    directory.mkdir()
    debris = directory / "k.pkl.tmp.99999"
    debris.write_bytes(b"torn")
    stale = time.time() - (ORPHAN_TMP_AGE + 60)
    os.utime(debris, (stale, stale))
    ResultDiskCache(directory)
    assert not debris.exists()


def test_put_leaves_no_tmp_behind(tmp_path):
    cache = ResultDiskCache(tmp_path / "cache")
    cache.put("k", {"v": 1})
    assert not list((tmp_path / "cache").glob("*.tmp.*"))


# ---------------------------------------------------------------------------
# fault injection at the write seam
# ---------------------------------------------------------------------------
def test_truncate_fault_produces_quarantinable_entry(tmp_path):
    plan = faults.FaultPlan.parse(
        "cache.write:truncate:times=1,attempts=99",
        ledger_dir=tmp_path / "ledger",
    )
    faults.activate(plan)
    cache = ResultDiskCache(tmp_path / "cache")
    cache.put("k", {"value": 7})                 # torn write (fault fires)
    assert cache.contains("k")
    assert cache.get("k") is None                # checksum catches the tear
    assert cache.quarantined == 1

    cache.put("k", {"value": 7})                 # budget spent: clean write
    assert cache.get("k") == {"value": 7}


def test_truncate_fault_tears_only_its_key_inside_the_pack(tmp_path):
    faults.activate(faults.FaultPlan.parse(
        "cache.write:truncate:times=1,match=torn",
        ledger_dir=tmp_path / "ledger"))
    cache = ResultDiskCache(tmp_path / "cache")
    with cache.batch():
        cache.put("before", 1)
        cache.put("torn", 2)
        cache.put("after", 3)
    assert cache.get("before") == 1 and cache.get("after") == 3
    assert cache.get("torn") is None              # its frame alone is torn
    assert cache.quarantined == 1
    assert (tmp_path / "cache" / "quarantine" / "torn.pkl").exists()
    cache.put("torn", 2)                           # the re-simulated cell
    assert cache.get("torn") == 2
    assert (cache.get("before"), cache.get("after")) == (1, 3)


def test_kill_fault_dies_between_stage_and_commit(tmp_path):
    directory = tmp_path / "cache"
    script = (
        "from repro.experiments.cache import ResultDiskCache\n"
        "from repro.util import faults\n"
        f"faults.activate(faults.FaultPlan.parse("
        f"'cache.write:kill:times=1,match=second', "
        f"ledger_dir={str(tmp_path / 'ledger')!r}))\n"
        f"cache = ResultDiskCache({str(directory)!r})\n"
        "with cache.batch():\n"
        "    cache.put('first', 1)\n"
        "    cache.put('second', 2)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          timeout=120)
    assert proc.returncode == 137
    assert list(directory.glob("pack-*.tmp.*"))   # the staged entry
    assert not list(directory.glob("*.pkl"))      # nothing landed
