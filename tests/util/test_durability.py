"""Group commit: every temp is fsynced before its rename, each directory is
fsynced once per commit, and staged entries stay invisible until then."""

from __future__ import annotations

import os

import pytest

from repro.experiments.cache import ResultDiskCache
from repro.util.durability import DurableBatch, atomic_write_bytes


@pytest.fixture()
def recorder(monkeypatch):
    """Records every ``os.fsync`` (by the path ``os.open`` opened the
    descriptor with) and every ``os.replace`` (by its source), in call
    order."""
    calls, opened = [], {}
    open_, fsync, replace = os.open, os.fsync, os.replace

    def recording_open(path, *args, **kwargs):
        fd = open_(path, *args, **kwargs)
        opened[fd] = os.fspath(path)
        return fd

    def recording_fsync(fd):
        calls.append(("fsync", opened.get(fd)))
        return fsync(fd)

    def recording_replace(src, dst):
        calls.append(("replace", os.fspath(src)))
        return replace(src, dst)

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    return calls


def test_commit_fsyncs_every_temp_before_any_rename(tmp_path, recorder):
    first, second = tmp_path / "a" / "x", tmp_path / "b" / "y"
    batch = DurableBatch()
    batch.stage(first, b"one")
    batch.stage(second, b"two")
    batch.stage(tmp_path / "a" / "z", b"three")
    assert recorder == []                   # staging syncs nothing
    batch.commit()
    kinds = [kind for kind, _path in recorder]
    assert kinds == ["fsync"] * 3 + ["replace"] * 3 + ["fsync"] * 2
    synced = {path for _kind, path in recorder[:3]}
    assert synced == {path for _kind, path in recorder[3:6]}
    # One fsync per touched directory, not per entry.
    assert [path for _kind, path in recorder[6:]] == [
        str(tmp_path / "a"), str(tmp_path / "b")]
    assert first.read_bytes() == b"one" and second.read_bytes() == b"two"
    assert not list(tmp_path.rglob("*.tmp.*"))


def test_an_empty_commit_touches_nothing(tmp_path, recorder):
    DurableBatch().commit()
    with DurableBatch():
        pass
    assert recorder == []


def test_a_committed_batch_is_empty(tmp_path, recorder):
    batch = DurableBatch()
    batch.stage(tmp_path / "x", b"1")
    batch.commit()
    del recorder[:]
    batch.commit()
    assert recorder == []


def test_staging_a_name_twice_keeps_the_later_bytes(tmp_path):
    target = tmp_path / "x"
    with DurableBatch() as batch:
        batch.stage(target, b"old")
        batch.stage(target, b"new")
    assert target.read_bytes() == b"new"
    assert not list(tmp_path.glob("*.tmp.*"))


def test_atomic_write_bytes_is_a_batch_of_one(tmp_path, recorder):
    atomic_write_bytes(tmp_path / "x", b"data")
    assert [kind for kind, _path in recorder] == ["fsync", "replace", "fsync"]
    assert (tmp_path / "x").read_bytes() == b"data"


def test_a_failed_commit_leaves_no_temp_and_no_final_name(tmp_path):
    batch = DurableBatch()
    batch.stage(tmp_path / "x", b"1")
    batch.stage(tmp_path / "y", b"2")
    os.unlink(tmp_path / f"y.tmp.{os.getpid()}")
    with pytest.raises(FileNotFoundError):
        batch.commit()
    assert sorted(os.listdir(tmp_path)) == []


# ---------------------------------------------------------------------------
# the disk cache's batch block
# ---------------------------------------------------------------------------
def test_staged_entries_do_not_read_back_until_the_commit(tmp_path):
    cache = ResultDiskCache(tmp_path / "cache")
    with cache.batch():
        cache.put("k", {"v": 1})
        assert not cache.contains("k")
        assert cache.get("k") is None
    assert cache.get("k") == {"v": 1}
    assert not list((tmp_path / "cache").glob("*.tmp.*"))


def test_an_exception_in_the_block_still_commits(tmp_path):
    cache = ResultDiskCache(tmp_path / "cache")
    with pytest.raises(RuntimeError):
        with cache.batch():
            cache.put("k", {"v": 2})
            raise RuntimeError("the group failed after its first cell")
    assert cache.get("k") == {"v": 2}


def test_a_nested_block_commits_its_own_entries(tmp_path):
    cache = ResultDiskCache(tmp_path / "cache")
    with cache.batch():
        cache.put("outer", 1)
        with cache.batch():
            cache.put("inner", 2)
        assert cache.get("inner") == 2
        assert cache.get("outer") is None
    assert cache.get("outer") == 1


def test_a_group_of_puts_is_one_fsync_burst(tmp_path, recorder):
    cache = ResultDiskCache(tmp_path / "cache")
    with cache.batch():
        for index in range(5):
            cache.put(f"k{index}", index)
    kinds = [kind for kind, _path in recorder]
    assert kinds == ["fsync"] * 5 + ["replace"] * 5 + ["fsync"]
