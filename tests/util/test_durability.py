"""Group commit: every batch is one pack, fsynced before any name links to
it; each directory is fsynced once per commit, and staged entries stay
invisible until then.  Writers sharing one directory (hosts on one shared
cache root) neither reuse each other's temps nor tear each other's names."""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments.cache import ResultDiskCache, encode_entry, read_entry
from repro.util.durability import (
    ORPHAN_TMP_AGE, PACK_TAIL, DurableBatch, atomic_write_bytes, read_packed,
)


@pytest.fixture()
def recorder(monkeypatch):
    """Records every ``os.fsync`` (by the path ``os.open`` opened the
    descriptor with), every ``os.link`` (by its new name) and every
    ``os.replace`` (by its source), in call order."""
    calls, opened = [], {}
    open_, fsync, link, replace = os.open, os.fsync, os.link, os.replace

    def recording_open(path, *args, **kwargs):
        fd = open_(path, *args, **kwargs)
        opened[fd] = os.fspath(path)
        return fd

    def recording_fsync(fd):
        calls.append(("fsync", opened.get(fd)))
        return fsync(fd)

    def recording_link(src, dst, **kwargs):
        calls.append(("link", os.fspath(dst)))
        return link(src, dst, **kwargs)

    def recording_replace(src, dst):
        calls.append(("replace", os.fspath(src)))
        return replace(src, dst)

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "link", recording_link)
    monkeypatch.setattr(os, "replace", recording_replace)
    return calls


def _inodes(paths):
    return {os.stat(path).st_ino for path in paths}


def test_commit_fsyncs_the_pack_before_any_link(tmp_path, recorder):
    names = [tmp_path / "x", tmp_path / "y", tmp_path / "z"]
    batch = DurableBatch()
    for index, name in enumerate(names):
        batch.stage(name, b"entry %d" % index)
    assert [kind for kind, _path in recorder] == []   # staging syncs nothing
    assert not any(name.exists() for name in names)
    batch.commit()
    kinds = [kind for kind, _path in recorder]
    # The pack is fsynced once, before any name refers to it; every name
    # but the last is a link renamed over it, the last takes the pack
    # itself; then the directory is fsynced once.
    assert kinds == ["fsync", "link", "replace", "link", "replace",
                     "replace", "fsync"]
    pack = recorder[0][1]
    assert os.path.basename(pack).startswith("pack-")
    assert recorder[-2] == ("replace", pack)
    assert recorder[-1] == ("fsync", str(tmp_path))
    assert [read_packed(name) for name in names] == [
        b"entry 0", b"entry 1", b"entry 2"]
    assert len(_inodes(names)) == 1
    assert not list(tmp_path.rglob("*.tmp.*"))


def test_a_batch_stays_in_one_directory(tmp_path):
    batch = DurableBatch()
    batch.stage(tmp_path / "a" / "x", b"1")
    with pytest.raises(ValueError):
        batch.stage(tmp_path / "b" / "y", b"2")
    batch.commit()
    assert read_packed(tmp_path / "a" / "x") == b"1"


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


def test_staging_a_name_twice_keeps_the_later_bytes(tmp_path, recorder):
    target = tmp_path / "x"
    with DurableBatch() as batch:
        batch.stage(target, b"old")
        batch.stage(tmp_path / "y", b"other")
        batch.stage(target, b"new")
    assert read_packed(target) == b"new"
    assert read_packed(tmp_path / "y") == b"other"
    # One name, one link-or-rename: a second link of the same inode
    # renamed over it would be a no-op that leaves its temp behind.
    moves = [path for kind, path in recorder if kind in ("link", "replace")]
    assert len(moves) == 3                  # link + replace, pack rename
    assert not list(tmp_path.glob("*.tmp.*"))


def test_atomic_write_bytes_is_a_batch_of_one(tmp_path, recorder):
    atomic_write_bytes(tmp_path / "x", b"data")
    assert [kind for kind, _path in recorder] == ["fsync", "replace", "fsync"]
    assert (tmp_path / "x").read_bytes() == b"data"


def test_a_failed_commit_leaves_no_temp_and_no_final_name(tmp_path,
                                                          monkeypatch):
    batch = DurableBatch()
    batch.stage(tmp_path / "x", b"1")
    batch.stage(tmp_path / "y", b"2")

    def failing_fsync(fd):
        raise OSError("the device went away")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError):
        batch.commit()
    assert sorted(os.listdir(tmp_path)) == []


def test_without_hard_links_every_entry_lands_in_a_pack_of_one(
        tmp_path, monkeypatch):
    def no_links(src, dst, **kwargs):
        raise PermissionError("this filesystem has no hard links")

    monkeypatch.setattr(os, "link", no_links)
    names = [tmp_path / f"k{index}" for index in range(4)]
    with DurableBatch() as batch:
        for index, name in enumerate(names):
            batch.stage(name, b"entry %d" % index)
    assert [read_packed(name) for name in names] == [
        b"entry %d" % index for index in range(4)]
    assert len(_inodes(names)) == 4
    assert not list(tmp_path.glob("*.tmp.*"))


def test_a_copy_of_a_pack_reads_like_its_link(tmp_path):
    import shutil

    with DurableBatch() as batch:
        batch.stage(tmp_path / "a" / "x", b"one")
        batch.stage(tmp_path / "a" / "y", b"two")
    (tmp_path / "b").mkdir()
    for name in ("x", "y"):
        shutil.copy(tmp_path / "a" / name, tmp_path / "b" / name)
        assert read_packed(tmp_path / "b" / name) == read_packed(
            tmp_path / "a" / name)
    # A name the pack does not list reads as nothing, not as a sibling.
    shutil.copy(tmp_path / "a" / "x", tmp_path / "b" / "z")
    assert read_packed(tmp_path / "b" / "z") is None


def test_a_plain_file_reads_as_itself(tmp_path):
    atomic_write_bytes(tmp_path / "x", b"a bare entry")
    assert read_packed(tmp_path / "x") == b"a bare entry"
    with pytest.raises(OSError):
        read_packed(tmp_path / "missing")


def test_a_packed_entry_reads_its_frame_plus_at_most_one_tail(
        tmp_path, monkeypatch):
    cache = ResultDiskCache(tmp_path)
    with cache.batch():
        for index in range(7):
            cache.put(f"cell-{index}", "payload %d" % index * 4000)
    names = sorted(tmp_path.glob("*.pkl"))
    assert len(names) == 7 and len(_inodes(names)) == 1
    pack_size = names[0].stat().st_size
    frames = [len(encode_entry(read_entry(name))) for name in names]

    reads = []
    pread = os.pread

    def counted_pread(fd, length, offset):
        data = pread(fd, length, offset)
        reads.append(len(data))
        return data

    monkeypatch.setattr(os, "pread", counted_pread)
    total = 0
    for name, frame in zip(names, frames):
        reads.clear()
        assert len(read_packed(name)) == frame
        # The entry's own frame plus at most one read of the pack's tail,
        # never the whole pack.
        assert frame <= sum(reads) <= frame + PACK_TAIL
        total += sum(reads)
    assert total < 2 * pack_size


# ---------------------------------------------------------------------------
# writers sharing one directory
# ---------------------------------------------------------------------------
def test_a_clashing_pack_temp_is_skipped_not_reused(tmp_path, monkeypatch):
    """Another writer with this pid (on another host) owns ``pack-<n>``:
    the batch takes the next number and leaves that file alone."""
    import itertools

    from repro.util import durability

    monkeypatch.setattr(durability, "_PACK_IDS", itertools.count(7))
    theirs = tmp_path / f"pack-7.tmp.{os.getpid()}"
    theirs.write_bytes(b"another writer's staged entries")
    with DurableBatch() as batch:
        batch.stage(tmp_path / "x", b"one")
        batch.stage(tmp_path / "y", b"two")
    assert theirs.read_bytes() == b"another writer's staged entries"
    assert read_packed(tmp_path / "x") == b"one"
    assert read_packed(tmp_path / "y") == b"two"
    assert theirs.stat().st_ino not in _inodes([tmp_path / "x"])
    assert sorted(path.name for path in tmp_path.glob("*.tmp.*")) == [
        theirs.name]


def test_a_leftover_link_temp_is_replaced_by_the_commit(tmp_path):
    """A killed writer with this pid left ``<name>.tmp.<pid>`` behind: the
    commit links the pack over it and every name reads its own bytes."""
    (tmp_path / f"x.tmp.{os.getpid()}").write_bytes(b"torn")
    with DurableBatch() as batch:
        batch.stage(tmp_path / "x", b"one")
        batch.stage(tmp_path / "y", b"two")
    assert read_packed(tmp_path / "x") == b"one"
    assert read_packed(tmp_path / "y") == b"two"
    assert not list(tmp_path.glob("*.tmp.*"))


def test_two_writers_of_one_name_leave_its_bytes(tmp_path):
    """Two caches on one root, each storing its own cell and the same
    setup entry in interleaved group commits: the setup reads back whichever
    rename landed last, with the bytes both wrote, and both cells land."""
    first, second = ResultDiskCache(tmp_path), ResultDiskCache(tmp_path)
    setup = {"trace": list(range(64))}
    with first.batch():
        first.put("setup", setup)
        first.put("cell-a", "a")
        with second.batch():
            second.put("setup", setup)
            second.put("cell-b", "b")
    assert len(_inodes(tmp_path.glob("*.pkl"))) == 2
    for reader in (first, second, ResultDiskCache(tmp_path)):
        assert reader.get("setup") == setup
        assert (reader.get("cell-a"), reader.get("cell-b")) == ("a", "b")
    assert not list(tmp_path.glob("*.tmp.*"))


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
    # One fsync of the pack, a link renamed over each of four names, the
    # pack itself renamed over the fifth, one directory fsync.
    assert kinds == ["fsync"] + ["link", "replace"] * 4 + ["replace", "fsync"]
    assert [cache.get(f"k{index}") for index in range(5)] == list(range(5))
    assert len(_inodes((tmp_path / "cache").glob("*.pkl"))) == 1


def test_an_aged_pack_temp_is_swept_on_cache_open(tmp_path):
    directory = tmp_path / "cache"
    directory.mkdir()
    aged = directory / "pack-3.tmp.99999"
    aged.write_bytes(b"a killed writer's staged entries")
    stale = time.time() - (ORPHAN_TMP_AGE + 60)
    os.utime(aged, (stale, stale))
    live = directory / "pack-4.tmp.99999"
    live.write_bytes(b"a live writer's staged entries")
    ResultDiskCache(directory)
    assert not aged.exists()
    assert live.exists()
