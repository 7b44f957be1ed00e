"""Crash-consistent file writes and orphaned-temp-file hygiene.

Every durable artifact in this codebase (disk-cache entries, campaign
manifests, failure records) is written with the same two-step contract:
write a sibling temp file, then atomically ``os.replace`` it over the final
name.  That protects *readers* from partial files, but not the files
themselves from a crash: without an ``fsync`` the rename can be durable
while the data is not (a power loss can leave a zero-length or truncated
final file on some filesystems), and a process killed between "write temp"
and "rename" leaves ``*.tmp.*`` debris behind.

This module hardens both edges:

* :class:`DurableBatch` is the batched write path.  ``stage`` appends an
  entry's bytes, unchanged, to one temp *pack* file per batch; ``commit``
  appends the pack's index, fsyncs the pack once, gives every staged name
  the pack's inode (a hard link renamed over the name) and fsyncs the
  directory once.  A crash can therefore never promote un-synced data to
  a final name, and a batch of many entries creates one file and pays one
  fsync instead of a file and a fsync per entry.  A process killed before
  its commit loses its staged entries (they stay in the temp pack), never
  a final name's integrity.  :func:`read_packed` reads one name's entry
  back;
* :func:`atomic_write_bytes` / :func:`atomic_write_text` write one plain
  file (temp + fsync + rename + directory fsync), or stage an entry into a
  caller's batch;
* :func:`append_durable` appends fully-formed frames to a log file and
  fsyncs before returning, so an append-only journal survives a crash with
  at worst a torn *final* frame (readers must tolerate exactly that);
* :func:`sweep_orphan_tmps` removes aged ``*.tmp.*`` files on store/cache
  open, so debris from a mid-write crash cannot accumulate or trip later
  reads.  The sweep is age-gated (default 10 minutes) so it can never race
  a live writer's in-flight temp file.  :func:`sweep_aged_files` is the
  generic form: any accumulating per-run debris (fault-injection fire
  ledgers, stale worker journals) gets the same age-gated hygiene.

Everything is best-effort on errors: durability hardening must never turn a
read-only or full filesystem into a crash (the caches and stores already
degrade gracefully there).
"""

from __future__ import annotations

import itertools
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Temp files older than this are considered orphaned by a crashed writer.
#: Live writers hold a temp file for milliseconds; ten minutes is paranoid.
ORPHAN_TMP_AGE = 600.0

#: The sweep glob.  The disk cache (``<name>.tmp.<pid>``, and its packs'
#: ``pack-<n>.tmp.<pid>``) and the campaign store (``<name>.tmp.<pid>.<tid>``)
#: follow this naming scheme.
ORPHAN_TMP_GLOB = "*.tmp.*"

#: A pack ends with its index's length and CRC-32, then this magic.  A
#: file that does not end with it reads as one bare entry; a pickle never
#: does (it ends with its STOP opcode, ``.``).
PACK_MAGIC = b"\nRPRPK1\n"
_FOOTER = struct.Struct(">II")
_FOOTER_LEN = _FOOTER.size + len(PACK_MAGIC)

#: One read of a pack's last bytes takes its footer and index and, for an
#: entry near the end, the entry itself.
PACK_TAIL = 8 * 1024

#: Distinguishes this process's packs (``pack-<n>.tmp.<pid>``).
_PACK_IDS = itertools.count()


def fsync_directory(directory: Path) -> None:
    """Best-effort fsync of a directory (makes a rename itself durable)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _pwrite_all(fd: int, data: bytes, offset: int) -> None:
    view = memoryview(data)
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


class DurableBatch:
    """Entries staged into one pack now, made durable and visible together
    later.

    A *pack* is one file: every staged entry's bytes, unchanged and back
    to back, then an index (one ``\\0<name>\\0<offset>/<length>`` record
    per entry) and a footer (the index's length and CRC-32, then
    :data:`PACK_MAGIC`).  :meth:`stage` appends one entry to the batch's
    temp pack (``pack-<n>.tmp.<pid>`` beside the entries, created on the
    first stage, open until the commit); the batch keeps only each name's
    temp name, offset and length, no bytes.
    :meth:`commit` appends the index, fsyncs the pack, links it to each
    staged name's temp and renames that over the name (the last name takes
    the pack itself by rename), then fsyncs the directory once: every name
    is a hard link to the one fsynced pack, and :func:`read_packed` reads
    its own entry back.  Where ``os.link`` fails (a filesystem without hard
    links, or the link count limit), each remaining name gets a pack of one
    of its own instead.  A batch's entries share one directory.  Used as a
    context manager, the block commits when it exits, by return or by
    exception.
    """

    def __init__(self) -> None:
        self._fd: Optional[int] = None
        self._pack: Optional[Path] = None
        self._end = 0                       # where the next entry goes
        #: final name -> (link temp name, offset, length)
        self._staged: Dict[Path, Tuple[Path, int, int]] = {}

    def __enter__(self) -> "DurableBatch":
        return self

    def __exit__(self, *_exc) -> None:
        self.commit()

    def _open(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        while True:
            pack = directory / f"pack-{next(_PACK_IDS)}.tmp.{os.getpid()}"
            try:
                self._fd = os.open(
                    pack, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o666)
            except FileExistsError:         # a killed writer's, same pid
                continue
            self._pack = pack
            return

    def stage(self, path: Path, data: bytes,
              tmp: Optional[Path] = None) -> None:
        """Append ``data`` to the pack as ``path``'s entry; nothing is
        visible under ``path`` until :meth:`commit`.  Staging a name twice
        keeps the later bytes.  ``tmp`` names the link the commit renames
        over ``path`` (default ``<name>.tmp.<pid>``)."""
        path = Path(path)
        if self._pack is None:
            self._open(path.parent)
        elif path.parent != self._pack.parent:
            raise ValueError(
                f"{path} is outside the batch's directory {self._pack.parent}")
        self._staged.pop(path, None)
        # A failed write records nothing: the next entry overwrites it.
        _pwrite_all(self._fd, data, self._end)
        tmp = Path(tmp or path.with_name(f"{path.name}.tmp.{os.getpid()}"))
        self._staged[path] = (tmp, self._end, len(data))
        self._end += len(data)

    def commit(self) -> None:
        """Seal the pack, fsync it, give every staged name its inode, then
        fsync the directory once.  An empty commit touches nothing.  On an
        error the temps not yet renamed are removed and it re-raises."""
        fd, pack, staged, end = (self._fd, self._pack,
                                 list(self._staged.items()), self._end)
        self._fd, self._pack, self._staged, self._end = None, None, {}, 0
        if fd is None:
            return
        landed = 0
        try:
            if not staged:
                return
            index = b"".join(
                b"\0%s\0%d/%d" % (os.fsencode(path.name), offset, length)
                for path, (_tmp, offset, length) in staged)
            trailer = (index + _FOOTER.pack(len(index), zlib.crc32(index))
                       + PACK_MAGIC)
            _pwrite_all(fd, trailer, end)
            # A failed stage may have written past ``end``: the footer must
            # be the file's last bytes.
            os.ftruncate(fd, end + len(trailer))
            os.fsync(fd)
            linkable = True
            for path, (tmp, offset, length) in staged[:-1]:
                if linkable:
                    try:
                        _link(pack, tmp)
                    except OSError:
                        linkable = False
                if linkable:
                    try:
                        os.replace(tmp, path)
                    except BaseException:
                        _unlink(tmp)
                        raise
                else:
                    with DurableBatch() as single:
                        single.stage(path, os.pread(fd, length, offset), tmp)
                landed += 1
            os.replace(pack, staged[-1][0])
            pack = None
            landed += 1
        finally:
            os.close(fd)
            if pack is not None:
                _unlink(pack)
            if landed:
                fsync_directory(staged[0][0].parent)


def _link(pack: Path, tmp: Path) -> None:
    try:
        os.link(pack, tmp)
    except FileExistsError:                 # a killed writer's, same pid
        os.unlink(tmp)
        os.link(pack, tmp)


def read_packed(path: Path) -> Optional[bytes]:
    """The entry stored under ``path``'s name.

    A pack (see :class:`DurableBatch`) yields the bytes its index lists
    under the name, or ``None`` when its index is torn or lists no such
    name; any other file yields all its bytes.  A copy of a pack reads
    like a link to it.  One open and one read of the file's last
    :data:`PACK_TAIL` bytes (footer, index and, near the end, the entry),
    plus one read for an entry before them.  Raises ``OSError`` when the
    file cannot be read.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        start = size - PACK_TAIL if size > PACK_TAIL else 0
        tail = os.pread(fd, size - start, start)
        if not tail.endswith(PACK_MAGIC):
            return tail if start == 0 else os.pread(fd, size, 0)
        footer = len(tail) - _FOOTER_LEN
        if footer < 0:
            return None
        index_len, index_crc = _FOOTER.unpack_from(tail, footer)
        index_start = size - _FOOTER_LEN - index_len
        if index_start < start:
            if index_start < 0:
                return None
            tail = os.pread(fd, size - index_start, index_start)
            start, footer = index_start, len(tail) - _FOOTER_LEN
        lo = index_start - start
        if zlib.crc32(memoryview(tail)[lo:footer]) != index_crc:
            return None
        # Index records are ``\0<name>\0<offset>/<length>``: a name holds
        # neither NUL nor ``/``, so the search can only hit a name field.
        record = b"\0%s\0" % os.fsencode(os.path.basename(path))
        at = tail.find(record, lo, footer)
        if at < 0:
            return None
        at += len(record)
        end = tail.find(b"\0", at, footer)
        try:
            offset, length = map(int, tail[at:end if end >= 0 else footer]
                                 .split(b"/"))
        except ValueError:
            return None
        if offset + length > index_start:
            return None
        if offset >= start:
            return tail[offset - start:offset - start + length]
        entry = os.pread(fd, length, offset)
        return entry if len(entry) == length else None
    finally:
        os.close(fd)


def _unlink(path: Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def atomic_write_bytes(path: Path, data: bytes, tmp: Optional[Path] = None,
                       batch: Optional[DurableBatch] = None) -> None:
    """Durably write ``data`` to ``path``: temp + fsync + rename + dir fsync.

    ``tmp`` overrides the temp-file path (callers with their own
    process/thread-unique naming scheme pass it in); the default is
    ``<name>.tmp.<pid>``, which :func:`sweep_orphan_tmps` recognises.
    With ``batch`` the write is only staged into the batch's pack and
    lands when the batch commits (read it back with :func:`read_packed`);
    without, ``path`` becomes a plain file at once.
    """
    if batch is not None:
        batch.stage(path, data, tmp)
        return
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tmp or path.with_name(f"{path.name}.tmp.{os.getpid()}"))
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            _pwrite_all(fd, data, 0)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        _unlink(tmp)
        raise
    fsync_directory(path.parent)


def atomic_write_text(path: Path, text: str,
                      tmp: Optional[Path] = None) -> None:
    atomic_write_bytes(path, text.encode("utf-8"), tmp=tmp)


def append_durable(path: Path, data: bytes) -> None:
    """Append ``data`` to ``path`` and fsync before returning.

    The event-journal write primitive: each call appends one or more
    fully-formed frames (JSONL lines) with one ``O_APPEND`` write, so
    concurrent appenders never interleave partial frames, and the fsync
    guarantees acknowledged frames survive a crash.  A crash *during* the
    append can leave at most a torn tail — journal readers skip it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)


def sweep_aged_files(directory: Path, pattern: str,
                     max_age_seconds: float) -> List[Path]:
    """Remove files matching ``pattern`` older than ``max_age_seconds``.

    Only files whose mtime is older than the cutoff are touched, so live
    writers' in-flight files are never raced.  Errors (vanished files,
    permissions) are ignored — hygiene must never break the caller.
    Returns the removed paths.
    """
    import time

    removed: List[Path] = []
    directory = Path(directory)
    if not directory.is_dir():
        return removed
    cutoff = time.time() - max_age_seconds
    try:
        candidates = list(directory.glob(pattern))
    except OSError:
        return removed
    for path in candidates:
        try:
            if not path.is_file() or path.stat().st_mtime >= cutoff:
                continue
            path.unlink()
            removed.append(path)
        except OSError:
            continue
    return removed


def sweep_orphan_tmps(directory: Path,
                      max_age_seconds: float = ORPHAN_TMP_AGE) -> List[Path]:
    """Remove aged ``*.tmp.*`` debris under ``directory``; returns removals.

    A specialisation of :func:`sweep_aged_files` for the atomic-write temp
    naming scheme shared by the disk cache and the campaign store.
    """
    return sweep_aged_files(directory, ORPHAN_TMP_GLOB, max_age_seconds)
