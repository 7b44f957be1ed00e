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

* :class:`DurableBatch` is the one write path.  ``stage`` writes and
  closes a temp file; ``commit`` fsyncs every staged temp, renames them
  all, then fsyncs each touched directory once.  A crash can therefore
  never promote un-synced data to a final name, and a batch of many
  entries pays one burst of fsyncs instead of a fsync-rename-fsync round
  per entry.  A process killed before its commit loses its staged entries
  (they stay temp files), never a final name's integrity;
* :func:`atomic_write_bytes` / :func:`atomic_write_text` write one file as
  a batch of one, or stage it into a caller's batch;
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

import os
from pathlib import Path
from typing import Dict, List, Optional

#: Temp files older than this are considered orphaned by a crashed writer.
#: Live writers hold a temp file for milliseconds; ten minutes is paranoid.
ORPHAN_TMP_AGE = 600.0

#: The sweep glob.  Both the disk cache (``<name>.tmp.<pid>``) and the
#: campaign store (``<name>.tmp.<pid>.<tid>``) follow this naming scheme.
ORPHAN_TMP_GLOB = "*.tmp.*"


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


class DurableBatch:
    """Temp files staged now, made durable and visible together later.

    :meth:`stage` writes one entry's temp file and closes it; the batch
    keeps only the (final name, temp name) pair, no open file and no
    bytes.  :meth:`commit` fsyncs every staged temp, renames each over its
    final name and fsyncs every touched directory once.  Used as a context
    manager, the block commits when it exits, by return or by exception.
    """

    def __init__(self) -> None:
        self._staged: Dict[Path, Path] = {}      # final name -> temp name

    def __enter__(self) -> "DurableBatch":
        return self

    def __exit__(self, *_exc) -> None:
        self.commit()

    def stage(self, path: Path, data: bytes,
              tmp: Optional[Path] = None) -> None:
        """Write ``data`` to the temp file of ``path``; nothing is visible
        under ``path`` until :meth:`commit`.  Staging a name twice keeps
        the later bytes."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = Path(tmp or path.with_name(f"{path.name}.tmp.{os.getpid()}"))
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
        except BaseException:
            self._staged.pop(path, None)
            _unlink(tmp)
            raise
        self._staged[path] = tmp

    def commit(self) -> None:
        """fsync every staged temp, rename them all, then fsync each
        touched directory once.  An empty commit touches nothing.  On an
        error the temps not yet renamed are removed and it re-raises."""
        staged = list(self._staged.items())
        self._staged = {}
        renamed = 0
        try:
            for _path, tmp in staged:
                fd = os.open(tmp, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)
            for path, tmp in staged:
                os.replace(tmp, path)
                renamed += 1
        finally:
            for _path, tmp in staged[renamed:]:
                _unlink(tmp)
            for directory in dict.fromkeys(
                    path.parent for path, _tmp in staged[:renamed]):
                fsync_directory(directory)


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
    With ``batch`` the write is only staged there and lands when the
    batch commits; without, it is a batch of one, committed at once.
    """
    if batch is not None:
        batch.stage(path, data, tmp)
        return
    with DurableBatch() as single:
        single.stage(path, data, tmp)


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
