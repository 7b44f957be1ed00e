"""On-disk result cache for experiment campaigns.

Large evaluation campaigns re-run the same (workload, configuration) pairs
across many figures, pytest sessions and sweep scripts.  The disk cache
persists finished :class:`~repro.core.system.SimulationOutcome` /
:class:`~repro.dla.system.DlaOutcome` objects under ``.repro_cache/`` keyed
by content fingerprint plus a source-code salt (see
:mod:`repro.experiments.fingerprint`), so repeated campaigns skip straight
to result assembly while code changes transparently invalidate everything.

Integrity contract (what makes the cache safe to *share* across crashing
workers and synced directories):

* every entry is framed as ``magic + CRC-32 + pickle body`` and the
  checksum is verified on read; a truncated, bit-rotted or stale-format
  entry is **quarantined** — moved to ``.repro_cache/quarantine/``, never
  deleted, so corruption stays inspectable — and treated as a miss, which
  simply re-simulates the cell;
* writes are crash-consistent: temp file + fsync *before* the atomic
  ``os.replace`` (plus a best-effort directory fsync after it), so a crash
  can never promote unsynced bytes to a final cache name;
* writes inside a :meth:`ResultDiskCache.batch` block are group-committed
  (:class:`~repro.util.durability.DurableBatch`): each ``put`` only stages
  its temp file, invisible to :meth:`~ResultDiskCache.get`, and the block's
  exit fsyncs, renames and directory-fsyncs them all in one burst.  A
  process killed inside the block loses its staged entries, which costs a
  re-simulation, never a wrong or torn result;
* aged ``*.tmp.*`` debris left by killed writers is swept on cache open.

The cache therefore remains what it always was — an accelerator, never a
source of errors — under partial writes, kill -9, and hostile filesystems.
A campaign, though, counts a cell done only once its entry reads back
(:mod:`repro.experiments.parallel`): a write that does not land fails the
cell, which is retried.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.util.durability import (
    DurableBatch, atomic_write_bytes, sweep_orphan_tmps,
)

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro_cache"

#: Subdirectory corrupt entries are moved to (never deleted).
QUARANTINE_DIR = "quarantine"

#: Entry framing: magic + big-endian CRC-32 of the pickle body.
ENTRY_MAGIC = b"RPRC1\n"
_CRC_STRUCT = struct.Struct(">I")
_HEADER_LEN = len(ENTRY_MAGIC) + _CRC_STRUCT.size


def salted_key(key: str) -> str:
    """The on-disk form of a content ``key``: code-salt prefixed.

    The single definition of the disk-key format — the runner's cache path
    and the campaign store's status probes must stay in lockstep.
    """
    from repro.experiments.fingerprint import code_salt

    return f"{code_salt()}-{key}"


def encode_entry(body: bytes) -> bytes:
    """Frame a pickle body with magic + CRC-32 (the on-disk entry format)."""
    return ENTRY_MAGIC + _CRC_STRUCT.pack(zlib.crc32(body) & 0xFFFFFFFF) + body


def decode_entry(data: bytes) -> Optional[bytes]:
    """The verified pickle body of a framed entry, or ``None`` on any
    integrity problem (bad magic, short header, checksum mismatch)."""
    if not data.startswith(ENTRY_MAGIC) or len(data) < _HEADER_LEN:
        return None
    (crc,) = _CRC_STRUCT.unpack_from(data, len(ENTRY_MAGIC))
    body = data[_HEADER_LEN:]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        return None
    return body


class ResultDiskCache:
    """A content-addressed pickle store with checksums and atomic writes."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = Path(
            directory or os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        )
        self.hits = 0
        self.misses = 0
        #: Entries quarantined by this instance (integrity failures on read).
        self.quarantined = 0
        #: The open :meth:`batch` block's group commit, if any.
        self._batch: Optional[DurableBatch] = None
        # Hygiene: a writer killed mid-put leaves `<key>.pkl.tmp.<pid>`
        # behind; sweep aged debris so it cannot accumulate (age-gated, so
        # concurrent live writers are never raced).
        sweep_orphan_tmps(self.directory)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    @property
    def quarantine_path(self) -> Path:
        return self.directory / QUARANTINE_DIR

    def contains(self, key: str) -> bool:
        """Cheap presence probe (no read; no hit/miss accounting).

        Optimistic by design: a corrupt entry still "contains" until the
        first real :meth:`get` quarantines it — exactness here would cost a
        full read per probe, and every consumer that acts on availability
        (the campaign screen) goes through :meth:`get`.
        """
        return self._path(key).exists()

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (never delete) and count it."""
        try:
            self.quarantine_path.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_path / path.name)
            self.quarantined += 1
        except OSError:
            # Quarantine is best-effort: on failure the entry stays put and
            # keeps reading as a miss (every get() re-fails its checksum).
            pass

    def quarantine_count(self) -> int:
        """Quarantined entries on disk (durable, across all processes)."""
        if not self.quarantine_path.is_dir():
            return 0
        try:
            return sum(1 for _ in self.quarantine_path.glob("*.pkl"))
        except OSError:
            return 0

    def get(self, key: str) -> Optional[Any]:
        """The cached object for ``key`` or ``None``.

        Any integrity or deserialisation problem (truncated file, checksum
        mismatch, schema drift, pre-checksum legacy debris) quarantines the
        entry and is treated as a miss: the cache is an accelerator, never
        a source of errors — and never a source of silently-wrong results.
        """
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        body = decode_entry(data)
        if body is None:
            # Bad frame: truncated write, bit rot, or a legacy (unframed)
            # entry from before checksumming.  Either way it is not
            # trustworthy — quarantine it and re-simulate.
            self._quarantine(path)
            self.misses += 1
            return None
        try:
            obj = pickle.loads(body)
        except Exception:
            # The checksum passed but the pickle does not load (schema
            # drift across an un-salted refactor, interpreter mismatch).
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return obj

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Group-commit every :meth:`put` inside the block.

        A put stages its entry; the block's exit commits them all, whether
        it returns or raises.  Until then a staged entry does not read back.
        A failed commit degrades like a failed put: the entries are missing.
        A nested block commits its own entries when it exits.
        """
        outer, self._batch = self._batch, DurableBatch()
        try:
            yield
        finally:
            batch, self._batch = self._batch, outer
            try:
                batch.commit()
            except OSError:
                pass

    def put(self, key: str, obj: Any) -> None:
        """Store ``obj`` under ``key`` (checksummed, fsynced, atomic);
        inside a :meth:`batch` block, staged until the block commits."""
        final = self._path(key)
        tmp = final.with_name(f"{final.name}.tmp.{os.getpid()}")
        try:
            body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            data = encode_entry(body)
            from repro.util import faults

            spec = faults.probe(faults.SITE_CACHE_WRITE, key=key)
            if spec is not None and spec.kind == "truncate":
                # Chaos harness: persist a torn write — keep the header so
                # the file looks plausible, cut the body so the checksum
                # verify on the next read must catch it.
                data = data[: max(_HEADER_LEN + 1, len(data) // 2)]
            atomic_write_bytes(final, data, tmp=tmp, batch=self._batch)
        except Exception:
            # A read-only/full filesystem or an unpicklable outcome silently
            # degrades to no caching — same contract as get(): the cache is
            # an accelerator, never a source of errors.  A failed write
            # removes its own temp file.
            pass

    def clear(self) -> int:
        """Delete every cache entry; returns the number of files removed.

        Quarantined entries are deliberately kept — they are evidence, and
        ``quarantine/`` is outside the ``*.pkl`` glob."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
