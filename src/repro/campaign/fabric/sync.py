"""Cell-sync transport: move cache cells between hosts' ``.repro_cache/``.

Sharded and worker campaign runs coordinate through one invariant — a cell
is done exactly when its checksummed result sits in a disk cache — so
multi-host execution needs exactly one new primitive: copying cache state
between a host-local root and a *shared* root.  :class:`CacheSync` is that
primitive, and its two directions are the same directory-to-directory
transfer with the roots swapped:

``push``
    local ``.repro_cache/`` -> shared root: every (optionally
    campaign-filtered) ``*.pkl`` cell entry plus the campaign's lease,
    failure-record and event-journal state.

``pull``
    shared root -> local ``.repro_cache/``: the same set, so a fresh worker
    host starts warm and sees the fleet's failure/backoff records.

Design contract (the properties the dispatcher and CI lean on):

* **content-keyed and idempotent** — entry filenames are salted content
  fingerprints, so an entry that already exists at the destination is
  complete and byte-identical by construction and is skipped; re-running a
  sync is free;
* **batched** — entries move in sorted fixed-size batches (HTCondor's
  high-throughput data-movement shape: few large transfer operations, not
  one per cell), and the :class:`SyncReport` counts batches so operators
  see the transfer shape;
* **torn-transfer-safe** — every entry is verified against its RPRC1
  checksum frame (:func:`repro.experiments.cache.decode_entry`) *before*
  install, each batch installs as one fsync-before-rename group commit
  (:class:`repro.util.durability.DurableBatch`), and a corrupt source
  entry is quarantined on its own side, never propagated — a half-copied
  entry can cost a re-simulation, never a wrong result;
* **state merges monotonically** — journals are append-only (copy when the
  source is strictly longer), failure records advance by attempt count,
  leases copy only when absent (a lease is host-advisory; stale ones die by
  TTL anywhere).

The shared root is a directory: an NFS mount, a synced folder, or an
artifact directory as in CI.  A remote spelling (``host:/path``,
``rsync://...``) is refused with :class:`SyncError` — mount the shared
root and pass its directory.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.experiments.cache import (
    CACHE_DIR_ENV, DEFAULT_CACHE_DIR, QUARANTINE_DIR, decode_entry,
    salted_key,
)
from repro.util.durability import DurableBatch, atomic_write_bytes

#: Cell entries move in sorted batches of this many files by default.
DEFAULT_BATCH_SIZE = 64

#: Cache-entry glob (the disk cache's on-disk naming scheme).
ENTRY_GLOB = "*.pkl"

#: ``host:/path`` (not a drive letter or a bare path) names a remote.
_REMOTE_SPEC = re.compile(r"^[A-Za-z0-9_.@-]+:")


class SyncError(RuntimeError):
    """A sync request that cannot be satisfied (bad target, self-sync)."""


@dataclass
class SyncReport:
    """What one push/pull moved, skipped and refused."""

    direction: str
    entries_total: int = 0
    entries_copied: int = 0
    entries_skipped: int = 0
    entries_corrupt: int = 0
    batches: int = 0
    state_copied: int = 0
    state_skipped: int = 0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def summary(self) -> str:
        return (
            f"{self.direction}: {self.entries_copied} cell(s) copied "
            f"in {self.batches} batch(es), {self.entries_skipped} already "
            f"present, {self.entries_corrupt} corrupt refused; "
            f"state files {self.state_copied} copied / "
            f"{self.state_skipped} unchanged"
        )


# ---------------------------------------------------------------------------
# file plumbing
# ---------------------------------------------------------------------------
def _list_files(directory: Path, pattern: str) -> List[str]:
    if not directory.is_dir():
        return []
    return sorted(p.name for p in directory.glob(pattern) if p.is_file())


def _read(path: Path) -> Optional[bytes]:
    try:
        return path.read_bytes()
    except OSError:
        return None


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return -1


def _quarantine(root: Path, name: str) -> None:
    """Move a corrupt cell entry aside on its own side (never delete), so
    it stops failing verification on every subsequent sync."""
    try:
        quarantine = root / QUARANTINE_DIR
        quarantine.mkdir(parents=True, exist_ok=True)
        os.replace(root / name, quarantine / name)
    except OSError:
        pass


def _chunked(items: Sequence[str], size: int) -> Iterable[Sequence[str]]:
    for start in range(0, len(items), size):
        yield items[start:start + size]


# ---------------------------------------------------------------------------
# the transport
# ---------------------------------------------------------------------------
class CacheSync:
    """Push/pull cache cells + campaign state between a local root and a
    shared directory (see the module docstring for the full contract)."""

    def __init__(self, local_root: Optional[Union[str, os.PathLike]] = None,
                 target: Optional[Union[str, os.PathLike]] = None,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        if target is None:
            raise SyncError("a sync target (shared root) is required")
        spec = str(target)
        if spec.startswith("rsync://") or _REMOTE_SPEC.match(spec):
            raise SyncError(
                f"remote sync target {spec!r} is not supported: mount the "
                f"shared root and pass its directory"
            )
        self.local_root = Path(
            local_root
            or os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        )
        self.shared_root = Path(spec)
        if batch_size < 1:
            raise SyncError(f"batch size must be >= 1 (got {batch_size})")
        self.batch_size = batch_size
        if self.shared_root.resolve() == self.local_root.resolve():
            raise SyncError(
                f"sync target {spec} is the local cache root itself — "
                f"nothing to move"
            )

    def push(self, campaign: Optional[str] = None) -> SyncReport:
        """Local -> shared: cells first (batched), then campaign state."""
        return self._transfer("push", self.local_root, self.shared_root,
                              campaign)

    def pull(self, campaign: Optional[str] = None) -> SyncReport:
        """Shared -> local: cells first (batched, verified), then state."""
        return self._transfer("pull", self.shared_root, self.local_root,
                              campaign)

    # ------------------------------------------------------------------
    # campaign cell selection
    # ------------------------------------------------------------------
    def _manifest_cells(self, campaign: str) -> Optional[Set[str]]:
        """The campaign's planned cell keys as on-disk entry names, from the
        local manifest or else the shared one; ``None`` when neither side
        has a manifest yet (sync then moves every entry)."""
        rel = Path("campaigns", campaign, "manifest.json")
        raw = _read(self.local_root / rel)
        if raw is None:
            raw = _read(self.shared_root / rel)
        if raw is None:
            return None
        try:
            manifest = json.loads(raw.decode("utf-8"))
            cells = manifest.get("cells", {})
        except (ValueError, AttributeError):
            return None
        if not isinstance(cells, dict) or not cells:
            return None
        return {f"{salted_key(key)}.pkl" for key in cells}

    def _select(self, names: Iterable[str],
                campaign: Optional[str]) -> List[str]:
        names = sorted(set(names))
        if campaign is None:
            return names
        wanted = self._manifest_cells(campaign)
        if wanted is None:
            return names
        return [name for name in names if name in wanted]

    # ------------------------------------------------------------------
    def _transfer(self, direction: str, src: Path, dst: Path,
                  campaign: Optional[str]) -> SyncReport:
        """Copy verified cell entries ``src`` -> ``dst`` in batches, then
        merge the campaign's state the same way round."""
        report = SyncReport(direction)
        names = self._select(_list_files(src, ENTRY_GLOB), campaign)
        report.entries_total = len(names)
        for chunk in _chunked(names, self.batch_size):
            report.batches += 1
            # One group commit per batch: its entries land together.
            with DurableBatch() as batch:
                for name in chunk:
                    if (dst / name).exists():
                        report.entries_skipped += 1
                        continue
                    data = _read(src / name)
                    if data is None:
                        continue
                    if decode_entry(data) is None:
                        # Torn or bit-rotted at the source: quarantine it
                        # there (same contract as the disk cache's read
                        # path); the cell simply re-simulates wherever it
                        # is missing.
                        _quarantine(src, name)
                        report.entries_corrupt += 1
                        continue
                    batch.stage(dst / name, data)
                    report.entries_copied += 1
        if campaign is not None:
            base = Path("campaigns", campaign)
            _merge_state(src / base, dst / base, report)
        return report


# ---------------------------------------------------------------------------
# state merge
# ---------------------------------------------------------------------------
def _failure_attempts(data: Optional[bytes]) -> int:
    if data is None:
        return -1
    try:
        record = json.loads(data.decode("utf-8"))
        return int(record.get("attempts", 0))
    except (ValueError, AttributeError, TypeError):
        return -1


def _merge_state(src: Path, dst: Path, report: SyncReport) -> None:
    """Monotonic one-way merge of two ``campaigns/<name>/`` directories
    (see the module docstring for the rules)."""
    # events: append-only journals — copy when strictly longer at the source.
    for name in _list_files(src / "events", "*.jsonl"):
        source, dest = src / "events" / name, dst / "events" / name
        if dest.exists() and _size(source) <= _size(dest):
            report.state_skipped += 1
            continue
        data = _read(source)
        if data is not None:
            atomic_write_bytes(dest, data)
            report.state_copied += 1
    # failures: a record advances by attempt count (retry/poison state rides
    # along); equal-or-lower attempt counts never overwrite.
    for name in _list_files(src / "failures", "*.json"):
        data = _read(src / "failures" / name)
        if data is None:
            continue
        dest = dst / "failures" / name
        if _failure_attempts(data) <= _failure_attempts(_read(dest)):
            report.state_skipped += 1
            continue
        atomic_write_bytes(dest, data)
        report.state_copied += 1
    # leases: advisory work claims — copy only when absent (TTL expiry
    # handles staleness on whichever host observes them).
    for name in _list_files(src / "leases", "*.json"):
        dest = dst / "leases" / name
        if dest.exists():
            report.state_skipped += 1
            continue
        data = _read(src / "leases" / name)
        if data is not None:
            atomic_write_bytes(dest, data)
            report.state_copied += 1


__all__ = [
    "CacheSync",
    "DEFAULT_BATCH_SIZE",
    "SyncError",
    "SyncReport",
]
