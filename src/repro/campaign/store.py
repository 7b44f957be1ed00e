"""Resumable campaign result store, with cell leasing for sharded execution.

One directory per campaign under ``.repro_cache/campaigns/<name>/`` holding:

``manifest.json``
    The plan, and nothing about progress: the spec (dict form), its content
    fingerprint, the run mode, the manifest schema version, the planned
    cells (content key -> workload, variant, kind) and the last run's
    summary.  Written once when a run opens the campaign and once when it
    records its summary; the plan is deterministic per spec and mode, so
    concurrent writers write the same cells.

``result.json``
    The assembled artefact: structured tables (JSON rows), the experiment
    module's rendered text (verbatim), and run metadata.

``leases/``
    One JSON file per *leased* cell, named by the cell's content key and
    stamped with owner + expiry.  Leases are advisory work-claims for
    multi-worker execution: a worker atomically creates ``leases/<key>.json``
    before simulating the cell and removes it after the result lands in the
    shared disk cache.  A worker that dies mid-cell leaves its lease behind;
    once the TTL passes, any other worker reclaims it and finishes the cell.
    Creation uses ``os.link`` (atomic publish-with-content), so two workers
    racing for one cell cannot both win.

``events/``
    One append-only JSONL event journal per owner (worker/shard/run/merge)
    — the campaign telemetry spine (:mod:`repro.campaign.telemetry`),
    merged and aggregated by ``repro monitor``.  Operational only: journals
    never feed rendered artifacts, so they carry no determinism burden.

Resumability does **not** depend on the manifest or the leases.  Each
fact about a cell has one owner: done-ness is the fingerprint-keyed
simulation disk cache (shared with the figure modules and the benchmark
suite), failure is the record in ``failures/``, and who finished it is the
``cell.finished`` event in its owner's journal.  The manifest holds the plan
those are counted against, so ``repro status`` can report progress without
simulating anything, and a spec change (different fingerprint) visibly
resets the plan while stale simulation results remain impossible by
construction (code-salted cache keys).  Losing a lease race is therefore
never a correctness problem — at worst a cell is simulated twice, and
deterministic simulation makes the duplicate byte-identical.

Writes are atomic (temp file + ``os.replace`` / ``os.link``), matching the
disk cache's concurrency contract.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional

from repro.campaign.spec import CampaignSpec
from repro.experiments.cache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR
from repro.util.durability import atomic_write_text, sweep_orphan_tmps

MANIFEST_NAME = "manifest.json"
RESULT_NAME = "result.json"
LEASES_DIR = "leases"
#: One JSON file per *failed* cell (structured failure records: exception
#: type, traceback digest, attempt count, owner, retry/poison state).
#: Records persist after a later success so retry counts stay auditable.
FAILURES_DIR = "failures"
#: One append-only JSONL event journal per campaign owner (see
#: :mod:`repro.campaign.telemetry`).  Operational telemetry only — never an
#: input to rendered artifacts.
EVENTS_DIR = "events"

#: Fault-injection fire-ledger markers (``<cache>/faults/``, see
#: :mod:`repro.util.faults`) older than this are debris from finished chaos
#: runs; swept from the store open path alongside orphan temp files.
FAULT_LEDGER_AGE = 24 * 3600.0

#: Manifest layout version.  v3 holds only the plan: the per-cell
#: ``status``/``completed_by`` records of v2 are gone (the disk cache,
#: ``failures/`` and the journals own those facts).  A manifest of any other
#: version is reset on ``begin`` (cheap — cell results live in the shared
#: cache).
MANIFEST_SCHEMA = 3

#: Default lease time-to-live.  Must comfortably exceed the wall time of one
#: cell batch; workers renew between cells, so the TTL only matters when a
#: worker dies (it bounds how long its claimed cells stay unavailable).
DEFAULT_LEASE_TTL = 600.0

#: Time-to-live of a *steal lock* — the tiny marker file serialising the
#: removal of one expired lease (read-check-unlink is not atomic; without
#: the lock, two reclaimers could each observe the stale lease and one of
#: them unlink the other's freshly published replacement).  Stealing is a
#: few syscalls, so this only bounds how long a reclaimer crashed mid-steal
#: can block that one cell.
STEAL_TTL = 30.0


def campaigns_root(root: Optional[os.PathLike] = None) -> Path:
    """The campaigns directory (inside the simulation cache directory)."""
    if root is not None:
        return Path(root)
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)) / "campaigns"


def _tmp_name(path: Path) -> Path:
    """A collision-free sibling temp path (unique per process *and* thread —
    in-process worker threads share the pid)."""
    import threading

    return path.with_name(
        f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
    )


def _atomic_write_json(path: Path, payload: object, sort_keys: bool = True) -> None:
    # Fsync-before-rename (see repro.util.durability): a crash mid-write can
    # leave old content or new content under the final name, never garbage.
    atomic_write_text(
        path,
        json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n",
        tmp=_tmp_name(path),
    )


class CampaignStore:
    """Manifest + result persistence and cell leasing for one campaign."""

    def __init__(self, name: str, root: Optional[os.PathLike] = None) -> None:
        self.name = name
        self.directory = campaigns_root(root) / name

    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def result_path(self) -> Path:
        return self.directory / RESULT_NAME

    @property
    def leases_path(self) -> Path:
        return self.directory / LEASES_DIR

    @property
    def failures_path(self) -> Path:
        return self.directory / FAILURES_DIR

    @property
    def events_path(self) -> Path:
        return self.directory / EVENTS_DIR

    def load_manifest(self) -> Optional[Dict[str, object]]:
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError):
            return None
        return manifest if isinstance(manifest, dict) else None

    def save_manifest(self, manifest: Mapping[str, object]) -> None:
        payload = dict(manifest)
        payload["updated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        _atomic_write_json(self.manifest_path, payload)

    # ------------------------------------------------------------------
    def begin(self, spec: CampaignSpec, mode: str,
              cells: Mapping[str, Mapping[str, object]]) -> Dict[str, object]:
        """Open (or reset) the manifest for a run of ``spec`` and write
        ``cells`` (content key -> workload, variant, kind) as its plan.

        An existing manifest written for a different spec fingerprint, mode
        or schema version is reset — it describes a different campaign
        shape.  Simulation results are unaffected (they live in the shared
        disk cache under content keys).
        """
        fingerprint = spec.fingerprint()
        manifest = self.load_manifest()
        had_manifest = manifest is not None
        reset = (
            manifest is None
            or manifest.get("spec_fingerprint") != fingerprint
            or manifest.get("mode") != mode
            or manifest.get("schema") != MANIFEST_SCHEMA
        )
        if reset:
            manifest = {
                "schema": MANIFEST_SCHEMA,
                "campaign": self.name,
                "spec": spec.to_dict(),
                "spec_fingerprint": fingerprint,
                "mode": mode,
                "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            }
        manifest["cells"] = dict(cells)
        # Hygiene on open: writers killed mid-write leave `*.tmp.*` debris
        # next to the manifest, leases and failure records; sweep aged ones
        # (age-gated, so live concurrent writers are never raced).
        for directory in (self.directory, self.leases_path, self.failures_path):
            sweep_orphan_tmps(directory)
        self._sweep_telemetry(clear_events=reset and had_manifest)
        self.save_manifest(manifest)
        return manifest

    def _sweep_telemetry(self, clear_events: bool = False) -> None:
        """Age-gated hygiene for accumulating per-run debris.

        Covers the two sources the orphan-temp sweep does not: event
        journals of long-dead owners (or *all* journals when the manifest
        was just reset — they describe a campaign shape that no longer
        exists), and fault-injection fire-ledger markers left behind by
        finished chaos runs.  The journal sweep age defaults to seven days
        and is tuned with ``REPRO_JOURNAL_TTL_DAYS`` (see
        :func:`repro.campaign.telemetry.stale_journal_age`) so long-lived
        fleet campaigns keep their worker journals for the whole run.
        """
        from repro.campaign.telemetry import sweep_stale_journals
        from repro.util.durability import sweep_aged_files
        from repro.util.faults import default_ledger_dir

        sweep_stale_journals(self.events_path, clear=clear_events)
        sweep_aged_files(default_ledger_dir(), "*", FAULT_LEDGER_AGE)

    def record_run(self, manifest: Dict[str, object],
                   summary: Mapping[str, object]) -> None:
        manifest["last_run"] = dict(summary)
        self.save_manifest(manifest)

    # ------------------------------------------------------------------
    # failure records
    # ------------------------------------------------------------------
    def _failure_path(self, key: str) -> Path:
        return self.failures_path / f"{key}.json"

    def read_failure(self, key: str) -> Optional[Dict[str, object]]:
        """The durable failure record for ``key`` (``None`` if it never
        failed, or the record is unreadable)."""
        try:
            record = json.loads(self._failure_path(key).read_text())
        except (OSError, ValueError):
            return None
        return record if isinstance(record, dict) else None

    def record_failure(self, key: str, record: Mapping[str, object]) -> None:
        """Persist (overwrite) the failure record for one cell.

        One file per cell, so concurrent workers failing *different* cells
        never contend; two workers failing the *same* cell is already
        prevented by its lease, so last-writer-wins is safe here.
        """
        _atomic_write_json(self._failure_path(key), dict(record))

    def failures(self) -> Dict[str, Dict[str, object]]:
        """Every cell failure record, keyed by cell content key."""
        records: Dict[str, Dict[str, object]] = {}
        if not self.failures_path.is_dir():
            return records
        for path in sorted(self.failures_path.glob("*.json")):
            key = path.name[: -len(".json")]
            record = self.read_failure(key)
            if record is not None:
                records[key] = record
        return records

    # ------------------------------------------------------------------
    # cell leasing
    # ------------------------------------------------------------------
    def _lease_path(self, key: str) -> Path:
        return self.leases_path / f"{key}.json"

    def read_lease(self, key: str) -> Optional[Dict[str, object]]:
        """The lease record for ``key`` (``None`` if absent or unreadable)."""
        try:
            lease = json.loads(self._lease_path(key).read_text())
        except (OSError, ValueError):
            return None
        return lease if isinstance(lease, dict) else None

    def _lease_live(self, lease: Optional[Dict[str, object]],
                    now: float) -> bool:
        if lease is None:
            return False
        expires = lease.get("expires_at")
        return isinstance(expires, (int, float)) and now < expires

    def _publish_lease(self, key: str, payload: Dict[str, object]) -> bool:
        """Atomically create ``leases/<key>.json``; False if it exists.

        ``os.link`` publishes the fully-written temp file under the lease
        name in one step, so a concurrent reader can never observe a
        partially-written lease and two racing claimers cannot both win.
        """
        self.leases_path.mkdir(parents=True, exist_ok=True)
        path = self._lease_path(key)
        tmp = _tmp_name(path)
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        try:
            os.link(tmp, path)
            return True
        except FileExistsError:
            return False
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass

    def _steal_path(self, key: str) -> Path:
        # ``.json.steal`` so the ``*.json`` lease globs never see it.
        path = self._lease_path(key)
        return path.with_name(path.name + ".steal")

    def _acquire_steal(self, key: str, owner: str) -> bool:
        """Serialise the removal of one stale lease (see :data:`STEAL_TTL`).

        Atomic create-with-content, exactly like leases; an aged steal lock
        (crashed reclaimer) is swept and the acquisition retried once.
        """
        path = self._steal_path(key)
        payload = {"key": key, "owner": owner, "created_at": time.time()}
        for _attempt in (0, 1):
            tmp = _tmp_name(path)
            tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
            try:
                os.link(tmp, path)
                return True
            except FileExistsError:
                pass
            finally:
                try:
                    tmp.unlink()
                except OSError:
                    pass
            try:
                held = json.loads(path.read_text())
                created = held.get("created_at", 0.0)
            except (OSError, ValueError):
                created = 0.0
            if time.time() - created < STEAL_TTL:
                return False
            try:
                path.unlink()
            except OSError:
                pass
        return False

    def _release_steal(self, key: str) -> None:
        try:
            self._steal_path(key).unlink()
        except OSError:
            pass

    def _reclaim_one(self, key: str, owner: str,
                     publish: Optional[Dict[str, object]] = None) -> bool:
        """Remove ``key``'s stale lease under the steal lock; optionally
        publish ``publish`` as the replacement lease in the same critical
        section.  Returns True when the caller won (lease removed, and the
        replacement — if requested — published)."""
        if not self._acquire_steal(key, owner):
            return False
        try:
            # Re-check under the lock: the lease may have been renewed or
            # replaced since the caller observed it stale.
            if self._lease_live(self.read_lease(key), time.time()):
                return False
            try:
                self._lease_path(key).unlink()
            except OSError:
                pass
            if publish is not None:
                return self._publish_lease(key, publish)
            return True
        finally:
            self._release_steal(key)

    def claim_cells(self, keys: Iterable[str], owner: str,
                    ttl: float = DEFAULT_LEASE_TTL,
                    limit: Optional[int] = None) -> List[str]:
        """Atomically claim up to ``limit`` unleased cells for ``owner``.

        A cell with a live lease held by anyone (including ``owner``) is
        skipped; a stale (expired) or corrupt lease is removed — serialised
        by a per-cell steal lock, so racing reclaimers cannot unlink each
        other's fresh replacement — and the claim retried, so crashed
        workers' cells flow back automatically.  Returns the keys actually
        claimed, in input order.
        """
        now = time.time()
        claimed: List[str] = []
        for key in keys:
            if limit is not None and len(claimed) >= limit:
                break
            payload = {
                "key": key,
                "owner": owner,
                "created_at": now,
                "expires_at": now + ttl,
            }
            if self._publish_lease(key, payload):
                claimed.append(key)
                continue
            if self._lease_live(self.read_lease(key), now):
                continue
            if self._reclaim_one(key, owner, publish=payload):
                claimed.append(key)
        return claimed

    def renew_leases(self, keys: Iterable[str], owner: str,
                     ttl: float = DEFAULT_LEASE_TTL) -> int:
        """Push the expiry of ``owner``'s *live* leases forward; returns count.

        Leases held by someone else, already reclaimed, or already expired
        are left alone — an expired lease is lost (a reclaimer may be
        removing it right now), and resurrecting it could duplicate a cell.
        The renewing worker should treat unrenewed cells as lost.

        Renewal happens under the same per-cell steal lock as reclaiming:
        read-check-rewrite is not atomic, so without the lock a reclaimer
        could observe the lease expired, steal it, and then have this renew
        resurrect the stolen lease — two owners for one cell.  Under the
        lock, either the reclaimer wins (renew sees the lease gone/expired
        and reports it lost) or the renew wins (the reclaimer's re-check
        sees the pushed-forward expiry and backs off).
        """
        renewed = 0
        for key in keys:
            lease = self.read_lease(key)
            if lease is None or lease.get("owner") != owner:
                continue
            if not self._lease_live(lease, time.time()):
                continue
            if not self._acquire_steal(key, owner):
                # A reclaimer holds the lock right now; skip rather than
                # block — the worker renews again between cells, and an
                # unrenewed live lease is still live.
                continue
            try:
                lease = self.read_lease(key)
                if (
                    lease is None
                    or lease.get("owner") != owner
                    or not self._lease_live(lease, time.time())
                ):
                    continue
                lease["expires_at"] = time.time() + ttl
                _atomic_write_json(self._lease_path(key), lease)
                renewed += 1
            finally:
                self._release_steal(key)
        return renewed

    def release_leases(self, keys: Iterable[str], owner: str) -> int:
        """Drop ``owner``'s leases on ``keys``; returns the number released."""
        released = 0
        for key in keys:
            lease = self.read_lease(key)
            if lease is None or lease.get("owner") != owner:
                continue
            try:
                self._lease_path(key).unlink()
                released += 1
            except OSError:
                pass
        return released

    def reclaim_stale(self, now: Optional[float] = None) -> List[str]:
        """Remove every expired or unreadable lease; returns their keys.

        Removal goes through the same per-cell steal lock as
        :meth:`claim_cells`, so a sweeper can never unlink a lease that a
        racing claimer just republished.
        """
        if now is None:
            now = time.time()
        reclaimed: List[str] = []
        if not self.leases_path.is_dir():
            return reclaimed
        sweeper = f"reclaim-{os.getpid()}"
        for path in sorted(self.leases_path.glob("*.json")):
            key = path.name[: -len(".json")]
            if self._lease_live(self.read_lease(key), now):
                continue
            if self._reclaim_one(key, sweeper):
                reclaimed.append(key)
        return reclaimed

    def leases(self, now: Optional[float] = None) -> Dict[str, Dict[str, object]]:
        """Every *live* lease, keyed by cell key."""
        if now is None:
            now = time.time()
        live: Dict[str, Dict[str, object]] = {}
        if not self.leases_path.is_dir():
            return live
        for path in sorted(self.leases_path.glob("*.json")):
            key = path.name[: -len(".json")]
            lease = self.read_lease(key)
            if self._lease_live(lease, now):
                live[key] = lease
        return live

    # ------------------------------------------------------------------
    def save_result(self, payload: Mapping[str, object]) -> Path:
        # Insertion order is meaningful here: table rows keep the column
        # order their experiment module emitted.
        _atomic_write_json(self.result_path, dict(payload), sort_keys=False)
        return self.result_path

    def load_result(self) -> Optional[Dict[str, object]]:
        try:
            result = json.loads(self.result_path.read_text())
        except (OSError, ValueError):
            return None
        return result if isinstance(result, dict) else None

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, object]:
        """Live progress summary: the manifest's plan + disk-cache truth.

        Cell counts partition ``cells_planned``: ``cells_done`` (result
        reads back from the shared disk cache), ``cells_leased`` (not done,
        live lease held by some worker) and ``cells_pending`` (neither).

        Health counters ride along: ``cells_failed`` (poisoned cells with no
        result), ``retries`` (total recorded failed attempts, including ones
        that later succeeded) and ``quarantined`` (corrupt disk-cache entries
        moved aside).  A campaign whose result was assembled around poisoned
        cells reports state ``degraded`` rather than ``complete``.

        Single-pass by contract: every store source (manifest, leases,
        failure records, result, event journals) is read exactly once per
        call — monitors polling this in a ``--follow`` loop must not
        multiply I/O per counter group.  The payload carries the
        ``spec_fingerprint`` so a monitor can detect spec drift between
        polls, and ``telemetry`` roll-up counters (journal event totals,
        owners seen) from :mod:`repro.campaign.telemetry`.
        """
        manifest = self.load_manifest()
        if manifest is None:
            return {"campaign": self.name, "state": "never run"}
        from repro.campaign.health import summarize_failures
        from repro.campaign.telemetry import event_counts, load_events
        from repro.experiments.cache import ResultDiskCache, salted_key

        cells = manifest.get("cells", {})
        disk = ResultDiskCache()
        # Done means the entry reads back, as everywhere else: a torn
        # entry that merely exists is no finished cell.
        done_keys = {key for key in cells
                     if disk.get(salted_key(key)) is not None}
        quarantined = disk.quarantine_count()
        live = self.leases()
        done = len(done_keys)
        leased = sum(1 for key in cells if key in live and key not in done_keys)
        health = summarize_failures(self.failures(), done_keys=done_keys)
        # A result only counts as complete if it was assembled for the
        # manifest's current spec/mode; a mode or spec change leaves the old
        # result.json behind until the new run finishes.  ``has_result``
        # derives from this same read — no second filesystem probe.
        result = self.load_result()
        assembled = (
            result is not None
            and result.get("spec_fingerprint") == manifest.get("spec_fingerprint")
            and result.get("mode") == manifest.get("mode")
        )
        if assembled:
            state = "degraded" if health["failed"] else "complete"
        else:
            state = "partial"
        events = load_events(self.events_path)
        return {
            "campaign": self.name,
            "state": state,
            "mode": manifest.get("mode"),
            "spec_fingerprint": manifest.get("spec_fingerprint"),
            "cells_planned": len(cells),
            "cells_done": done,
            "cells_leased": leased,
            "cells_pending": max(
                0, len(cells) - done - leased - health["failed"]
            ),
            "cells_failed": health["failed"],
            "retries": health["retries"],
            "quarantined": quarantined,
            "has_result": result is not None,
            "telemetry": {
                "events": len(events),
                "owners": len({e.get("owner") for e in events}),
                "event_counts": event_counts(events),
            },
            "updated_at": manifest.get("updated_at"),
            "last_run": manifest.get("last_run"),
        }

    def clear(self) -> int:
        """Delete this campaign's manifest/result/lease files; returns count."""
        removed = 0
        for path in (self.manifest_path, self.result_path):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        if self.leases_path.is_dir():
            for path in self.leases_path.glob("*.json*"):   # leases + steal locks
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            try:
                self.leases_path.rmdir()
            except OSError:
                pass
        if self.failures_path.is_dir():
            for path in self.failures_path.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            try:
                self.failures_path.rmdir()
            except OSError:
                pass
        if self.events_path.is_dir():
            for path in self.events_path.glob("*.jsonl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            try:
                self.events_path.rmdir()
            except OSError:
                pass
        try:
            self.directory.rmdir()
        except OSError:
            pass
        return removed
