"""Durable per-campaign event journal (the campaign telemetry spine).

Every campaign execution mode (:meth:`~repro.campaign.scheduler.
CampaignScheduler.run`, ``run_shard``, ``run_worker``, ``finalize``) writes
an append-only JSONL journal of what it did:

``.repro_cache/campaigns/<name>/events/<owner>.jsonl``

One file **per worker** (owner), so appends never contend across workers —
the same no-coordination principle as the lease files — and every write is
an fsync'd ``O_APPEND`` (:func:`repro.util.durability.append_durable`), so
the journal of a ``kill -9``'d worker survives up to its last written
event.  That is what lets ``repro monitor`` reconstruct *what a dead worker
was doing* from disk truth alone.

Outside a :meth:`EventJournal.round` every frame is written at once.  The
scheduler runs each executed chunk of cells as a round: the frames in
:data:`ROUND_EVENTS` (a cell's start, retry and settle frames) are held
and go out together at :meth:`EventJournal.flush` — once before the chunk
simulates, once after it settles — one write and one fsync for many
frames.  The frames a kill must not lose (``worker.*``, ``cell.claimed``,
``lease.*``, ``cache.quarantine``, ``campaign.assembled``) are never held.
A worker killed mid-round loses only its held frames.

Event vocabulary (``event`` field; cell granularity only, never per
instruction, so journaling is overhead-free on the simulator hot path):

=====================  =====================================================
``worker.started``     a run/shard/worker began (mode, cell and cache-hit counts)
``worker.stopped``     …and finished (run-summary measures ride along)
``worker.signal``      SIGTERM/SIGINT converted into a clean shutdown
``cell.claimed``       a worker took a cell's lease
``cell.started``       its simulation is about to run
``cell.retried``       …and this execution is attempt > 1
``cell.finished``      it landed in the shared cache (per-cell measures)
``cell.failed``        it raised (error identity, attempt count)
``cell.poisoned``      …and exhausted its retry budget
``watchdog.timeout``   ``--cell-timeout`` killed a hung/overran cell
``lease.renewed``      a worker pushed its batch leases forward
``lease.reclaimed``    stale leases of a dead worker were swept
``cache.quarantine``   corrupt disk-cache entries were quarantined
``campaign.assembled`` the final artefact was assembled (health state)
=====================  =====================================================

Every event carries a monotonic (``t_mono``) and a wall-clock (``t_wall``)
timestamp, the emitting owner, a per-owner sequence number, and — for cell
events — the cell content key plus measures from the ``memsys`` telemetry
spine (instructions simulated, simulation wall seconds, instructions/s,
contention stall share).  Timestamps live **only** here: journals are
operational telemetry, never inputs to rendered campaign artifacts, so the
byte-identity invariant (sharded == single-host) is untouched.

Journals are merged and aggregated by :mod:`repro.campaign.monitor`.
"""

from __future__ import annotations

import json
import os
import re
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional

from repro.util.durability import append_durable

#: Directory (under the campaign store) holding one journal per owner.
EVENTS_DIR = "events"

#: Default sweep age for worker journals: older ones are stale debris from
#: long-dead runs and are swept on store open (the aged-orphan sweep's
#: telemetry sibling).  Long-lived fleet campaigns override it with
#: :data:`JOURNAL_TTL_ENV` so a multi-week dispatch does not lose its
#: workers' journals mid-run.
STALE_JOURNAL_AGE = 7 * 24 * 3600.0

#: Environment override for the stale-journal sweep age, in (fractional)
#: days.  Non-numeric or non-positive values fall back to the default —
#: hygiene must never turn a typo into an instant journal wipe.
JOURNAL_TTL_ENV = "REPRO_JOURNAL_TTL_DAYS"


def stale_journal_age() -> float:
    """The effective stale-journal sweep age in seconds.

    ``REPRO_JOURNAL_TTL_DAYS`` (fractional days, must be > 0) overrides the
    :data:`STALE_JOURNAL_AGE` default; invalid values are ignored.
    """
    text = os.environ.get(JOURNAL_TTL_ENV)
    if text:
        try:
            days = float(text)
        except ValueError:
            days = 0.0
        if days > 0.0:
            return days * 24 * 3600.0
    return STALE_JOURNAL_AGE


#: Frames a :meth:`EventJournal.round` holds until its next flush.
ROUND_EVENTS = frozenset((
    "cell.started", "cell.retried", "cell.finished", "cell.failed",
    "cell.poisoned", "watchdog.timeout",
))

_OWNER_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def journal_filename(owner: str) -> str:
    """The journal file name for ``owner`` (filesystem-safe, stable)."""
    safe = _OWNER_SAFE.sub("_", owner) or "owner"
    return f"{safe}.jsonl"


class EventJournal:
    """Append-only, fsync'd JSONL journal for one campaign owner.

    Emission is best-effort by design: telemetry must never turn a
    read-only or full filesystem into a failed campaign, so write errors
    disable the journal for the rest of the run instead of raising.
    """

    def __init__(self, events_dir: Path, owner: str,
                 enabled: bool = True) -> None:
        self.owner = owner
        self.path = Path(events_dir) / journal_filename(owner)
        self.enabled = enabled
        self._seq = 0
        #: Encoded :data:`ROUND_EVENTS` frames held by the open round.
        self._held: Optional[List[bytes]] = None

    @contextmanager
    def round(self) -> Iterator[None]:
        """Hold :data:`ROUND_EVENTS` frames until :meth:`flush`; the
        block's exit flushes, by return or by exception."""
        self._held = []
        try:
            yield
        finally:
            self.flush()
            self._held = None

    def flush(self) -> None:
        """Write every held frame in one append (nothing held: no write)."""
        if self._held:
            data = b"".join(self._held)
            self._held.clear()
            self._append(data)

    def _append(self, data: bytes) -> bool:
        if not self.enabled:
            return False
        try:
            append_durable(self.path, data)
        except OSError:
            self.enabled = False
            return False
        return True

    def emit(self, event: str, key: Optional[str] = None,
             **fields: object) -> Optional[Dict[str, object]]:
        """Append one event frame (inside a round, hold a
        :data:`ROUND_EVENTS` frame); returns the record (None when
        disabled)."""
        if not self.enabled:
            return None
        record: Dict[str, object] = {
            "event": event,
            "owner": self.owner,
            "seq": self._seq,
            "t_wall": round(time.time(), 6),
            "t_mono": round(time.monotonic(), 6),
        }
        if key is not None:
            record["key"] = key
        for name, value in fields.items():
            if value is not None:
                record[name] = value
        frame = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
        if self._held is not None and event in ROUND_EVENTS:
            self._held.append(frame)
        elif not self._append(frame):
            return None
        self._seq += 1
        return record


def read_journal(path: Path) -> List[Dict[str, object]]:
    """Every well-formed event frame of one journal file, in append order.

    Torn tail frames (a writer crashed mid-append) and foreign garbage are
    skipped, never fatal — the journal of a killed worker must still parse.
    """
    events: List[Dict[str, object]] = []
    try:
        text = Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return events
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "event" in record:
            events.append(record)
    return events


def journal_paths(events_dir: Path) -> List[Path]:
    """Every journal file under ``events_dir``, sorted by name."""
    events_dir = Path(events_dir)
    if not events_dir.is_dir():
        return []
    return sorted(events_dir.glob("*.jsonl"))


def load_events(events_dir: Path) -> List[Dict[str, object]]:
    """Merge every owner journal into one deterministic global timeline.

    Ordering is content-determined: ``(t_wall, owner, seq)`` — wall clock
    first (the only cross-process ordering that exists), then owner name and
    per-owner sequence as total-order tiebreakers.  Re-merging the same
    journal files always yields the same sequence, byte for byte.
    """
    merged: List[Dict[str, object]] = []
    for path in journal_paths(events_dir):
        merged.extend(read_journal(path))
    merged.sort(key=lambda record: (
        record.get("t_wall", 0.0),
        str(record.get("owner", "")),
        record.get("seq", 0),
    ))
    return merged


def event_counts(events: Iterable[Dict[str, object]]) -> Dict[str, int]:
    """Occurrences per event name (the timeline's cheapest roll-up)."""
    counts: Dict[str, int] = {}
    for record in events:
        name = str(record.get("event"))
        counts[name] = counts.get(name, 0) + 1
    return dict(sorted(counts.items()))


# ---------------------------------------------------------------------------
# per-cell measures (memsys telemetry spine -> journal fields)
# ---------------------------------------------------------------------------
def _stall_cycles(memsys: Optional[Dict]) -> float:
    """Sum of every ``stall_cycles`` leaf in a ``memsys`` telemetry dict."""
    if not memsys:
        return 0.0
    total = 0.0
    for key, value in memsys.items():
        if key == "stall_cycles":
            total += value
        elif isinstance(value, dict):
            total += _stall_cycles(value)
    return total


def outcome_measures(outcome: object) -> Dict[str, float]:
    """Content-determined measures of one cached cell outcome.

    Works across the three outcome shapes (baseline
    :class:`~repro.core.system.SimulationOutcome`, DLA
    :class:`~repro.dla.system.DlaOutcome`, and
    :class:`~repro.experiments.runner.SegmentedOutcome`): committed
    instructions, total core cycles (all simulated domains), contention
    stall cycles from the ``memsys`` spine, and the stall *share* (stalls
    over cycles) the anomaly detectors key on.
    """
    inner = getattr(outcome, "outcome", None)
    if inner is not None and hasattr(inner, "memsys"):   # SegmentedOutcome
        outcome = inner
    core = getattr(outcome, "core", None)
    if core is not None:                                  # SimulationOutcome
        committed = core.committed
        cycles = core.cycles
    else:                                                 # DlaOutcome-shaped
        main = getattr(outcome, "main", None)
        lookahead = getattr(outcome, "lookahead", None)
        committed = getattr(main, "committed", 0) + getattr(
            lookahead, "committed", 0)
        cycles = getattr(main, "cycles", 0.0) + getattr(
            lookahead, "cycles", 0.0)
    stall_cycles = _stall_cycles(getattr(outcome, "memsys", None))
    return {
        "instructions": int(committed),
        "cycles": round(float(cycles), 3),
        "stall_cycles": round(float(stall_cycles), 3),
        "stall_share": round(stall_cycles / cycles, 6) if cycles else 0.0,
    }


def sweep_stale_journals(events_dir: Path,
                         max_age_seconds: Optional[float] = None,
                         clear: bool = False) -> List[Path]:
    """Hygiene for the events directory (called from the store open path).

    ``clear`` drops *every* journal — used when the manifest is reset
    because the spec fingerprint or mode changed, making old journals
    describe a campaign shape that no longer exists.  Otherwise only
    journals older than ``max_age_seconds`` (long-dead runs) are swept;
    the ``None`` default resolves through :func:`stale_journal_age`, so
    ``REPRO_JOURNAL_TTL_DAYS`` tunes every sweep site at once.
    """
    from repro.util.durability import sweep_aged_files

    if clear:
        return sweep_aged_files(events_dir, "*.jsonl", -1.0)
    if max_age_seconds is None:
        max_age_seconds = stale_journal_age()
    return sweep_aged_files(events_dir, "*.jsonl", max_age_seconds)


__all__ = [
    "EVENTS_DIR",
    "JOURNAL_TTL_ENV",
    "ROUND_EVENTS",
    "STALE_JOURNAL_AGE",
    "stale_journal_age",
    "EventJournal",
    "event_counts",
    "journal_filename",
    "journal_paths",
    "load_events",
    "outcome_measures",
    "read_journal",
    "sweep_stale_journals",
]
