"""Campaign health primitives: failure records, retry policy, watchdogs.

PR 4/5 built a lease–worker–merge stack that assumes every cell simulates
cleanly.  This module is the vocabulary for when they don't:

* :class:`FailureRecord` helpers — structured, durable per-cell failure
  records (exception type, message, traceback digest, attempt count, owner,
  monotonic-clock duration) persisted by the
  :class:`~repro.campaign.store.CampaignStore` so failures are first-class
  data, not log noise;
* :class:`RetryPolicy` — bounded retries with capped exponential backoff
  and *deterministic* jitter (CRC-32 of the cell content key and attempt
  number, never wall-clock randomness), plus the poisoning rule: a cell
  that fails ``max_attempts`` times is marked poisoned and skipped by every
  subsequent worker instead of looping forever;
* :class:`CellTimeout` / :class:`CellCrashed` / :class:`CellResultLost` —
  what the cell engine converts hung or dying simulations, and results
  that do not read back from the disk cache, into (all retryable);
* :class:`WorkerShutdown` — raised by the worker loop's SIGTERM/SIGINT
  handlers so a job-scheduler kill releases held leases instead of
  stranding cells for a full lease TTL.

Everything defaults to inert-but-bounded: no faults are injected anywhere,
and the default policy retries a failing cell twice before poisoning it.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.util.faults import stable_fraction

#: Default retry budget: first attempt + two retries, then poisoned.
DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_BACKOFF_BASE = 0.25
DEFAULT_BACKOFF_CAP = 30.0


class CellTimeout(RuntimeError):
    """A cell's child process exceeded the wall-clock timeout."""


class CellCrashed(RuntimeError):
    """A cell's child process died without reporting a result."""


class CellResultLost(RuntimeError):
    """A cell finished — inline or in a child process — but its result is
    not readable from the disk cache (a torn or failed write)."""


class WorkerShutdown(BaseException):
    """A worker received SIGTERM/SIGINT and is stopping gracefully.

    Deliberately *not* an ``Exception``: the cell-isolation boundaries catch
    ``Exception`` to convert simulation crashes into failure records, and a
    shutdown request must sail through them (like ``KeyboardInterrupt``)
    instead of being recorded as a cell failure.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with capped exponential backoff + deterministic jitter.

    ``max_attempts`` counts total executions of a cell (first try included);
    a cell whose attempt counter reaches it is *poisoned* — recorded as a
    permanent failure and skipped by subsequent workers, so one
    deterministic crash cannot wedge a campaign.
    """

    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    backoff_base: float = DEFAULT_BACKOFF_BASE
    backoff_cap: float = DEFAULT_BACKOFF_CAP

    def poisoned(self, attempts: int) -> bool:
        return attempts >= self.max_attempts

    def backoff_seconds(self, key: str, attempts: int) -> float:
        """Delay before retry number ``attempts`` (1-based failure count).

        Exponential in the attempt count, capped, and jittered into
        ``[0.5, 1.5)`` of the nominal delay by a CRC-32 fraction of the
        cell key — deterministic across processes and hosts, so replays
        reproduce and thundering herds still decorrelate.
        """
        attempts = max(1, attempts)
        delay = min(self.backoff_cap, self.backoff_base * (2.0 ** (attempts - 1)))
        return delay * (0.5 + stable_fraction("retry-jitter", key, attempts))


def traceback_digest(error: BaseException) -> str:
    """A short stable digest of an exception's formatted traceback.

    Two workers hitting the same deterministic crash produce the same
    digest, which is what lets failure records be compared and de-duplicated
    across the fleet without shipping full tracebacks around.
    """
    text = "".join(
        traceback.format_exception(type(error), error, error.__traceback__)
    )
    return hashlib.sha256(text.encode("utf-8", "replace")).hexdigest()[:12]


def exception_info(error: BaseException,
                   duration_seconds: float = 0.0) -> Dict[str, object]:
    """The portable failure payload for one raised exception."""
    return {
        "error_type": type(error).__name__,
        "message": str(error)[:500],
        "traceback_digest": traceback_digest(error),
        "duration_seconds": round(float(duration_seconds), 3),
    }


def make_failure_record(
    key: str,
    info: Mapping[str, object],
    attempts: int,
    policy: RetryPolicy,
    owner: Optional[str] = None,
    workload: Optional[str] = None,
    variant: Optional[str] = None,
    now: Optional[float] = None,
) -> Dict[str, object]:
    """A durable failure record for ``key`` after its ``attempts``-th failure.

    ``retry_at`` (absolute epoch seconds) gates when the cell becomes
    claimable again; ``poisoned`` marks it permanently failed.  ``info`` is
    an :func:`exception_info`-shaped payload from wherever the failure was
    observed (inline or in a child process).
    """
    if now is None:
        now = time.time()
    poisoned = policy.poisoned(attempts)
    record: Dict[str, object] = {
        "key": key,
        "attempts": int(attempts),
        "poisoned": poisoned,
        "retry_at": None if poisoned else now + policy.backoff_seconds(key, attempts),
        "owner": owner,
        "workload": workload,
        "variant": variant,
    }
    record.update(dict(info))
    return record


def record_poisoned(record: Optional[Mapping[str, object]]) -> bool:
    return bool(record and record.get("poisoned"))


def record_retry_ready(record: Optional[Mapping[str, object]],
                       now: Optional[float] = None) -> bool:
    """Whether a failed cell's backoff window has passed (poisoned: never)."""
    if record is None:
        return True
    if record.get("poisoned"):
        return False
    retry_at = record.get("retry_at")
    if not isinstance(retry_at, (int, float)):
        return True
    if now is None:
        now = time.time()
    return now >= retry_at


def summarize_failures(
    records: Mapping[str, Mapping[str, object]],
    done_keys: Optional[set] = None,
) -> Dict[str, int]:
    """Roll failure records up into the counters ``repro status`` reports.

    ``failed`` counts poisoned cells that never (subsequently) completed;
    ``retries`` is the total number of recorded failed attempts — a cell
    that failed twice and then succeeded contributes 2 and does not count
    as failed.
    """
    done_keys = done_keys or set()
    failed = sum(
        1 for key, record in records.items()
        if record.get("poisoned") and key not in done_keys
    )
    retries = sum(int(record.get("attempts", 0)) for record in records.values())
    return {"failed": failed, "retries": retries}
