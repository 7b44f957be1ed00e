"""Campaign timeline aggregation and fleet anomaly detection.

The read side of the telemetry spine (:mod:`repro.campaign.telemetry`):
merge every owner journal of a campaign into one :func:`build_timeline`
roll-up — per-worker and per-campaign throughput, cell-latency distribution
(p50/p90/max via :mod:`repro.util.stats_math`), lease churn, retry and
quarantine counts, contention stall share per cell — then run deterministic
anomaly detectors over it:

``worker_slow``
    a worker whose instructions/s fell below a configurable fraction of the
    fleet median (MPCDF-style per-node visibility: one sick node hides
    inside an aggregate, never inside a per-worker roll-up), among workers
    that finished at least ``min_samples`` cells;
``cell_latency_outlier`` / ``cell_stall_outlier``
    a cell whose simulation wall time or contention stall share is a
    robust-z outlier (Iglewicz–Hoaglin modified z-score, double-gated with
    an absolute margin so tiny homogeneous fleets never flag noise);
``lease_storm``
    leases being reclaimed repeatedly — workers dying faster than they
    finish cells;
``retry_hotspot``
    a cell burning multiple attempts (transient faults clustering);
``cell_poisoned`` / ``worker_lost``
    a cell that exhausted its retry budget, and a worker that started and
    claimed cells but never wrote ``worker.stopped`` before the campaign
    converged (killed mid-cell — its journal survives it).

Every detector is a pure function of journal contents and store state, so
the same journals always yield the same anomaly list.  Rendering
(`repro monitor --summary`) is plain ASCII; ``--json`` emits the timeline
verbatim for machine consumers (CI asserts on it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.campaign.store import CampaignStore
from repro.campaign.telemetry import event_counts, load_events
from repro.util.stats_math import median, percentile, robust_zscores

#: ASCII sparkline levels, lowest to highest (no unicode in dashboards).
SPARK_LEVELS = " .:-=+*#%@"

#: Campaign states in which a started-but-never-stopped worker is dead
#: rather than merely busy.
_SETTLED_STATES = ("complete", "degraded")


@dataclass(frozen=True)
class AnomalyThresholds:
    """Tunable gates for the anomaly detectors (defaults are conservative).

    The statistical detectors are *double-gated*: a value must be both a
    robust-z outlier and beyond an absolute margin of the median.  The
    z-score alone misfires on small homogeneous fleets (with near-zero MAD
    a hair of jitter scores arbitrarily high); the margin alone misfires on
    genuinely wide distributions.  Together they only flag values that are
    extreme by both yardsticks.
    """

    #: Flag a worker whose inst/s is below this fraction of the fleet median.
    #: Only workers that finished ``min_samples`` cells are compared: a pace
    #: read off one or two cells says more about which kinds of cell the
    #: worker drew than about the worker.
    worker_fraction: float = 0.5
    #: Modified z-score gate for cell latency / stall-share outliers.
    robust_z: float = 3.5
    #: ...and the latency must also be at least this multiple of the median.
    latency_factor: float = 3.0
    #: ...and the stall share must also exceed the median by this margin.
    stall_margin: float = 0.2
    #: Lease reclaims at or above this count are a storm.
    lease_storm: int = 3
    #: A cell at or above this many attempts is a retry hotspot.
    retry_hotspot: int = 2
    #: Statistical detectors need at least this many samples (cells per
    #: worker for ``worker_slow``, cells for the outlier detectors).
    min_samples: int = 4


def _anomaly(kind: str, subject: str, detail: str) -> Dict[str, str]:
    return {"kind": kind, "subject": subject, "detail": detail}


def _worker_rollups(events: List[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    workers: Dict[str, Dict[str, object]] = {}
    for record in events:
        owner = str(record.get("owner", ""))
        roll = workers.setdefault(owner, {
            "events": 0, "claims": 0, "finished": 0, "failed": 0,
            "instructions": 0, "sim_seconds": 0.0,
            "inst_per_second": 0.0, "started": False, "stopped": False,
        })
        roll["events"] += 1
        name = record.get("event")
        if name == "worker.started":
            roll["started"] = True
            roll["mode"] = record.get("mode")
        elif name == "worker.stopped":
            roll["stopped"] = True
            # The run-summary measures on the stop event are authoritative
            # for this owner (exact wall time over every cell it simulated).
            ips = record.get("instructions_per_second")
            if isinstance(ips, (int, float)) and ips > 0:
                roll["inst_per_second"] = float(ips)
        elif name == "cell.claimed":
            roll["claims"] += 1
        elif name == "cell.finished":
            roll["finished"] += 1
            roll["instructions"] += int(record.get("instructions", 0) or 0)
            roll["sim_seconds"] += float(record.get("sim_seconds", 0.0) or 0.0)
        elif name == "cell.failed":
            roll["failed"] += 1
    for roll in workers.values():
        # Fallback inst/s from the per-cell measures when the worker never
        # stopped cleanly (killed) or predates the stop-event summary.
        if not roll["inst_per_second"] and roll["sim_seconds"] > 0:
            roll["inst_per_second"] = roll["instructions"] / roll["sim_seconds"]
        roll["inst_per_second"] = round(roll["inst_per_second"], 1)
        roll["sim_seconds"] = round(roll["sim_seconds"], 3)
    return {owner: workers[owner] for owner in sorted(workers)}


def _cell_rollups(events: List[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    cells: Dict[str, Dict[str, object]] = {}
    for record in events:
        key = record.get("key")
        if not key or not str(record.get("event", "")).startswith("cell."):
            continue
        roll = cells.setdefault(str(key), {
            "claims": 0, "attempts": 0, "finished": False, "failures": 0,
            "poisoned": False,
        })
        for carry in ("workload", "variant"):
            if record.get(carry) is not None:
                roll[carry] = record[carry]
        name = record.get("event")
        if name == "cell.claimed":
            roll["claims"] += 1
        elif name == "cell.started":
            roll["attempts"] = max(
                int(roll["attempts"]), int(record.get("attempt", 1) or 1))
        elif name == "cell.finished":
            roll["finished"] = True
            roll["owner"] = record.get("owner")
            for measure in ("instructions", "cycles", "stall_share",
                            "sim_seconds", "inst_per_second"):
                if record.get(measure) is not None:
                    roll[measure] = record[measure]
        elif name == "cell.failed":
            roll["failures"] += 1
            roll["attempts"] = max(
                int(roll["attempts"]), int(record.get("attempt", 1) or 1))
            roll["last_error"] = record.get("error_type")
        elif name == "cell.poisoned":
            roll["poisoned"] = True
    return {key: cells[key] for key in sorted(cells)}


def _latency(cells: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    timed = [float(roll["sim_seconds"]) for roll in cells.values()
             if roll.get("sim_seconds")]
    if not timed:
        return {"cells_timed": 0}
    return {
        "cells_timed": len(timed),
        "p50_seconds": round(percentile(timed, 0.5), 3),
        "p90_seconds": round(percentile(timed, 0.9), 3),
        "max_seconds": round(max(timed), 3),
    }


def _throughput(events: List[Dict[str, object]],
                buckets: int = 20) -> Dict[str, object]:
    """Instructions finished per wall-clock bucket (the sparkline's data).

    Wall timestamps only exist inside journals, so this is the one roll-up
    that is allowed to depend on them; bucket *contents* are still fully
    determined by the journal files.
    """
    finished = [
        (float(record.get("t_wall", 0.0)),
         int(record.get("instructions", 0) or 0))
        for record in events if record.get("event") == "cell.finished"
    ]
    if not finished:
        return {"buckets": [], "bucket_seconds": 0.0, "total_instructions": 0}
    total = sum(instructions for _t, instructions in finished)
    start = min(t for t, _instructions in finished)
    span = max(t for t, _instructions in finished) - start
    if span <= 0.0:
        return {"buckets": [total], "bucket_seconds": 0.0,
                "total_instructions": total}
    count = max(1, min(buckets, len(finished)))
    width = span / count
    values = [0] * count
    for t, instructions in finished:
        values[min(count - 1, int((t - start) / width))] += instructions
    return {"buckets": values, "bucket_seconds": round(width, 3),
            "total_instructions": total}


def _detect_anomalies(timeline: Dict[str, object],
                      thresholds: AnomalyThresholds) -> List[Dict[str, str]]:
    anomalies: List[Dict[str, str]] = []
    workers: Dict[str, Dict[str, object]] = timeline["workers"]
    cells: Dict[str, Dict[str, object]] = timeline["cells"]
    settled = timeline.get("state") in _SETTLED_STATES

    # -- worker_slow: a worker far below the fleet's median pace ----------
    paced = {owner: float(roll["inst_per_second"])
             for owner, roll in workers.items()
             if float(roll["inst_per_second"]) > 0
             and int(roll["finished"]) >= thresholds.min_samples}
    if len(paced) >= 2:
        fleet_median = median(list(paced.values()))
        for owner, pace in paced.items():
            if pace < thresholds.worker_fraction * fleet_median:
                anomalies.append(_anomaly(
                    "worker_slow", owner,
                    f"{pace:.0f} inst/s vs fleet median "
                    f"{fleet_median:.0f} (< {thresholds.worker_fraction:g}x)",
                ))

    # -- worker_lost: started + claimed, never stopped, campaign settled --
    if settled:
        for owner, roll in workers.items():
            if roll["started"] and roll["claims"] and not roll["stopped"]:
                anomalies.append(_anomaly(
                    "worker_lost", owner,
                    f"claimed {roll['claims']} cell(s) but never wrote "
                    f"worker.stopped — killed mid-run",
                ))

    # -- cell latency / stall-share robust-z outliers ---------------------
    timed = {key: float(roll["sim_seconds"]) for key, roll in cells.items()
             if roll.get("sim_seconds")}
    if len(timed) >= thresholds.min_samples:
        keys = sorted(timed)
        values = [timed[key] for key in keys]
        mid = median(values)
        for key, score in zip(keys, robust_zscores(values)):
            if (score > thresholds.robust_z
                    and timed[key] >= thresholds.latency_factor * mid):
                anomalies.append(_anomaly(
                    "cell_latency_outlier", key,
                    f"{timed[key]:.2f}s vs median {mid:.2f}s "
                    f"(robust z {score:.1f})",
                ))
    stalled = {key: float(roll["stall_share"]) for key, roll in cells.items()
               if roll.get("stall_share") is not None and roll.get("finished")}
    if len(stalled) >= thresholds.min_samples:
        keys = sorted(stalled)
        values = [stalled[key] for key in keys]
        mid = median(values)
        for key, score in zip(keys, robust_zscores(values)):
            if (score > thresholds.robust_z
                    and stalled[key] >= mid + thresholds.stall_margin):
                anomalies.append(_anomaly(
                    "cell_stall_outlier", key,
                    f"stall share {stalled[key]:.2f} vs median {mid:.2f} "
                    f"(robust z {score:.1f})",
                ))

    # -- lease storms and retry hotspots ----------------------------------
    reclaims = int(timeline["lease"]["reclaimed_keys"])
    if reclaims >= thresholds.lease_storm:
        anomalies.append(_anomaly(
            "lease_storm", timeline.get("campaign", ""),
            f"{reclaims} lease(s) reclaimed from dead workers",
        ))
    for key, roll in cells.items():
        if int(roll["attempts"]) >= thresholds.retry_hotspot:
            anomalies.append(_anomaly(
                "retry_hotspot", key,
                f"{roll['attempts']} attempts "
                f"({roll.get('last_error') or 'transient failures'})",
            ))
        if roll["poisoned"]:
            anomalies.append(_anomaly(
                "cell_poisoned", key,
                f"permanently failed after {roll['attempts']} attempt(s): "
                f"{roll.get('last_error') or 'unknown error'}",
            ))

    anomalies.sort(key=lambda a: (a["kind"], a["subject"]))
    return anomalies


def build_timeline(store: CampaignStore,
                   thresholds: Optional[AnomalyThresholds] = None,
                   ) -> Dict[str, object]:
    """The full machine-readable timeline of one campaign.

    A pure function of the store's on-disk state (manifest, leases, failure
    records, result, journals): the same bytes always produce the same
    timeline, anomalies included.
    """
    thresholds = thresholds or AnomalyThresholds()
    status = store.status()
    events = load_events(store.events_path)
    cells = _cell_rollups(events)
    timeline: Dict[str, object] = {
        "campaign": store.name,
        "state": status.get("state"),
        "mode": status.get("mode"),
        "spec_fingerprint": status.get("spec_fingerprint"),
        "cells_planned": status.get("cells_planned", 0),
        "cells_done": status.get("cells_done", 0),
        "cells_failed": status.get("cells_failed", 0),
        "retries": status.get("retries", 0),
        "quarantined": status.get("quarantined", 0),
        "events": len(events),
        "event_counts": event_counts(events),
        "workers": _worker_rollups(events),
        "cells": cells,
        "latency": _latency(cells),
        "throughput": _throughput(events),
        "lease": {
            "renewals": sum(1 for e in events
                            if e.get("event") == "lease.renewed"),
            "reclaims": sum(1 for e in events
                            if e.get("event") == "lease.reclaimed"),
            "reclaimed_keys": sum(int(e.get("count", 0) or 0) for e in events
                                  if e.get("event") == "lease.reclaimed"),
        },
    }
    timeline["anomalies"] = _detect_anomalies(timeline, thresholds)
    return timeline


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------
def sparkline(values: List[int]) -> str:
    """Plain-ASCII sparkline of non-negative values (empty input -> '')."""
    if not values:
        return ""
    peak = max(values)
    if peak <= 0:
        return SPARK_LEVELS[0] * len(values)
    top = len(SPARK_LEVELS) - 1
    return "".join(
        SPARK_LEVELS[min(top, (value * top + peak - 1) // peak)]
        for value in values
    )


def render_summary(timeline: Dict[str, object]) -> str:
    """One-shot ASCII dashboard of a campaign timeline."""
    lines: List[str] = []
    lines.append(
        f"campaign {timeline['campaign']} — {timeline['state']} "
        f"({timeline['cells_done']}/{timeline['cells_planned']} cells done, "
        f"{timeline['cells_failed']} failed, {timeline['retries']} retries, "
        f"{timeline['events']} events)"
    )
    workers: Dict[str, Dict[str, object]] = timeline["workers"]
    if workers:
        lines.append("")
        lines.append(f"{'worker':<36} {'claims':>6} {'done':>5} {'fail':>5} "
                     f"{'inst/s':>10} {'sim_s':>8}  state")
        for owner, roll in workers.items():
            if roll["stopped"]:
                state = "stopped"
            elif roll["started"]:
                state = "running?"
            else:
                state = "-"
            lines.append(
                f"{owner:<36} {roll['claims']:>6} {roll['finished']:>5} "
                f"{roll['failed']:>5} {roll['inst_per_second']:>10.0f} "
                f"{roll['sim_seconds']:>8.2f}  {state}"
            )
    latency = timeline["latency"]
    if latency.get("cells_timed"):
        lines.append("")
        lines.append(
            f"cell latency ({latency['cells_timed']} timed): "
            f"p50 {latency['p50_seconds']:.2f}s  "
            f"p90 {latency['p90_seconds']:.2f}s  "
            f"max {latency['max_seconds']:.2f}s"
        )
    throughput = timeline["throughput"]
    if throughput["buckets"]:
        lines.append(
            f"throughput [{sparkline(list(throughput['buckets']))}] "
            f"({throughput['total_instructions']} instructions, "
            f"{len(throughput['buckets'])} x "
            f"{throughput['bucket_seconds']:.1f}s buckets)"
        )
    lease = timeline["lease"]
    if lease["renewals"] or lease["reclaims"]:
        lines.append(
            f"leases: {lease['renewals']} renewals, "
            f"{lease['reclaimed_keys']} reclaimed"
        )
    anomalies: List[Dict[str, str]] = timeline["anomalies"]
    lines.append("")
    if anomalies:
        lines.append(f"anomalies ({len(anomalies)}):")
        for anomaly in anomalies:
            lines.append(
                f"  ! {anomaly['kind']}: {anomaly['subject']} — "
                f"{anomaly['detail']}"
            )
    else:
        lines.append("anomalies: none")
    return "\n".join(lines) + "\n"


__all__ = [
    "AnomalyThresholds",
    "build_timeline",
    "render_summary",
    "sparkline",
]
