"""Campaign scheduling: flatten a spec into cells and drive them.

The scheduler materialises a :class:`~repro.campaign.spec.CampaignSpec`
against a :class:`~repro.experiments.parallel.ParallelExperimentRunner`:

1. the spec's (workload x variant) matrix becomes a list of *cells*
   (:class:`~repro.experiments.parallel.SimRequest`, planned by
   :func:`~repro.experiments.parallel.plan_cells`), each keyed once, when
   planned, by its content fingerprint;
2. open cells (not in the in-memory or on-disk result cache, not poisoned)
   are claimed, executed under failure isolation and settled — retried with
   backoff, or poisoned once their retry budget is spent;
3. the campaign's experiment module assembles the artefact from the warmed
   caches (``module.run(runner)`` reads its ``CAMPAIGN``'s planned cells
   back by variant name from the plan this scheduler keyed), and its structured
   tables plus rendered text are persisted in the campaign store, next to
   the run's throughput counters (the result's ``run`` section).

Because every cell is keyed by content fingerprint and persisted in the
shared disk cache the moment it finishes, a campaign killed mid-run resumes
exactly where it stopped: the next run screens finished cells as cache hits
and re-simulates nothing.

Every execution mode is the same claim loop (:meth:`CampaignScheduler._drive`):
screen, claim the open retry-ready cells, execute them, settle each one
through a single failure/emission path, repeat until nothing is open.  The
modes differ only in their candidate set and claim step:

:meth:`run`
    Every cell, claimed without leases, executed as one
    :meth:`~repro.experiments.parallel.ParallelExperimentRunner.warm_isolated`
    batch per round (in-process fan-out); then assembles the artefact.

:meth:`run_shard`
    Deterministic *static* partitioning: shard ``i`` of ``N`` owns a fixed
    round-robin slice of the sorted cell keys
    (:func:`repro.util.sharding.partition`) — disjoint and exhaustive across
    shards, so the partition itself is the lease.  Made for CI matrices and
    orchestrators that already know the worker count.

:meth:`run_worker`
    *Dynamic* claiming through store-level cell leases
    (:meth:`~repro.campaign.store.CampaignStore.claim_cells`): cells run one
    at a time and the rest of the batch's leases are renewed in between.
    Crash recovery is lease expiry — a worker killed mid-cell loses its
    lease after the TTL and a survivor reclaims the cell.

Cells run through
:meth:`~repro.experiments.parallel.ParallelExperimentRunner.warm_isolated`
in every mode: inline, or in child processes when fanning out or when
``cell_timeout`` bounds each cell (one child per cell then; an overrun
becomes a retryable ``CellTimeout``, a dead child a ``CellCrashed``).
However it ran, a cell is done only once its disk-cache entry reads back;
a torn or failed write is a retryable ``CellResultLost``.
Backoff is the store-shared ``retry_at`` gate in every mode.
Every mode writes the campaign manifest (the plan: spec, mode, planned
cells) when it opens the campaign and once more when it records its run
summary; settling a cell writes no manifest, whatever the cell count.

:meth:`finalize` (CLI: ``repro merge``)
    Assembles the final artefact from the caches once every cell is done —
    any worker or a separate fan-in job can run it; it simulates no planned
    cell.  What no variant plans, the experiment module computes during
    assembly: fig09's B-Fetch, SlipStream and CRE comparisons, cached like
    any result, and the fig05/fig14 analytic model's core runs.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.campaign.health import (
    RetryPolicy, WorkerShutdown, make_failure_record, record_poisoned,
    record_retry_ready,
)
from repro.campaign.spec import CampaignSpec, SpecError
from repro.campaign.store import CampaignStore, DEFAULT_LEASE_TTL
from repro.campaign.telemetry import EventJournal, outcome_measures
from repro.experiments.parallel import (
    ParallelExperimentRunner,
    SimRequest,
    plan_cells,
    plan_workloads,
)
from repro.util import faults
from repro.util.sharding import partition

Progress = Callable[[str], None]


def _silent(_message: str) -> None:
    return None


def default_owner() -> str:
    """A worker identity unique enough for lease stamping: host + pid."""
    import socket

    return f"{socket.gethostname()}-{os.getpid()}"


def install_shutdown_handlers() -> Dict[int, object]:
    """Route SIGTERM/SIGINT into :class:`WorkerShutdown`; returns the
    handlers they replaced.  Main thread only: worker loops driven from
    helper threads keep the process defaults, and tests do exactly that."""
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return {}
    previous: Dict[int, object] = {}

    def _handler(signum: int, _frame) -> None:
        raise WorkerShutdown(f"received signal {signum}")

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except (ValueError, OSError):   # non-main interpreter quirks
            pass
    return previous


def restore_signal_handlers(previous: Dict[int, object]) -> None:
    import signal

    for signum, handler in previous.items():
        try:
            signal.signal(signum, handler)
        except (ValueError, OSError, TypeError):
            pass


@dataclass(frozen=True)
class _Leases:
    """Worker-mode claim parameters: cells are claimed through TTL'd store
    leases, ``batch_size`` at a time, polling while others hold them."""

    ttl: float
    batch_size: int
    poll_seconds: float
    max_cells: Optional[int] = None


class CampaignIncomplete(RuntimeError):
    """Finalisation was requested while cells are still unsimulated."""


class CampaignScheduler:
    """Plans and executes one campaign against one runner."""

    def __init__(
        self,
        spec: CampaignSpec,
        quick: bool = True,
        processes: Optional[int] = None,
        store: Optional[CampaignStore] = None,
        runner: Optional[ParallelExperimentRunner] = None,
        progress: Optional[Progress] = None,
        # Inert: accepted only because perfbench/harness.py still passes it.
        bench_report: bool = False,
        retry_policy: Optional[RetryPolicy] = None,
        cell_timeout: Optional[float] = None,
    ) -> None:
        spec.validate()
        self.spec = spec
        self.quick = quick
        self.store = store or CampaignStore(spec.name)
        self.progress = progress or _silent
        #: Bounded-retry policy for failing cells (see campaign.health).
        self.retry_policy = retry_policy or RetryPolicy()
        #: Per-cell wall-clock budget in seconds: each cell then runs in
        #: its own child process.  ``None``: no budget (one process runs
        #: inline, hangs and all).
        self.cell_timeout = cell_timeout
        self.runner = runner or ParallelExperimentRunner(
            quick=quick,
            workload_names=spec.resolve_workloads(),
            warmup_instructions=spec.warmup_instructions,
            timed_instructions=spec.timed_instructions,
            processes=processes,
        )
        #: Lazy keyed-cell matrix — spec and runner are fixed for this
        #: scheduler's lifetime, so the (key, request) list is computed once.
        self._keyed_cells: Optional[List[Tuple[str, SimRequest]]] = None
        #: Per-owner event journal (campaign telemetry).  ``None`` until an
        #: execution entry point opens one, so every ``_emit`` is a no-op
        #: outside campaign runs — telemetry is inert by default and only
        #: ever fires at cell granularity, never on the simulator hot path.
        self.journal: Optional[EventJournal] = None

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _open_journal(self, owner: str) -> None:
        """Open this scheduler's event journal (idempotent; first owner
        wins — a worker that finalises keeps journaling as itself)."""
        if self.journal is None:
            self.journal = EventJournal(self.store.events_path, owner)

    def _emit(self, event: str, key: Optional[str] = None,
              **fields: object) -> None:
        if self.journal is not None:
            self.journal.emit(event, key=key, **fields)

    def _cell_measures(self, key: str,
                       stats_delta=None) -> Dict[str, object]:
        """Per-cell measures for a ``cell.finished`` event.

        Content-determined parts (instructions, cycles, stall share) come
        from the cached outcome; volatile parts (sim wall seconds, inst/s)
        from the runner-stats delta around the cell — only present when
        this process actually simulated (a cache-served cell has no
        meaningful wall time).
        """
        measures: Dict[str, object] = {}
        outcome = self.runner.cached_outcome(key)
        if outcome is not None:
            measures.update(outcome_measures(outcome))
        if stats_delta is not None and stats_delta.simulations > 0:
            measures["sim_seconds"] = round(
                stats_delta.simulation_seconds, 3)
            measures["inst_per_second"] = round(
                stats_delta.instructions_per_second, 1)
        return measures

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        return "quick" if self.quick else "full"

    def cell_workloads(self) -> List[str]:
        """Workloads that get matrix cells (may sub-sample in quick mode)."""
        return plan_workloads(self.spec, self.runner)

    def cells(self) -> List[SimRequest]:
        """The flattened (workload, variant) simulation matrix, keyed."""
        return plan_cells(self.spec, self.runner)

    def keyed_cells(self) -> List[Tuple[str, SimRequest]]:
        """(content key, request) per cell, de-duplicated by key.

        Two variants that materialise to the same configuration share one
        content key — and one cache slot — so they are one unit of sharded
        work; the first spelling wins.
        """
        if self._keyed_cells is None:
            keyed: Dict[str, SimRequest] = {}
            for request in self.cells():
                keyed.setdefault(request.key, request)
            self._keyed_cells = list(keyed.items())
        return list(self._keyed_cells)

    def shard_cells(self, index: int, count: int) -> List[Tuple[str, SimRequest]]:
        """The keyed cells owned by shard ``index`` of ``count``.

        Round-robin over the *sorted* content keys: every shard computes the
        same partition independently, and across ``0..count-1`` the slices
        are disjoint and exhaustive.
        """
        keyed = dict(self.keyed_cells())
        members = partition(keyed.keys(), index, count)
        return [(key, keyed[key]) for key in members]

    def prepare(self) -> Dict[str, object]:
        """Open the manifest with the full planned-cell set, running nothing.

        One manifest write.  The fabric dispatcher calls this in the shared
        root before any host job starts, so ``repro status``/``repro
        monitor`` report meaningful done/leased/pending counts while the
        fleet is still warming up.
        """
        cells = {key: self._cell_entry(request)
                 for key, request in self.keyed_cells()}
        return self.store.begin(self.spec, self.mode, cells)

    # ------------------------------------------------------------------
    # execution entry points: one claim loop, three candidate sets
    # ------------------------------------------------------------------
    def run(self) -> Dict[str, object]:
        """Execute the campaign; returns the run summary (also persisted).

        Cells run under failure isolation with bounded retries: a raising
        cell is retried (capped exponential backoff, deterministic jitter)
        up to ``retry_policy.max_attempts`` total attempts, then poisoned —
        recorded as a durable failure, skipped, and surfaced through a
        ``health`` section in the assembled result instead of aborting the
        whole campaign.
        """
        manifest = self.prepare()
        started = time.perf_counter()
        stats_before = self.runner.stats.copy()
        summary, poisoned = self._drive(
            self.keyed_cells(), f"run-{default_owner()}", "run")
        if summary.get("interrupted"):
            self.store.record_run(manifest, summary)
            return summary
        if poisoned:
            self.progress(
                f"[{self.spec.name}] WARNING: {len(poisoned)} cell(s) "
                f"poisoned after {self.retry_policy.max_attempts} attempts "
                f"— assembling a degraded artefact"
            )
        return self._assemble(manifest, summary, started, stats_before,
                              failures=poisoned or None)

    def run_shard(self, index: int, count: int) -> Dict[str, object]:
        """Simulate the static shard ``index``/``count`` of the cell matrix.

        Failing cells are retried and poisoned exactly as in :meth:`run`.
        Artefact assembly is deliberately *not* part of a shard run — once
        every shard has landed its cells in the shared disk cache, any
        process renders the final artefacts with :meth:`finalize`
        (``repro merge``).
        """
        manifest = self.prepare()
        keyed = self.shard_cells(index, count)
        owner = f"shard-{index}-of-{count}-{default_owner()}"
        summary, _poisoned = self._drive(
            keyed, owner, "shard", shard=f"{index}/{count}",
            cells_in_shard=len(keyed))
        self.store.record_run(manifest, summary)
        return summary

    def run_worker(
        self,
        owner: Optional[str] = None,
        ttl: float = DEFAULT_LEASE_TTL,
        batch_size: int = 4,
        poll_seconds: float = 2.0,
        max_cells: Optional[int] = None,
        finalize: bool = True,
    ) -> Dict[str, object]:
        """Lease-driven worker loop: claim, simulate, release, repeat.

        The loop ends when every cell of the campaign is in the shared disk
        cache (no matter who computed it).  While other live workers hold
        leases on the remaining cells, this worker polls every
        ``poll_seconds``; leases of crashed workers expire after ``ttl``
        seconds and are reclaimed here.  Within a claimed batch, cells are
        simulated one at a time and the not-yet-started leases renewed after
        each, so ``ttl`` only needs to outlast a single cell.

        ``max_cells`` bounds how many cells this worker may claim (testing /
        budgeted orchestrators); the loop then exits without waiting for the
        campaign to complete.  When the campaign does complete and
        ``finalize`` is set, the final artefact is assembled right here —
        any worker can do it, the result is deterministic and the write
        atomic, so concurrent finalisers are harmless.
        """
        if batch_size < 1:
            # claim_cells(limit=0) returns [] which the loop would misread
            # as "everything is leased elsewhere" and poll forever.
            raise ValueError(f"batch_size must be >= 1 (got {batch_size})")
        owner = owner or default_owner()
        manifest = self.prepare()
        leases = _Leases(ttl, batch_size, poll_seconds, max_cells)
        summary, poisoned = self._drive(
            self.keyed_cells(), owner, "worker", leases=leases, worker=owner)
        unfinished = self.unfinished_cells()
        summary["complete"] = not unfinished
        # Converged: nothing left to run — every cell is either done or
        # permanently failed.  That is finalisable (degraded when poisoned
        # cells exist); an interrupted worker never finalises.
        converged = (not summary.get("interrupted")
                     and set(unfinished) <= set(poisoned))
        if converged and finalize:
            # The assembly records the run: one manifest write, not two.
            summary["finalized"] = True
            self.finalize(manifest=manifest)
        else:
            self.store.record_run(manifest, summary)
        return summary

    # ------------------------------------------------------------------
    # the claim loop
    # ------------------------------------------------------------------
    def _drive(self, keyed: List[Tuple[str, SimRequest]], owner: str,
               mode: str, leases: Optional[_Leases] = None, **fields: object,
               ) -> Tuple[Dict[str, object], Dict[str, Dict[str, object]]]:
        """Drive the candidate cells ``keyed`` until none is open.

        Each round screens the caches, claims every open cell whose retry
        backoff has passed — all of them (the candidate set is the lease),
        or through store leases when ``leases`` is given — executes the
        claim and settles each cell.  Returns the run summary (not yet
        persisted; ``fields`` are mode-specific entries, the one named
        ``mode`` labelling progress lines) and the poisoned candidates'
        failure records.
        """
        label = f"{mode} {fields[mode]}" if mode in fields else mode
        requests_by_key = dict(keyed)
        keys = list(requests_by_key)
        requests = list(requests_by_key.values())
        started = time.perf_counter()
        stats_before = self.runner.stats.copy()
        simulated = claimed_total = 0
        interrupted = waiting_logged = False

        self._open_journal(owner)
        availability = self.runner.screen(requests)
        hits = sum(1 for done in availability.values() if done)
        self._emit("worker.started", mode=mode, run_mode=self.mode,
                   cells=len(keyed), cache_hits=hits, **fields)
        self.progress(f"[{self.spec.name}] {label}: {len(keyed)} cells, "
                      f"{hits} cached ({self.mode} mode)")
        previous_handlers = install_shutdown_handlers()
        try:
            while True:
                if leases is not None:
                    reclaimed = self.store.reclaim_stale()
                    if reclaimed:
                        self._emit("lease.reclaimed", count=len(reclaimed),
                                   keys=sorted(reclaimed))
                records = self.store.failures()
                # Poisoned cells are permanently failed: no one touches them
                # again; the campaign converges around them (degraded).
                open_cells = [key for key in keys if not availability[key]
                              and not record_poisoned(records.get(key))]
                if not open_cells or (leases is not None
                                      and leases.max_cells is not None
                                      and claimed_total >= leases.max_cells):
                    break
                # Back-off gate: a cell that just failed is only claimable
                # again once its (deterministically jittered) retry_at
                # passes — shared through the store, so *no* process claims
                # it early.
                ready = [key for key in open_cells
                         if record_retry_ready(records.get(key))]
                claimed = ready
                finished_elsewhere: List[str] = []
                if leases is not None and ready:
                    limit = leases.batch_size
                    if leases.max_cells is not None:
                        limit = min(limit, leases.max_cells - claimed_total)
                    claimed = self.store.claim_cells(
                        ready, owner, ttl=leases.ttl, limit=limit)
                    # ``ready`` was screened last round: another worker may
                    # have finished (and released) a cell since.  Hand such
                    # cells back uncounted.
                    fresh = self.runner.screen(
                        [requests_by_key[key] for key in claimed])
                    finished_elsewhere = [key for key in claimed if fresh[key]]
                    self.store.release_leases(finished_elsewhere, owner)
                    claimed = [key for key in claimed if not fresh[key]]
                    for key in claimed:
                        self._emit("cell.claimed", key=key,
                                   workload=requests_by_key[key].workload,
                                   variant=requests_by_key[key].label)
                if claimed:
                    waiting_logged = False
                    claimed_total += len(claimed)
                    simulated += self._execute(
                        [(key, requests_by_key[key]) for key in claimed],
                        records, owner, label, leases)
                elif leases is None:
                    # Every open cell is backing off: sleep out the
                    # earliest retry_at.
                    time.sleep(max(0.0, min(
                        float(records[key]["retry_at"]) for key in open_cells
                    ) - time.time()))
                elif not finished_elsewhere:
                    # Leased to other live workers or backing off: poll.
                    if not waiting_logged:
                        self.progress(
                            f"[{self.spec.name}] {label}: waiting on "
                            f"{len(open_cells)} leased/backing-off cell(s)")
                        waiting_logged = True
                    time.sleep(leases.poll_seconds)
                availability = self.runner.screen(requests)
        except WorkerShutdown as shutdown:
            interrupted = True
            self._emit("worker.signal", reason=str(shutdown))
            self.progress(
                f"[{self.spec.name}] {label}: {shutdown} — leases "
                f"released, exiting cleanly (rerun to resume)"
            )
        finally:
            restore_signal_handlers(previous_handlers)

        records = self.store.failures()
        poisoned = {key: records[key] for key in keys
                    if not availability[key]
                    and record_poisoned(records.get(key))}
        run_stats = self.runner.stats.since(stats_before)
        summary: Dict[str, object] = {"mode": self.mode, **fields}
        summary["cells_total"] = len(self.keyed_cells())
        if leases is not None:
            summary["cells_claimed"] = claimed_total
        summary["cells_simulated"] = simulated
        summary["cells_from_cache"] = hits
        if poisoned:
            summary["cells_failed"] = len(poisoned)
        summary["wall_seconds"] = round(time.perf_counter() - started, 2)
        if interrupted:
            summary["interrupted"] = True
        summary.update(run_stats.as_dict())
        quarantined = self.runner.disk_cache.quarantine_count()
        if quarantined > 0:
            self._emit("cache.quarantine", count=quarantined)
        self._emit("worker.stopped", mode=mode,
                   cells_claimed=claimed_total, interrupted=interrupted,
                   **run_stats.as_dict())
        self.progress(f"[{self.spec.name}] {label} done: {simulated} "
                      f"simulated, {hits} from cache, {len(poisoned)} failed")
        return summary, poisoned

    def _execute(self, batch: List[Tuple[str, SimRequest]],
                 records: Dict[str, Dict[str, object]], owner: str,
                 label: str, leases: Optional[_Leases]) -> int:
        """Execute one claimed batch and settle every cell in it.

        An unleased batch runs as one
        :meth:`~repro.experiments.parallel.ParallelExperimentRunner.warm_isolated`
        call (fanning out over child processes).  Leased cells run one at a
        time so the rest of the batch's leases can be renewed in between.
        ``cell_timeout`` bounds each cell either way.
        Settling writes no manifest: a finished cell is its disk-cache entry
        and its ``cell.finished`` event, a failed one its failure record.
        Each chunk is one journal round: its start frames go out in one
        write before it runs, its settle frames in one write after.
        Returns the number of cells finished.
        """
        if leases is None:
            chunks = [batch]
        else:
            chunks = [[cell] for cell in batch]
        remaining = [key for key, _request in batch]
        finished = 0
        try:
            for chunk in chunks:
                attempts: Dict[str, int] = {}
                with self.journal.round():
                    for key, request in chunk:
                        # Chaos site: a seeded kill fault drops the whole
                        # process right here — holding its claims, like a
                        # real OOM kill.  Leases are reclaimed after their
                        # TTL.
                        faults.probe(faults.SITE_WORKER_KILL, key=key)
                        attempts[key] = int(
                            (records.get(key) or {}).get("attempts", 0))
                        self._emit("cell.started", key=key,
                                   attempt=attempts[key] + 1,
                                   workload=request.workload,
                                   variant=request.label)
                        if attempts[key] > 0:
                            self._emit("cell.retried", key=key,
                                       attempt=attempts[key] + 1)
                    self.journal.flush()
                    stats_before = self.runner.stats.copy()
                    _executed, failures = self.runner.warm_isolated(
                        [request for _key, request in chunk],
                        attempts=attempts, timeout=self.cell_timeout)
                    # Per-cell pace is only meaningful for a one-cell chunk.
                    stats = (self.runner.stats.since(stats_before)
                             if len(chunk) == 1 else None)
                    for key, request in chunk:
                        if self._settle(key, request, failures.get(key),
                                        attempts[key], owner, label,
                                        stats) is None:
                            finished += 1
                if leases is not None:
                    self.store.release_leases(remaining[:len(chunk)], owner)
                    remaining = remaining[len(chunk):]
                    if remaining:
                        renewed = self.store.renew_leases(
                            remaining, owner, ttl=leases.ttl)
                        self._emit("lease.renewed", count=renewed,
                                   held=len(remaining))
        finally:
            # On an exception, signal or Ctrl-C mid-batch, hand the
            # unfinished claims straight back instead of making everyone
            # (including our own restart, which gets a fresh pid-based
            # owner) wait out the TTL.
            if leases is not None and remaining:
                self.store.release_leases(remaining, owner)
        return finished

    def _settle(self, key: str, request: SimRequest,
                info: Optional[Dict[str, object]], prior: int, owner: str,
                label: str, stats=None) -> Optional[Dict[str, object]]:
        """The one failure/emission path for an executed cell.

        ``info`` is the cell's failure payload (``None``: it finished).  A
        failure becomes a durable record — retryable after its backoff, or
        poisoned once the retry budget is spent — which is returned.
        """
        name = f"{request.workload}/{request.label or request.kind}"
        if info is None:
            self._emit("cell.finished", key=key, workload=request.workload,
                       variant=request.label,
                       **self._cell_measures(key, stats))
            self.progress(f"[{self.spec.name}] {label}: cell {name} done")
            return None
        count = prior + 1
        record = make_failure_record(
            key, info, count, self.retry_policy, owner=owner,
            workload=request.workload, variant=request.label,
        )
        self.store.record_failure(key, record)
        poisoned = record_poisoned(record)
        self._emit("cell.failed", key=key, attempt=count,
                   workload=request.workload, variant=request.label,
                   error_type=info.get("error_type"),
                   message=info.get("message"), poisoned=poisoned)
        if info.get("error_type") == "CellTimeout":
            self._emit("watchdog.timeout", key=key, attempt=count)
        if poisoned:
            self._emit("cell.poisoned", key=key, attempts=count)
        self.progress(
            f"[{self.spec.name}] {label}: cell {name} FAILED "
            f"(attempt {count}/{self.retry_policy.max_attempts}, "
            f"{info.get('error_type')}: {info.get('message')}) — "
            f"{'poisoned' if poisoned else 'will retry'}"
        )
        return record

    def unfinished_cells(self) -> List[str]:
        """Content keys of cells whose results are not in any cache yet."""
        keyed = self.keyed_cells()
        availability = self.runner.screen(
            [request for _key, request in keyed])
        return [key for key, _request in keyed if not availability[key]]

    def finalize(self, manifest: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """Assemble and persist the final artefact from cached cells.

        Raises :class:`CampaignIncomplete` when cells are still missing —
        finalisation never simulates planned cells, so shard/worker runs
        must land first.  The experiment module still runs what no variant
        plans (see the module docstring) at assembly.  *Poisoned* cells (permanently
        failed after exhausting their retry budget) do not block
        finalisation: the artefact is assembled around them, carrying an
        explicit ``health`` section, so a partly-failed campaign yields
        partial artifacts instead of nothing.

        Deterministic by construction: the assembled tables and text depend
        only on the cached outcomes, so a merge after sharded execution is
        bit-identical to a single-host :meth:`run`.
        """
        if manifest is None:
            manifest = self.prepare()
        self._open_journal(f"merge-{default_owner()}")
        keyed = self.keyed_cells()
        missing = self.unfinished_cells()
        failures: Optional[Dict[str, Dict[str, object]]] = None
        if missing:
            records = self.store.failures()
            poisoned = {key: records[key] for key in missing
                        if record_poisoned(records.get(key))}
            unaccounted = [key for key in missing if key not in poisoned]
            if unaccounted:
                raise CampaignIncomplete(
                    f"campaign {self.spec.name!r}: {len(unaccounted)} of "
                    f"{len(keyed)} cells not simulated yet — run the "
                    f"remaining shards/workers before merging"
                )
            failures = poisoned
        summary = {"mode": self.mode, "cells_total": len(keyed),
                   "cells_simulated": 0,
                   "cells_from_cache": len(keyed) - len(missing)}
        return self._assemble(manifest, summary, time.perf_counter(),
                              self.runner.stats.copy(), failures=failures)

    # ------------------------------------------------------------------
    def _assemble(self, manifest: Dict[str, object],
                  summary: Dict[str, object], started: float, stats_before,
                  failures: Optional[Dict[str, Dict[str, object]]] = None,
                  ) -> Dict[str, object]:
        """Run the experiment module over the warmed caches and persist.

        ``summary`` holds the cell counters; wall time and runner stats
        since ``started``/``stats_before`` are added here.  The progress
        line reports the assembly's own wall time, simulations and hits.

        ``module.run(self.runner)`` reads the campaign's planned cells back
        by variant name (every one a cache hit once the run is complete) and
        computes only what no variant plans.

        ``failures`` (poisoned-cell records) switches degraded assembly on:
        the result gains a deterministic ``health`` section, and an
        exception from the experiment module — which may legitimately hit
        the same crash the poisoned cell did, since reading a poisoned cell
        back simulates it again — degrades to a stub artefact instead of
        propagating.
        The key is *absent* on clean runs, keeping fault-free artifacts
        byte-identical to earlier releases.
        """
        module = importlib.import_module(self.spec.experiment)
        assembly_started = time.perf_counter()
        assembly_stats = self.runner.stats.copy()
        try:
            # What the module simulates (cells no variant plans) is one
            # group commit, landed before the run is recorded.
            with self.runner.disk_cache.batch():
                result = module.run(self.runner)
            tables = self._tables(module, result)
            text = result.render()
        except Exception as error:
            if not failures:
                raise
            tables = {}
            text = (
                f"DEGRADED: artefact assembly failed over "
                f"{len(failures)} poisoned cell(s): "
                f"{type(error).__name__}: {error}"
            )
        run_stats = self.runner.stats.since(stats_before)
        wall = time.perf_counter() - started

        summary = dict(summary)
        if failures:
            summary["cells_failed"] = len(failures)
        summary["wall_seconds"] = round(wall, 2)
        summary.update(run_stats.as_dict())
        self.store.record_run(manifest, summary)
        payload: Dict[str, object] = {
            "campaign": self.spec.name,
            "title": self.spec.title,
            "description": self.spec.description,
            "experiment": self.spec.experiment,
            "spec_fingerprint": self.spec.fingerprint(),
            "mode": self.mode,
            # Deterministic planned-cell count (deduped by content key);
            # the volatile per-run counters live under "run".
            "cells": len(self.keyed_cells()),
        }
        if failures:
            payload["health"] = self._health_section(failures)
        payload.update(
            {
                "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "tables": tables,
                "text": text,
                "run": summary,
            }
        )
        self.store.save_result(payload)

        self._emit("campaign.assembled",
                   health="degraded" if failures else "ok",
                   cells_total=summary["cells_total"],
                   cells_failed=len(failures) if failures else 0,
                   wall_seconds=round(wall, 2))
        assembly = self.runner.stats.since(assembly_stats)
        self.progress(
            f"[{self.spec.name}] assembled in "
            f"{time.perf_counter() - assembly_started:.1f}s "
            f"({assembly.simulations} simulations, "
            f"{assembly.memory_hits + assembly.disk_hits} cache hits)"
        )
        return summary

    # ------------------------------------------------------------------
    @staticmethod
    def _cell_entry(request: SimRequest) -> Dict[str, object]:
        """One planned cell's manifest record."""
        return {"workload": request.workload, "variant": request.label,
                "kind": request.kind}

    @staticmethod
    def _health_section(
        failures: Dict[str, Dict[str, object]],
    ) -> Dict[str, object]:
        """The deterministic ``health`` block of a degraded result.

        Only content-determined fields (keys, exception identity, attempt
        counts) — no owners, timestamps or durations — so a degraded merge
        stays byte-identical to a degraded single-host run hitting the same
        deterministic failures.
        """
        return {
            "state": "degraded",
            "failed": [
                {
                    "key": key,
                    "workload": record.get("workload"),
                    "variant": record.get("variant"),
                    "error_type": record.get("error_type"),
                    "message": record.get("message"),
                    "traceback_digest": record.get("traceback_digest"),
                    "attempts": record.get("attempts"),
                }
                for key, record in sorted(failures.items())
            ],
        }

    @staticmethod
    def _tables(module, result) -> Dict[str, List[Dict[str, object]]]:
        hook = getattr(module, "artifact_tables", None)
        if hook is None:
            return {}
        return {name: list(rows) for name, rows in hook(result).items()}


def _resolve_spec(campaign: Union[str, CampaignSpec]) -> CampaignSpec:
    if isinstance(campaign, str):
        from repro.campaign.registry import get_campaign

        spec = get_campaign(campaign)
        if spec is None:
            raise SpecError(f"unknown campaign {campaign!r} (try `repro list`)")
        return spec
    return campaign


def run_campaign(
    campaign: Union[str, CampaignSpec],
    quick: bool = True,
    processes: Optional[int] = None,
    store: Optional[CampaignStore] = None,
    runner: Optional[ParallelExperimentRunner] = None,
    progress: Optional[Progress] = None,
    retry_policy: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
) -> Dict[str, object]:
    """Resolve ``campaign`` (name or spec) and execute it."""
    scheduler = CampaignScheduler(
        _resolve_spec(campaign), quick=quick, processes=processes, store=store,
        runner=runner, progress=progress,
        retry_policy=retry_policy, cell_timeout=cell_timeout,
    )
    return scheduler.run()
