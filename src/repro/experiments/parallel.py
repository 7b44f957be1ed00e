"""Parallel, fingerprint-keyed experiment execution.

``ParallelExperimentRunner`` fans independent (workload, configuration)
simulations out over ``multiprocessing`` worker processes and merges the
results back into the ordinary in-memory/on-disk caches in deterministic
(request) order.  Because every simulation is deterministic — programs are
seeded with content-stable hashes, traces replay identically, and all hint
errors come from :class:`~repro.util.rng.DeterministicRng` — a parallel
campaign produces bit-identical outcomes to a serial one, just sooner.

Workers are grouped by workload so each worker process builds a workload's
program/trace/profile once and then runs every configuration requested for
it; only small, stripped result objects cross the process boundary.

This is what makes ``REPRO_FULL_EVAL=1`` practical: the full-suite matrix is
embarrassingly parallel at the (workload, config) level and scales with
cores.  On a single-core host (or with ``processes=1``) the runner degrades
to inline execution with no multiprocessing overhead.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.dla.config import DlaConfig
from repro.experiments.runner import ExperimentRunner, strip_outcome

#: Environment variable overriding the worker-process count.
PROCESSES_ENV = "REPRO_PROCESSES"


@dataclass(frozen=True)
class SimRequest:
    """One independent simulation of the standard experiment matrix."""

    workload: str
    kind: str                                    # "baseline" | "dla" | "segmented"
    label: str = ""
    system_config: Optional[SystemConfig] = None  # None -> runner default
    dla_config: Optional[DlaConfig] = None
    #: Segmented requests only: on-line (dynamic) vs off-line recycle tuning.
    dynamic: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("baseline", "dla", "segmented"):
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.kind in ("dla", "segmented") and self.dla_config is None:
            raise ValueError(f"{self.kind} requests need a dla_config")
        if self.kind != "segmented" and self.dynamic:
            # dynamic is not part of the baseline/dla cache keys; accepting
            # it would silently alias with the dynamic=False request.
            raise ValueError("dynamic tuning is a segmented-only knob")


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
#: Per-worker runner, keyed by a content fingerprint of the constructor
#: kwargs that define it (including the base system config).  A pool worker
#: serves one campaign, so this only ever holds one entry; the dict avoids
#: rebuilding setups when a worker receives several groups of one campaign
#: while never aliasing runners across campaigns with different configs.
_WORKER_RUNNERS: Dict[str, ExperimentRunner] = {}


def _worker_runner(ctor_kwargs: dict) -> ExperimentRunner:
    from repro.experiments.fingerprint import fingerprint

    key = fingerprint(ctor_kwargs)
    runner = _WORKER_RUNNERS.get(key)
    if runner is None:
        runner = ExperimentRunner(**ctor_kwargs)
        _WORKER_RUNNERS.clear()   # one campaign per worker: drop stale state
        _WORKER_RUNNERS[key] = runner
    return runner


def _simulate_request(runner: ExperimentRunner, setup, request: SimRequest):
    """Run one request against an already-built setup; returns the outcome."""
    if request.kind == "baseline":
        return strip_outcome(
            runner.baseline(setup, request.label or "bl", request.system_config)
        )
    if request.kind == "segmented":
        return runner.dla_segmented(
            setup, request.dla_config, request.dynamic,
            request.label or "recycle", request.system_config
        )
    return runner.dla(
        setup, request.dla_config, request.label or "dla", request.system_config
    )


def _request_content_key(runner: ExperimentRunner, request: SimRequest) -> str:
    """Content key of ``request`` from workload *definitions* only — no
    trace/profile building, so it is safe to compute before a setup exists
    (fault probes and failure records need the key even when setup fails)."""
    from repro.workloads.suites import get_workload

    workload = get_workload(request.workload)
    if request.kind == "segmented":
        return runner.segmented_key_for(
            workload, request.dla_config, request.dynamic, request.system_config
        )
    return runner.workload_key(
        workload, request.kind, request.system_config, request.dla_config,
    )


def _failure_payload(request: SimRequest, error: BaseException,
                     duration_seconds: float) -> Dict[str, object]:
    """The picklable record of one isolated cell failure."""
    from repro.campaign.health import exception_info

    info = exception_info(error, duration_seconds)
    info.update({
        "workload": request.workload,
        "kind": request.kind,
        "label": request.label,
    })
    return info


def _simulate_group(runner: ExperimentRunner, workload: str,
                    pairs: Sequence[Tuple[SimRequest, str]], isolate: bool,
                    attempts: Dict[str, int]) -> List[Tuple[str, str, object]]:
    """Run every ``(request, key)`` of one workload group against ``runner``.

    Returns ``(kind, key, outcome)`` entries in request order.  With
    ``isolate`` on, a request whose simulation — or the group's setup —
    raises does not poison the group: the exception becomes a
    ``("failed", key, info)`` entry and the remaining requests still run.
    Without it the exception propagates unchanged.
    """
    from repro.util import faults

    setup = None
    results = []
    for request, key in pairs:
        started = time.monotonic()
        try:
            faults.probe(faults.SITE_CELL_SIMULATE, key=key,
                         attempt=attempts.get(key, 0))
            if setup is None:
                setup = runner.setup(workload)
            results.append((request.kind, key,
                            _simulate_request(runner, setup, request)))
        except Exception as error:   # isolation boundary — keep going
            if not isolate:
                raise
            results.append(("failed", key, _failure_payload(
                request, error, time.monotonic() - started)))
    return results


def _run_group(payload: Tuple[dict, str, List[SimRequest]]):
    """Execute every request of one workload group in a worker process.

    ``payload`` is ``(ctor_kwargs, workload, requests)`` — optionally
    followed by an options dict ``{"isolate": bool, "attempts": {key: n}}``
    (see :func:`_simulate_group`).
    """
    ctor_kwargs, workload, requests, *rest = payload
    options = rest[0] if rest else {}
    runner = _worker_runner(ctor_kwargs)
    # The runner (and its stats) persists across the groups this worker
    # serves; report only this group's delta or the parent's merge would
    # prefix-sum-overcount every earlier group.
    stats_before = runner.stats.copy()
    pairs = [(request, _request_content_key(runner, request))
             for request in requests]
    results = _simulate_group(runner, workload, pairs,
                              bool(options.get("isolate")),
                              options.get("attempts", {}))
    return workload, results, runner.stats.since(stats_before)


def mp_context():
    """The multiprocessing context for simulation subprocesses: ``fork``
    where available (children inherit the loaded kernel), else ``spawn``."""
    import multiprocessing

    return multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )


class ParallelExperimentRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` that can pre-compute request batches in
    parallel worker processes.

    All single-request entry points (:meth:`setup`, :meth:`baseline`,
    :meth:`dla`) are inherited unchanged — figures keep calling them and hit
    the caches :meth:`warm` filled.
    """

    def __init__(self, *args, processes: Optional[int] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if processes is None:
            env = os.environ.get(PROCESSES_ENV, "")
            processes = int(env) if env.isdigit() and int(env) > 0 else None
        self.processes = processes

    # ------------------------------------------------------------------
    def _ctor_kwargs(self) -> dict:
        return {
            "quick": self.quick,
            "workload_names": list(self.workload_names),
            "warmup_instructions": self.warmup_instructions,
            "timed_instructions": self.timed_instructions,
            "system_config": self.system_config,
            # Workers read/write the shared disk cache directly; with it
            # disabled they return everything through the merge below.
            "disk_cache": self.disk_cache is not None,
        }

    def default_processes(self) -> int:
        cpus = os.cpu_count() or 1
        # Leave one core for the merging parent on bigger machines.
        return cpus if cpus <= 2 else cpus - 1

    # ------------------------------------------------------------------
    def standard_requests(self) -> List[SimRequest]:
        """The core configuration matrix of the paper's headline figures.

        Six configurations per workload: {BL, DLA, R3-DLA} x {BOP prefetcher,
        no prefetcher}.  Everything else (fetch-buffer sweeps, single-
        optimization ablations) is cheap by comparison and computed on
        demand — where its fingerprint matches one of these, it is a cache
        hit anyway.
        """
        nopf = self.no_prefetch_config()
        dla = DlaConfig().baseline_dla()
        r3 = DlaConfig().r3()
        requests: List[SimRequest] = []
        for name in self.workload_names:
            requests.append(SimRequest(name, "baseline", "bl"))
            requests.append(SimRequest(name, "baseline", "bl-nopf", system_config=nopf))
            requests.append(SimRequest(name, "dla", "dla", dla_config=dla))
            requests.append(SimRequest(name, "dla", "dla-nopf", system_config=nopf, dla_config=dla))
            requests.append(SimRequest(name, "dla", "r3", dla_config=r3))
            requests.append(SimRequest(name, "dla", "r3-nopf", system_config=nopf, dla_config=r3))
        return requests

    # ------------------------------------------------------------------
    def warm(self, requests: Optional[Sequence[SimRequest]] = None,
             processes: Optional[int] = None) -> int:
        """Pre-compute ``requests`` (default: the standard matrix).

        Returns the number of simulations that were actually executed (the
        rest were already cached).  Results are merged into the caches in
        request order, so subsequent figure code sees exactly the same
        objects regardless of worker scheduling.  This is
        :meth:`warm_isolated` with ``raise_through`` set: for the figure
        modules an exception is a bug to surface, not route around.
        """
        return self.warm_isolated(requests, processes, raise_through=True)[0]

    def warm_isolated(
        self,
        requests: Optional[Sequence[SimRequest]] = None,
        processes: Optional[int] = None,
        attempts: Optional[Dict[str, int]] = None,
        raise_through: bool = False,
    ) -> Tuple[int, Dict[str, Dict[str, object]]]:
        """Fault-isolated :meth:`warm`: capture per-cell failures, keep going.

        Returns ``(executed, failures)`` where ``failures`` maps content key
        to a structured failure payload (exception type, message, traceback
        digest, monotonic duration) for every request whose simulation — or
        setup — raised.  Successful cells land in the caches exactly as with
        :meth:`warm`; failed cells land nowhere, so a later retry re-runs
        only them.  ``attempts`` (key -> prior failure count) is forwarded
        to the fault-injection probe so attempt-gated transient faults stop
        firing once a cell has been retried past their budget.  With
        ``raise_through`` the first failure propagates unchanged instead.

        Keys are derived from workload *definitions*, so screening a fully
        cached batch costs no setup work at all.  Pending requests are
        grouped by workload (request order kept); one group runs inline on
        this runner, several fan out over a process pool.  This is the
        campaign scheduler's execution primitive.
        """
        requests = list(requests if requests is not None else self.standard_requests())
        isolate = not raise_through
        attempts = attempts or {}
        keys = [self.request_key(request) for request in requests]
        availability = self.screen(requests, keys=keys)
        groups: Dict[str, List[Tuple[SimRequest, str]]] = {}
        for request, key in zip(requests, keys):
            if not availability[key]:
                groups.setdefault(request.workload, []).append((request, key))
        if not groups:
            return 0, {}
        processes = processes or self.processes or self.default_processes()
        processes = min(processes, len(groups))
        simulations_before = self.stats.simulations
        failures: Dict[str, Dict[str, object]] = {}

        if processes <= 1:
            # Inline execution: run directly on this runner — its setups and
            # caches are exactly what the figures will use afterwards, so
            # nothing is built twice.
            for workload, pairs in groups.items():
                for kind, key, outcome in _simulate_group(
                        self, workload, pairs, isolate, attempts):
                    if kind == "failed":
                        failures[key] = outcome
            return self.stats.simulations - simulations_before, failures

        from repro.core.compile.build import load_kernel

        # Build/load the compiled tick kernel once before fanning out:
        # forked workers inherit the loaded module, spawned workers find the
        # cached artifact on disk — either way no worker pays (or races) the
        # C compile inside its measured simulation time.
        load_kernel()
        payloads = [
            (self._ctor_kwargs(), workload, [request for request, _key in pairs],
             {"isolate": isolate,
              "attempts": {key: attempts.get(key, 0) for _request, key in pairs}})
            for workload, pairs in groups.items()
        ]
        with mp_context().Pool(processes=processes) as pool:
            # ``map`` preserves payload order -> deterministic merge order.
            for result in pool.map(_run_group, payloads):
                failures.update(self._merge_group(result))
        return self.stats.simulations - simulations_before, failures

    # ------------------------------------------------------------------
    def request_key(self, request: SimRequest) -> str:
        """Content key of a request — no trace/profile building required."""
        return _request_content_key(self, request)

    def screen(self, requests: Sequence[SimRequest],
               keys: Optional[Sequence[str]] = None) -> Dict[str, bool]:
        """Cell-granular cache probe: request key -> "result available".

        Disk-cached results are pulled into the in-memory caches on the way
        (so a later :meth:`warm` or figure call is a memory hit), but nothing
        is ever simulated.  This is what sharded execution polls: a cell is
        *done* exactly when its key screens True here, regardless of which
        worker (or host, via a shared/synced cache directory) computed it.

        ``keys`` — when the caller already holds the content keys (aligned
        with ``requests``) — skips recomputing the fingerprints.
        """
        availability: Dict[str, bool] = {}
        for index, request in enumerate(requests):
            key = keys[index] if keys is not None else self.request_key(request)
            has, inject = self._cache_ops(request.kind)
            if has(key):
                availability[key] = True
                continue
            if self.disk_cache is not None:
                stored = self.disk_cache.get(self._disk_key(key))
                if stored is not None:
                    self.stats.disk_hits += 1
                    inject(key, stored, persist=False)
                    availability[key] = True
                    continue
            availability[key] = False
        return availability

    def _cache_ops(self, kind: str):
        """(has, inject) cache accessors for one request kind."""
        if kind == "baseline":
            return self.has_baseline, self.inject_baseline
        if kind == "segmented":
            return self.has_segmented, self.inject_segmented
        return self.has_dla, self.inject_dla

    def _merge_group(self, result) -> Dict[str, Dict[str, object]]:
        _workload, outcomes, worker_stats = result
        # Workers share this runner's disk-cache setting (see _ctor_kwargs):
        # if the disk cache is on, every fresh outcome was already persisted
        # by the worker that computed it — don't pickle it all again here.
        failures: Dict[str, Dict[str, object]] = {}
        for kind, key, outcome in outcomes:
            if kind == "failed":
                # Isolated-mode sentinel: ``outcome`` is a failure payload,
                # not a result.  Nothing is cached — the cell stays pending.
                failures[key] = outcome
                continue
            _has, inject = self._cache_ops(kind)
            inject(key, outcome, persist=False)
        self.stats.merge(worker_stats)
        return failures
