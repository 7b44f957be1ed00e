"""Parallel, fingerprint-keyed experiment execution.

``ParallelExperimentRunner`` runs batches of independent (workload,
configuration) simulations and merges the results back into the runner's
one outcome store in deterministic (request) order.  Because every
simulation is deterministic — programs are seeded with content-stable
hashes, traces replay identically, and all hint errors come from
:class:`~repro.util.rng.DeterministicRng` — a parallel campaign produces
bit-identical outcomes to a serial one, just sooner.

A batch runs inline on the runner itself when one process suffices and no
cell timeout is set.  Otherwise it goes through :func:`run_in_children`,
the one child-process engine: a forked child per workload group (or per
cell, under a timeout), at most ``processes`` alive at once, each
reporting its failures and stats back through a pipe.  The results
themselves travel through the disk cache, one group commit per workload
group, made before the group's cells are read back (and, in a child,
before it reports).  One rule settles every cell, inline or not: a cell
is done once its entry reads back.  A child that overruns the timeout is
killed and a child that dies without reporting is noticed; either way it
committed nothing, and its cells become ordinary retryable failures, as
does a result that does not read back.
Grouping by workload lets a child build a workload's program/trace/profile
once and run every configuration requested for it.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SystemConfig
from repro.dla.config import DlaConfig
from repro.experiments.runner import (AUXILIARY_RECIPES, CELL_KINDS, DLA_KINDS,
                                     ExperimentRunner, RunnerStats, WorkloadSetup)

#: Environment variable overriding the worker-process count.
PROCESSES_ENV = "REPRO_PROCESSES"


@dataclass(frozen=True)
class SimRequest:
    """One independent simulation of the standard experiment matrix."""

    workload: str
    kind: str                                    # one of CELL_KINDS
    label: str = ""
    system_config: Optional[SystemConfig] = None  # None -> runner default
    dla_config: Optional[DlaConfig] = None
    #: Segmented requests only: on-line (dynamic) vs off-line recycle tuning.
    dynamic: bool = False

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}")
        if (self.kind in DLA_KINDS) != (self.dla_config is not None):
            raise ValueError(f"a dla_config is for exactly {DLA_KINDS} requests")
        if self.kind != "segmented" and self.dynamic:
            # dynamic is not part of the baseline/dla cache keys; accepting
            # it would silently alias with the dynamic=False request.
            raise ValueError("dynamic tuning is a segmented-only knob")


def _simulate_request(runner: ExperimentRunner, setup, request: SimRequest):
    """Run one request against an already-built setup; returns the outcome."""
    if request.kind == "baseline":
        return runner.baseline(setup, request.label or "bl", request.system_config)
    if request.kind in AUXILIARY_RECIPES:
        return runner.auxiliary(setup, request.kind, request.system_config)
    if request.kind == "segmented":
        return runner.dla_segmented(
            setup, request.dla_config, request.dynamic,
            request.label or "recycle", request.system_config
        )
    return runner.dla(
        setup, request.dla_config, request.label or "dla", request.system_config
    )


def plan_workloads(spec, runner: ExperimentRunner) -> List[str]:
    """The workloads that get cells of campaign ``spec`` on ``runner``.

    The spec's own workloads when it pins them (fig14), else the runner's;
    in quick mode only the first ``max_cell_workloads_quick`` of them
    (fig15).
    """
    names = spec.resolve_workloads()
    if names is None:
        names = list(runner.workload_names)
    limit = spec.max_cell_workloads_quick
    if runner.quick and limit is not None:
        names = names[:limit]
    return names


def plan_cells(spec, runner: ExperimentRunner) -> List[SimRequest]:
    """The flattened (workload, variant) cell matrix of campaign ``spec``.

    Each variant is materialised once per call: a config memoises its key
    text per object, so every workload's cells share one config (and one
    canonical text) per variant.
    """
    base = runner.system_config
    materialised = [
        (variant, variant.system_config(base), variant.dla_config())
        for variant in spec.variants
    ]
    return [
        SimRequest(workload=workload, kind=variant.kind, label=variant.name,
                   system_config=system_config, dla_config=dla_config,
                   dynamic=variant.dynamic)
        for workload in plan_workloads(spec, runner)
        for variant, system_config, dla_config in materialised
    ]


def run_cells(spec, runner: ExperimentRunner,
              ) -> List[Tuple[WorkloadSetup, Dict[str, object]]]:
    """The outcomes of every planned cell of ``spec``: per planned workload,
    in plan order, its setup and its cells' outcomes by variant name.

    Each cell goes through :func:`_simulate_request` and so through the
    runner's cache: at campaign assembly every one is a hit.  This is how
    an experiment module reads its configurations — it builds none itself.
    The setup comes along for what a module computes beside its cells, so
    no module asks the runner for a setup twice.
    """
    cells = {workload: (runner.setup(workload), {})
             for workload in plan_workloads(spec, runner)}
    for request in plan_cells(spec, runner):
        setup, outcomes = cells[request.workload]
        outcomes[request.label] = _simulate_request(runner, setup, request)
    return list(cells.values())


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
    kind = request.kind
    return runner.workload_key(
        workload, f"aux-{kind}" if kind in AUXILIARY_RECIPES else kind,
        request.system_config, request.dla_config)


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
                    pairs: Sequence[Tuple[SimRequest, str]],
                    attempts: Dict[str, int]) -> Dict[str, Dict[str, object]]:
    """Run every ``(request, key)`` of one workload group against ``runner``.

    Returns the failure payload of every request whose simulation — or the
    group's setup — raised, by key.  A failure does not poison the group:
    the remaining requests still run.  Finished outcomes land in
    ``runner``'s outcome store and disk cache.  The group's disk entries
    are one group commit, made before this returns: before the settle loop
    reads the cells back, and before a child reports.
    """
    from repro.util import faults

    setup = None
    failures = {}
    with runner.disk_cache.batch():
        for request, key in pairs:
            started = time.monotonic()
            try:
                faults.probe(faults.SITE_CELL_SIMULATE, key=key,
                             attempt=attempts.get(key, 0))
                if setup is None:
                    setup = runner.setup(workload)
                _simulate_request(runner, setup, request)
            except Exception as error:   # isolation boundary — keep going
                failures[key] = _failure_payload(
                    request, error, time.monotonic() - started)
    return failures


def _run_group(payload: Tuple[dict, str, List[Tuple[SimRequest, str]],
                              Dict[str, int]]):
    """Child-process body: run one workload group on a fresh runner.

    ``payload`` is ``(ctor_kwargs, workload, pairs, attempts)`` (see
    :func:`_simulate_group`); returns ``(failures, stats)``, the runner's
    stats being exactly this group's.  The outcomes travel through the
    disk cache, not the pipe.
    """
    ctor_kwargs, workload, pairs, attempts = payload
    runner = ExperimentRunner(**ctor_kwargs)
    return _simulate_group(runner, workload, pairs, attempts), runner.stats


@contextmanager
def default_signal_dispositions():
    """SIGTERM and SIGINT at their default dispositions for the duration.

    :func:`run_in_children` forks its children inside it.  A campaign loop
    routes both signals into
    :class:`~repro.campaign.health.WorkerShutdown`; a forked child that
    inherited that handler would raise where the engine's ``terminate()``
    lands, into code that could still report the result it was stopped
    for, instead of dying.  Outside the main thread, where no handler can
    be installed, it changes nothing.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = {signum: signal.signal(signum, signal.SIG_DFL)
                for signum in (signal.SIGTERM, signal.SIGINT)}
    try:
        yield
    finally:
        for signum, handler in previous.items():
            if handler is not None:     # None: not installed from Python
                signal.signal(signum, handler)


def _child_main(target: Callable, payload: object, report) -> None:
    report.send(target(payload))


def _stop(process, grace: float = 5.0) -> None:
    """Terminate ``process``, kill it if it outlives ``grace`` seconds, and
    reap it."""
    if process.is_alive():
        process.terminate()
        process.join(grace)
    if process.is_alive():
        process.kill()
    process.join()


def run_in_children(target: Callable, payloads: Sequence[object],
                    processes: int, timeout: Optional[float] = None,
                    ) -> List[Tuple[object, Optional[Exception], float]]:
    """Run ``target(payload)`` for every payload in its own forked child.

    At most ``processes`` children are alive at once; each sends
    ``target``'s return value back through a pipe.  Returns one
    ``(report, error, seconds)`` per payload, in payload order.  ``error``
    is ``None`` for a child that reported, a
    :class:`~repro.campaign.health.CellTimeout` for one still silent
    ``timeout`` seconds after it started (it is terminated, then killed),
    and a :class:`~repro.campaign.health.CellCrashed` for one that closed
    its pipe without reporting.  However the call ends —
    :class:`~repro.campaign.health.WorkerShutdown` included — no child
    outlives it.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    from repro.campaign.health import CellCrashed, CellTimeout

    # ``fork`` where available: children inherit the loaded kernel.
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn")
    outcomes: List = [None] * len(payloads)
    queue = list(enumerate(payloads))[::-1]     # pop() yields payload order
    running: Dict[object, Tuple[int, object, float]] = {}   # pipe -> child
    try:
        while queue or running:
            while queue and len(running) < processes:
                index, payload = queue.pop()
                reader, writer = context.Pipe(duplex=False)
                process = context.Process(target=_child_main,
                                          args=(target, payload, writer))
                with default_signal_dispositions():
                    process.start()
                writer.close()
                running[reader] = (index, process, time.monotonic())
            budget = None
            if timeout is not None:
                first = min(started for _i, _p, started in running.values())
                budget = max(0.0, first + timeout - time.monotonic())
            # A child leaves ``running`` only once reaped, so an exception
            # anywhere here still leaves it to the ``finally``.
            for reader in wait(list(running), budget):
                index, process, started = running[reader]
                try:
                    report, error = reader.recv(), None
                except EOFError:        # the child died before reporting
                    _stop(process)
                    report, error = None, CellCrashed(
                        f"child process died with exit code "
                        f"{process.exitcode}")
                outcomes[index] = (report, error, time.monotonic() - started)
                _stop(process)
                del running[reader]
                reader.close()
            if timeout is None:
                continue
            now = time.monotonic()
            for reader, (index, process, started) in list(running.items()):
                if now - started >= timeout:
                    _stop(process)
                    del running[reader]
                    reader.close()
                    outcomes[index] = (None, CellTimeout(
                        f"cell exceeded --cell-timeout {timeout:g}s wall "
                        f"clock"), now - started)
    finally:
        for reader, (_index, process, _started) in running.items():
            _stop(process)
            reader.close()
    return outcomes


class ParallelExperimentRunner(ExperimentRunner):
    """An :class:`ExperimentRunner` that can pre-compute request batches in
    parallel child processes.

    All single-request entry points (:meth:`setup`, :meth:`baseline`,
    :meth:`dla`, ...) are inherited unchanged — figures keep calling them and
    hit the outcome store :meth:`warm_isolated` filled.
    """

    def __init__(self, *args, processes: Optional[int] = None, **kwargs) -> None:
        # Campaign cells settle through the disk cache, so it is always on.
        super().__init__(*args, disk_cache=True, **kwargs)
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
        }

    def default_processes(self) -> int:
        cpus = os.cpu_count() or 1
        # Leave one core for the merging parent on bigger machines.
        return cpus if cpus <= 2 else cpus - 1

    # ------------------------------------------------------------------
    def warm_isolated(
        self,
        requests: Sequence[SimRequest],
        processes: Optional[int] = None,
        attempts: Optional[Dict[str, int]] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[int, Dict[str, Dict[str, object]]]:
        """Pre-compute ``requests`` under failure isolation.

        Returns ``(executed, failures)``: the number of simulations actually
        executed (the rest were already cached) and, by content key, a
        structured failure payload (exception type, message, traceback
        digest, monotonic duration) for every request whose simulation — or
        setup — raised, timed out or died with its child, or whose result
        is not readable from the disk cache.  Successful cells land in the
        outcome store in request order, so later figure code sees the same
        objects whatever the scheduling; failed cells land nowhere, so a
        retry re-runs only them.  ``attempts`` (key -> prior failure count)
        is forwarded to the fault-injection probe so attempt-gated transient
        faults stop firing once a cell has been retried past their budget.

        Keys are derived from workload *definitions*, so screening a fully
        cached batch costs no setup work at all.  Pending requests are
        grouped by workload (request order kept).  With no ``timeout`` and
        one process enough, the groups run inline on this runner; otherwise
        :func:`run_in_children` runs one child per group — per cell when
        ``timeout`` (seconds) bounds each.  Either way a cell that did not
        fail is done only once its disk entry reads back.  This is the
        campaign scheduler's execution primitive.
        """
        requests = list(requests)
        attempts = attempts or {}
        keys = [self.request_key(request) for request in requests]
        availability = self.screen(requests, keys=keys)
        groups: Dict[str, List[Tuple[SimRequest, str]]] = {}
        for request, key in zip(requests, keys):
            if not availability[key]:
                groups.setdefault(request.workload, []).append((request, key))
        if not groups:
            return 0, {}
        units = list(groups.items())
        if timeout is not None:
            units = [(workload, [pair]) for workload, pairs in units
                     for pair in pairs]
        processes = min(processes or self.processes or self.default_processes(),
                        len(units))
        simulations_before = self.stats.simulations
        failures: Dict[str, Dict[str, object]] = {}

        from repro.campaign.health import CellResultLost

        if timeout is None and processes <= 1:
            # Inline execution: run directly on this runner — its setups and
            # caches are exactly what the figures will use afterwards, so
            # nothing is built twice.  Its stats count the cells already.
            reports = []
            for workload, pairs in units:
                started = time.monotonic()
                report = (_simulate_group(self, workload, pairs, attempts),
                          RunnerStats())
                reports.append((report, None, time.monotonic() - started))
        else:
            from repro.core.compile.build import load_kernel

            # Build/load the compiled tick kernel once before forking:
            # children inherit the loaded module (spawned ones find the
            # cached artifact on disk), so none pays — or races — the C
            # compile.
            load_kernel()
            ctor_kwargs = self._ctor_kwargs()
            reports = run_in_children(
                _run_group, [(ctor_kwargs, workload, pairs, attempts)
                             for workload, pairs in units],
                processes, timeout)
        for (_workload, pairs), (report, error, seconds) in zip(units, reports):
            failed: Dict[str, Dict[str, object]] = {}
            if error is None:
                failed, stats = report
                # A child's simulations are this runner's: count them here.
                self.stats.merge(stats)
            for request, key in pairs:
                if key in failed:
                    failures[key] = failed[key]
                    continue
                # A cell is done when its result reads back from disk: that
                # catches a torn or failed write.  Every unit commits its
                # entries before it returns or reports, so this read-back
                # follows the commit point; a child that died or overran
                # committed nothing.  ``inject`` keeps an inline cell's
                # in-memory object.
                outcome = self.disk_cache.get(self._disk_key(key))
                if outcome is not None:
                    self.inject(key, outcome)
                    continue
                self._outcomes.pop(key, None)
                failures[key] = _failure_payload(request, error or CellResultLost(
                    "the cell finished, but its result is not readable "
                    "from the disk cache"), seconds)
        return self.stats.simulations - simulations_before, failures

    # ------------------------------------------------------------------
    def request_key(self, request: SimRequest) -> str:
        """Content key of a request — no trace/profile building required."""
        return _request_content_key(self, request)

    def screen(self, requests: Sequence[SimRequest],
               keys: Optional[Sequence[str]] = None) -> Dict[str, bool]:
        """Cell-granular cache probe: request key -> "result available".

        Disk-cached results are pulled into the outcome store on the way
        (so a later :meth:`warm_isolated` or figure call is a memory hit),
        but nothing is ever simulated.  This is what sharded execution polls: a cell is
        *done* exactly when its key screens True here, regardless of which
        worker (or host, via a shared/synced cache directory) computed it.

        ``keys`` — when the caller already holds the content keys (aligned
        with ``requests``) — skips recomputing the fingerprints.
        """
        availability: Dict[str, bool] = {}
        for index, request in enumerate(requests):
            key = keys[index] if keys is not None else self.request_key(request)
            available = self.cached_outcome(key) is not None
            if not available:
                stored = self.disk_cache.get(self._disk_key(key))
                if stored is not None:
                    self.stats.disk_hits += 1
                    self.inject(key, stored)
                    available = True
            availability[key] = available
        return availability
