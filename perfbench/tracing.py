"""In-memory span tracing of the simulator's layers, from outside ``src/``.

A :class:`Tracer` wraps the public functions and methods of each layer
(listed in :func:`_spans`) for the duration of one traced pass and restores the
originals afterwards, so untraced passes run the unmodified code.  Every
wrapped call becomes a span: its duration, and its *self* time (duration
minus the time covered by spans it caused).  Spans stay in memory as
per-name aggregates; nothing is written while a pass runs.

Names are patched where they are looked up: a module that bound a function
at import time (``from x import f``) gets its own binding replaced, and
methods are replaced on the class that defines them.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Span aggregates per name, plus parent->child call counts.

    ``clock`` is the pass's :class:`hostclock.ReferenceClock`; the time of
    its calibration samples is left out of every span.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        #: name -> [calls, total_ns, self_ns]
        self.spans: Dict[str, List[int]] = {}
        #: (parent name, child name) -> calls
        self.edges: Dict[Tuple[str, str], int] = {}
        #: Plain event counters (cache hits, dropped prefetches, bytes).
        self.counts: Dict[str, int] = {}
        #: Open spans, innermost last: [name, child_ns].
        self._stack: List[list] = []

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable[["Tracer", object], None]] = None
             ) -> Callable:
        """``fn`` recorded as span ``name``; ``observe(tracer, result)``
        runs after the span closes."""
        stack = self._stack
        spans = self.spans
        edges = self.edges
        clock = self.clock
        record = spans.setdefault(name, [0, 0, 0])

        def traced(*args, **kwargs):
            if stack:
                edge = (stack[-1][0], name)
                edges[edge] = edges.get(edge, 0) + 1
            frame = [name, 0]
            stack.append(frame)
            paused = clock.paused_ns
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start - (clock.paused_ns - paused)
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if observe is not None:
                observe(self, result)
            return result

        return traced

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0, 0))[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0, 0))[2] / 1e9


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------
def _cache_get_hit(tracer: Tracer, result) -> None:
    if result is not None:
        tracer.count("experiments.cache.get.hits")


def _prefetch_dropped(tracer: Tracer, result) -> None:
    if result is None:
        tracer.count("memory.prefetch.drops")


def _spans():
    """(span name, owner, attribute, observer) for every traced layer.

    ``owner`` is a class (the method is replaced on it) or a module (the
    function is replaced in every ``repro`` module that bound it).
    """
    from repro.campaign import render, scheduler, store, telemetry
    from repro.core import system
    from repro.core.compile import decoded, driver
    from repro.dla import hints, profiling, recycle
    from repro.dla import system as dla_system
    from repro.experiments import cache, fig09_speedup, parallel, runner
    from repro.memory import hierarchy
    from repro.prefetch.base import Prefetcher
    from repro.workloads import suites

    # The package re-exports a function under this module's name.
    fingerprint = importlib.import_module("repro.experiments.fingerprint")
    memory = hierarchy.CoreMemorySystem
    rows = [
        # workload materialisation
        ("workloads.build_program", suites.Workload, "build_program", None),
        ("workloads.trace", suites.Workload, "trace", None),
        ("dla.profiling.profile_workload", profiling, "profile_workload", None),
        ("experiments.runner.setup", runner.ExperimentRunner, "setup", None),
        # simulation entry points (attribution only)
        ("experiments.runner.baseline", runner.ExperimentRunner, "baseline", None),
        ("experiments.runner.dla", runner.ExperimentRunner, "dla", None),
        ("experiments.runner.dla_segmented", runner.ExperimentRunner,
         "dla_segmented", None),
        ("experiments.runner.auxiliary", runner.ExperimentRunner, "auxiliary", None),
        # warm-up replay / restore
        ("core.system.warm", system.WarmupMemo, "warm", None),
        # compiled tick pipeline
        ("core.compile.decode", decoded, "get_decoded", None),
        ("core.compile.run", driver, "run_compiled", None),
        # memory-side callbacks
        ("memory.access_data", memory, "access_data_fast", None),
        ("memory.access_inst", memory, "access_inst_fast", None),
        ("memory.prefetch", memory, "prefetch", _prefetch_dropped),
        # DLA
        ("dla.hints.on_fetch", hints.MainThreadHintSource, "on_fetch", None),
        ("dla.hints.on_commit", hints.MainThreadHintSource, "on_commit", None),
        ("dla.hints.branch_hint", hints.MainThreadHintSource, "branch_hint", None),
        ("dla.hints.value_hint_request", hints.MainThreadHintSource,
         "value_hint_request", None),
        ("dla.system.simulate", dla_system.DlaSystem, "simulate", None),
        ("dla.system.simulate_segmented", dla_system.DlaSystem,
         "simulate_segmented", None),
        ("dla.recycle.plan", recycle.RecycleController, "plan", None),
        # result caching
        ("experiments.cache.get", cache.ResultDiskCache, "get", _cache_get_hit),
        ("experiments.cache.put", cache.ResultDiskCache, "put", None),
        ("experiments.fingerprint", fingerprint, "fingerprint", None),
        # campaign layers
        ("campaign.scheduler.run", scheduler.CampaignScheduler, "run", None),
        ("experiments.parallel.warm_isolated", parallel.ParallelExperimentRunner,
         "warm_isolated", None),
        ("experiments.parallel.screen", parallel.ParallelExperimentRunner,
         "screen", None),
        ("campaign.assemble.experiment_run", fig09_speedup, "run", None),
        ("campaign.render", render, "render_campaign", None),
        ("campaign.telemetry.emit", telemetry.EventJournal, "emit", None),
    ]
    for attr, value in vars(store.CampaignStore).items():
        if not attr.startswith("_") and callable(value):
            rows.append(("campaign.store", store.CampaignStore, attr, None))
    for cls in _subclasses(Prefetcher):
        if "observe" in vars(cls):
            rows.append(("prefetch.observe", cls, "observe", None))
    return rows


def _subclasses(cls) -> list:
    found = {cls: None}
    for sub in cls.__subclasses__():
        found.update(dict.fromkeys(_subclasses(sub)))
    return list(found)


class Instrumentation:
    """Installs a tracer's wrappers; :meth:`remove` restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._restore: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        import repro.experiments.cache as cache_module
        from repro.memory.hierarchy import AccessType, CoreMemorySystem

        tracer = self.tracer
        for name, owner, attr, observe in _spans():
            original = vars(owner)[attr]
            wrapped = tracer.wrap(name, original, observe)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
            else:
                for module in _binders(original):
                    self._set(module, attr, wrapped)

        # The reference accessor serves both sides; split its spans by type.
        access = vars(CoreMemorySystem)["access"]
        data_side = tracer.wrap("memory.access_data", access)
        inst_side = tracer.wrap("memory.access_inst", access)
        instruction = AccessType.INSTRUCTION

        def split_access(memory, address, now, access_type):
            side = inst_side if access_type is instruction else data_side
            return side(memory, address, now, access_type)

        self._set(CoreMemorySystem, "access", split_access)

        # Bytes the result cache writes (framed entries, before fsync).
        write = cache_module.atomic_write_bytes

        def counted_write(path, data, *args, **kwargs):
            tracer.count("experiments.cache.put.bytes", len(data))
            return write(path, data, *args, **kwargs)

        self._set(cache_module, "atomic_write_bytes", counted_write)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _binders(function) -> list:
    """Every loaded ``repro`` module holding ``function`` under its name."""
    name = function.__name__
    return [
        module for module_name, module in list(sys.modules.items())
        if module_name.split(".")[0] == "repro"
        and vars(module).get(name) is function
    ]
