"""Benchmark workloads, passes and their measurement.

A *pass* is one complete, cold piece of user-visible work: a whole campaign
run and render, or a fixed set of direct runner cells.  Before every pass
the process-wide memos are emptied (:func:`reset_process_memos`), so each
pass pays what a fresh process pays except imports and the kernel load,
and every pass of a workload does identical work.  A run repeats passes
until its time budget is spent and reports medians over them.  Pass times
are reference seconds (:mod:`hostclock`): host time with the host's
current speed divided out.

The workload seed only permutes the order of workloads and cells within
each pass; program contents stay fixed by the repository's CRC-32 naming
rule, so every seed simulates the same cells and must produce the same
per-cell digests.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign import render
from repro.campaign.scheduler import CampaignScheduler
from repro.core.compile import compiled_ticks_total
from repro.core.compile.decoded import decoded_cache_stats
from repro.core.config import SystemConfig
from repro.core.results import CoreResult
from repro.core.system import warm_memo_stats
from repro.dla.config import DlaConfig
from repro.experiments import fig09_speedup
from repro.experiments.memsys_sweep import MEMSYS_MACHINES, machine_config
from repro.experiments.runner import ExperimentRunner
from repro.workloads.suites import get_workload

from hostclock import ReferenceClock
from tracing import Instrumentation, Tracer

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

SWEEP_SUITES = ("suite:spec2k6", "suite:crono", "suite:starbench", "suite:npb")
#: Related approaches the fig09 module simulates during assembly.
AUX_KINDS = ("bfetch", "slipstream", "cre")
DLA_DEPTH_WORKLOADS = ("mcf", "sjeng")
MEMSYS_WORKLOADS = ("mg", "cg", "ft")


@dataclass(frozen=True)
class Size:
    """Trace windows per workload (``None`` = the runner's quick default)."""

    name: str
    sweep_window: Optional[int]
    dla_depth_window: int
    memsys_window: Optional[int]


SIZES = {
    # 4k-instruction sweep windows keep a cold campaign pass near 10 s, so
    # a run's median spans three passes and shrugs off one disturbed pass.
    "full": Size("full", sweep_window=4_000, dla_depth_window=25_000,
                 memsys_window=None),
    # For the self-test only: every code path, a small fraction of the work.
    "tiny": Size("tiny", sweep_window=400, dla_depth_window=1_500,
                 memsys_window=600),
}


# ---------------------------------------------------------------------------
# cold passes
# ---------------------------------------------------------------------------
def reset_process_memos() -> None:
    """Empty every process-wide memo the simulator keeps between runners.

    Programs, traces, setups, warmed-memory snapshots, decoded windows and
    the look-ahead slice/filter memos all survive a runner in one process;
    a pass that found them filled would skip materialisation and replay.
    """
    from repro.core import system
    from repro.core.compile import decoded
    from repro.dla import recycle
    from repro.dla import system as dla_system
    from repro.experiments.runner import clear_setup_cache
    from repro.workloads.suites import all_workloads

    clear_setup_cache()
    for workload in all_workloads():
        workload._program = None
        workload._traces.clear()
    system._WARM_MEMO.clear()
    decoded._DECODED.clear()
    decoded._STATIC_ROWS.clear()
    decoded._STATIC_RETAIN.clear()
    recycle._SLICES = recycle._SliceMemo()
    dla_system._FILTERED = dla_system._FilteredTraceCache()


# ---------------------------------------------------------------------------
# simulated-output digests
# ---------------------------------------------------------------------------
_CORE_FIELDS = [f.name for f in dataclasses.fields(CoreResult) if f.name != "timings"]


def _core_stats(core: CoreResult) -> Dict[str, object]:
    return {name: getattr(core, name) for name in _CORE_FIELDS}


def outcome_stats(outcome) -> Dict[str, object]:
    """The simulated statistics of one cell: counters, cycles, ``memsys``."""
    segmented = getattr(outcome, "chosen_versions", None)
    if segmented is not None:
        stats = outcome_stats(outcome.outcome)
        stats["chosen_versions"] = list(segmented)
        return stats
    stats: Dict[str, object] = {
        "cycles": outcome.cycles,
        "memsys": getattr(outcome, "memsys", None),
    }
    for part in ("core", "main", "lookahead"):
        result = getattr(outcome, part, None)
        if result is not None:
            stats[part] = _core_stats(result)
    return stats


def outcome_digest(outcome) -> str:
    payload = json.dumps(outcome_stats(outcome), sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def outcome_instructions(outcome) -> int:
    """Committed instructions of one cell, main and look-ahead threads."""
    outcome = getattr(outcome, "outcome", outcome)
    core = getattr(outcome, "core", None)
    if core is not None:
        return core.committed
    return outcome.main.committed + outcome.lookahead.committed


def tree_digest(root: Path) -> str:
    """Digest of every file's relative path and bytes under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:20]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
@dataclass
class PassOutput:
    """What one workload pass hands back to the harness."""

    #: Simulations the pass executed (cache hits excluded).
    simulations: int
    #: cell id -> outcome (``None`` when the cell produced none).
    outcomes: Dict[str, object]
    #: cell id -> error text, for cells that raised.
    errors: Dict[str, str] = field(default_factory=dict)
    #: Digest of the rendered artifacts (campaign workloads only).
    artifacts: Optional[str] = None


class _OrderedScheduler(CampaignScheduler):
    """The campaign scheduler with its cells in a seeded order: workloads
    shuffled, and the variants shuffled within each workload."""

    def __init__(self, spec, rng: random.Random, **kwargs) -> None:
        self._rng = rng
        self._ordered = None
        super().__init__(spec, **kwargs)

    def cells(self):
        if self._ordered is None:
            groups: Dict[str, list] = {}
            for request in super().cells():
                groups.setdefault(request.workload, []).append(request)
            order = list(groups)
            self._rng.shuffle(order)
            self._ordered = []
            for name in order:
                self._rng.shuffle(groups[name])
                self._ordered.extend(groups[name])
        return list(self._ordered)


def sweep_spec(size: Size):
    """The fig09 campaign widened to every workload of all four suites."""
    return replace(fig09_speedup.CAMPAIGN, workloads=SWEEP_SUITES,
                   warmup_instructions=size.sweep_window,
                   timed_instructions=size.sweep_window)


def run_campaign_pass(root: Path, size: Size, rng: random.Random,
                      timed: Callable) -> PassOutput:
    """One ``CampaignScheduler.run`` plus render against cache root ``root``."""
    os.environ["REPRO_CACHE_DIR"] = str(root)
    artifacts = root / "artifacts"
    shutil.rmtree(artifacts, ignore_errors=True)
    spec = sweep_spec(size)

    def campaign():
        scheduler = _OrderedScheduler(spec, rng, quick=True, processes=1,
                                      bench_report=False)
        scheduler.run()
        render.render_campaign(spec.name, store=scheduler.store,
                               out_dir=str(artifacts))
        return scheduler

    scheduler = timed(campaign)
    runner = scheduler.runner
    outcomes: Dict[str, object] = {}
    for key, request in scheduler.keyed_cells():
        outcomes[f"{request.workload}/{request.label}"] = runner.cached_outcome(key)
    for name in scheduler.cell_workloads():
        workload = get_workload(name)
        for kind in AUX_KINDS:
            key = runner.workload_key(workload, f"aux-{kind}")
            outcomes[f"{name}/aux-{kind}"] = runner.cached_outcome(key)
    return PassOutput(simulations=runner.stats.simulations, outcomes=outcomes,
                      artifacts=tree_digest(artifacts))


def _sweep_speedup(outcomes: Dict[str, object]) -> float:
    names = sorted({cell.split("/")[0] for cell in outcomes})
    return geomean([outcomes[f"{n}/bl"].cycles / outcomes[f"{n}/r3"].cycles
                    for n in names])


class BenchWorkload:
    """One benchmark workload: ``run_pass`` does one cold pass."""

    name = ""
    #: Key of this workload's entry in ``reference.json``.
    reference = ""

    def prepare(self) -> None:
        """Untimed set-up before the first pass (none by default)."""


class SweepCold(BenchWorkload):
    """fig09 over all 34 workloads into an empty, private cache root."""

    name = "sweep_cold"
    reference = "sweep"

    def __init__(self, size: Size, run_dir: Path) -> None:
        self.size = size
        self.run_dir = run_dir
        self._passes = 0

    def run_pass(self, rng: random.Random, timed: Callable) -> PassOutput:
        self._passes += 1
        root = self.run_dir / f"pass-{self._passes}"
        try:
            return run_campaign_pass(root, self.size, rng, timed)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    speedup = staticmethod(_sweep_speedup)


class SweepResume(BenchWorkload):
    """The same campaign re-run against a finished cache: every cell is a
    cache hit, so only the read path (screen, unpickle, assemble, render)
    runs."""

    name = "sweep_resume"
    reference = "sweep"

    def __init__(self, size: Size, run_dir: Path) -> None:
        self.size = size
        self.root = run_dir / "finished"
        #: Artifact digest of the cold run that filled the cache.
        self.cold_artifacts: Optional[str] = None

    def prepare(self) -> None:
        """Fill the cache with one cold run in a child process, so its
        memory peak and memos stay out of this process."""
        command = [sys.executable, str(BENCH_DIR / "run.py"),
                   "--prepare-resume", str(self.root), "--size", self.size.name]
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(
                f"resume preparation failed ({proc.returncode}): {proc.stderr[-2000:]}")
        self.cold_artifacts = proc.stdout.strip().splitlines()[-1]

    def run_pass(self, rng: random.Random, timed: Callable) -> PassOutput:
        return run_campaign_pass(self.root, self.size, rng, timed)

    speedup = staticmethod(_sweep_speedup)


def prepare_resume(root: Path, size: Size) -> str:
    """Run one cold campaign pass into ``root``; returns its artifact digest."""
    output = run_campaign_pass(root, size, random.Random(0), lambda fn: fn())
    return output.artifacts


def _simulate(runner: ExperimentRunner, name: str, cell) -> object:
    label, kind, config, dla_config, dynamic = cell
    setup = runner.setup(name)
    if kind == "baseline":
        return runner.baseline(setup, label, config)
    if kind == "segmented":
        return runner.dla_segmented(setup, dla_config, dynamic, label, config)
    return runner.dla(setup, dla_config, label, config)


def run_direct_pass(names: Tuple[str, ...], window: Optional[int], cells,
                    rng: random.Random, timed: Callable) -> PassOutput:
    """Direct ``ExperimentRunner`` cells (no disk cache), seeded order."""
    order = list(names)
    rng.shuffle(order)
    plan = []
    for name in order:
        own = list(cells)
        rng.shuffle(own)
        plan.extend((name, cell) for cell in own)
    outcomes: Dict[str, object] = {}
    errors: Dict[str, str] = {}

    def body():
        runner = ExperimentRunner(quick=True, workload_names=order,
                                  warmup_instructions=window,
                                  timed_instructions=window, disk_cache=False)
        for name, cell in plan:
            cell_id = f"{name}/{cell[0]}"
            try:
                outcomes[cell_id] = _simulate(runner, name, cell)
            except Exception as error:   # one failing cell must not end the pass
                outcomes[cell_id] = None
                errors[cell_id] = f"{type(error).__name__}: {error}"
        return runner

    runner = timed(body)
    return PassOutput(simulations=runner.stats.simulations, outcomes=outcomes,
                      errors=errors)


class DlaDepth(BenchWorkload):
    """mcf and sjeng through the fig09 variant stack plus static and dynamic
    segmented R3 recycling: the tick loop, DLA hooks and recycle trials."""

    name = "dla_depth"
    reference = "dla_depth"

    def __init__(self, size: Size, run_dir: Path) -> None:
        self.size = size
        nopf = SystemConfig().without_prefetchers()
        dla, r3 = DlaConfig().baseline_dla(), DlaConfig().r3()
        self.cells = (
            ("bl", "baseline", None, None, False),
            ("bl-nopf", "baseline", nopf, None, False),
            ("dla", "dla", None, dla, False),
            ("dla-nopf", "dla", nopf, dla, False),
            ("r3", "dla", None, r3, False),
            ("r3-nopf", "dla", nopf, r3, False),
            ("recycle-static", "segmented", None, r3, False),
            ("recycle-dynamic", "segmented", None, r3, True),
        )

    def run_pass(self, rng: random.Random, timed: Callable) -> PassOutput:
        return run_direct_pass(DLA_DEPTH_WORKLOADS, self.size.dla_depth_window,
                               self.cells, rng, timed)

    @staticmethod
    def speedup(outcomes: Dict[str, object]) -> float:
        return geomean([outcomes[f"{n}/bl"].cycles / outcomes[f"{n}/r3"].cycles
                        for n in DLA_DEPTH_WORKLOADS])


class MemsysContended(BenchWorkload):
    """mg, cg and ft on every memory-system machine, BL and R3: each machine
    has its own geometry, so warm-up replays instead of restoring."""

    name = "memsys_contended"
    reference = "memsys_contended"

    def __init__(self, size: Size, run_dir: Path) -> None:
        self.size = size
        base = SystemConfig()
        r3 = DlaConfig().r3()
        cells = []
        for machine, knobs in MEMSYS_MACHINES:
            config = machine_config(base, knobs)
            cells.append((f"{machine}/bl", "baseline", config, None, False))
            cells.append((f"{machine}/r3", "dla", config, r3, False))
        self.cells = tuple(cells)

    def run_pass(self, rng: random.Random, timed: Callable) -> PassOutput:
        return run_direct_pass(MEMSYS_WORKLOADS, self.size.memsys_window,
                               self.cells, rng, timed)

    @staticmethod
    def speedup(outcomes: Dict[str, object]) -> float:
        return geomean([outcomes[f"{n}/contended/bl"].cycles
                        / outcomes[f"{n}/contended/r3"].cycles
                        for n in MEMSYS_WORKLOADS])


WORKLOADS = {cls.name: cls for cls in (SweepCold, SweepResume, DlaDepth,
                                        MemsysContended)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------
@dataclass
class PassRecord:
    traced: bool
    #: Reference seconds of the pass (and of its set-up), see hostclock.
    wall_s: float
    setup_s: float
    #: Host seconds of the pass, calibration samples excluded.
    host_wall_s: float
    instructions: int
    rss_mb: float
    speedup_r3: Optional[float]
    digests: Dict[str, Optional[str]]
    #: Cell ids that failed: raised, produced nothing, or mismatched.
    failed: List[str]
    #: Why the pass as a whole failed (every cell then counts as failed).
    pass_errors: List[str]
    compiled_ticks: int
    decode_hits: int
    decodes: int
    warm_replays: int
    warm_restores: int
    artifacts: Optional[str] = None
    tracer: Optional[Tracer] = None

    @property
    def attempted(self) -> int:
        return len(self.digests)

    @property
    def failed_count(self) -> int:
        return self.attempted if self.pass_errors else len(self.failed)

    @property
    def reference_scale(self) -> float:
        """Reference seconds per host second, averaged over the pass."""
        return self.wall_s / self.host_wall_s


def load_reference() -> Dict[str, object]:
    try:
        return json.loads(REFERENCE_PATH.read_text())
    except (OSError, ValueError):
        return {}


def check_digests(digests: Dict[str, Optional[str]],
                  expected: Optional[Dict[str, str]]) -> List[str]:
    """Cell ids whose digest is missing or differs from ``expected``
    (every cell id of both sides is checked; ``None`` skips the check)."""
    if expected is None:
        return sorted(cell for cell, digest in digests.items() if digest is None)
    cells = set(digests) | set(expected)
    return sorted(cell for cell in cells
                  if digests.get(cell) is None or digests.get(cell) != expected.get(cell))


def attribute_setup(clock: ReferenceClock) -> Callable[[], None]:
    """Send the time inside ``ExperimentRunner.setup`` to the clock's
    ``setup`` bucket; returns the function that undoes the patch."""
    original = vars(ExperimentRunner)["setup"]

    def setup(runner, name):
        previous = clock.switch("setup")
        try:
            return original(runner, name)
        finally:
            clock.switch(previous)

    ExperimentRunner.setup = setup
    return lambda: setattr(ExperimentRunner, "setup", original)


def run_one_pass(workload, rng: random.Random, traced: bool,
                 expected: Optional[Dict[str, object]]) -> PassRecord:
    reset_process_memos()
    gc.collect()
    clock = ReferenceClock()
    tracer = Tracer(clock) if traced else None

    def timed(fn):
        body = fn
        instrumentation = None
        undo_setup = attribute_setup(clock)
        try:
            if tracer is not None:
                body = tracer.wrap("pass", fn)
                instrumentation = Instrumentation(tracer)
                instrumentation.install()
            clock.start()
            try:
                result = body()
            finally:
                clock.stop()
        finally:
            if instrumentation is not None:
                instrumentation.remove()
            undo_setup()
        return result

    ticks = compiled_ticks_total()
    decode = decoded_cache_stats()
    warm = warm_memo_stats()
    output = workload.run_pass(rng, timed)
    ticks = compiled_ticks_total() - ticks
    decode_after = decoded_cache_stats()
    warm_after = warm_memo_stats()

    digests = {cell: (None if outcome is None else outcome_digest(outcome))
               for cell, outcome in output.outcomes.items()}
    failed = set(output.errors)
    failed.update(check_digests(digests, expected.get("cells") if expected else None))
    pass_errors: List[str] = []
    instructions = sum(outcome_instructions(outcome)
                       for outcome in output.outcomes.values() if outcome is not None)
    speedup = None
    try:
        speedup = workload.speedup(output.outcomes)
    except (AttributeError, KeyError, ValueError, ZeroDivisionError) as error:
        pass_errors.append(f"sim_speedup_r3 not computable: {error!r}")
    if expected is not None:
        if speedup is not None and speedup != expected.get("sim_speedup_r3"):
            pass_errors.append(f"sim_speedup_r3 {speedup!r} != reference "
                               f"{expected.get('sim_speedup_r3')!r}")
        if output.artifacts is not None and output.artifacts != expected.get("artifacts"):
            pass_errors.append(f"rendered artifacts digest {output.artifacts} != "
                               f"reference {expected.get('artifacts')}")
    cold = getattr(workload, "cold_artifacts", None)
    if cold is not None and output.artifacts != cold:
        pass_errors.append(f"resumed artifacts {output.artifacts} differ from the "
                           f"cold run's {cold}")
    # Compiled-path guard: simulating without compiled ticks means the
    # kernel silently fell back to the reference interpreter.
    if output.simulations and ticks == 0:
        pass_errors.append("compiled tick pipeline did not engage (0 compiled ticks)")
    return PassRecord(
        traced=traced,
        wall_s=clock.total_reference_s(),
        setup_s=clock.reference_s.get("setup", 0.0),
        host_wall_s=clock.total_host_s(),
        instructions=instructions,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        speedup_r3=speedup,
        digests=digests,
        failed=sorted(failed),
        pass_errors=pass_errors,
        compiled_ticks=ticks,
        decode_hits=decode_after["hits"] - decode["hits"],
        decodes=decode_after["decodes"] - decode["decodes"],
        warm_replays=warm_after["warm_replays"] - warm["warm_replays"],
        warm_restores=warm_after["warm_restores"] - warm["warm_restores"],
        artifacts=output.artifacts,
        tracer=tracer,
    )


def measure(workload, seed: int, seconds: float, trace: bool,
            expected: Optional[Dict[str, object]]) -> List[PassRecord]:
    """Passes until ``seconds`` of passes have run (traced runs alternate
    untraced and traced passes and run at least one of each)."""
    rng = random.Random(seed)
    workload.prepare()
    passes: List[PassRecord] = []
    started = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_one_pass(workload, rng, traced, expected))
        enough = not trace or len(passes) >= 2
        if enough and perf_counter() - started >= seconds:
            return passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def end_to_end(passes: List[PassRecord]) -> Dict[str, float]:
    """End-to-end metrics over the untraced passes (medians)."""
    plain = [p for p in passes if not p.traced]
    return {
        "wall_s": statistics.median(p.wall_s for p in plain),
        "inst_per_s": statistics.median(p.instructions / p.wall_s for p in plain),
        "setup_s": statistics.median(p.setup_s for p in plain),
        "peak_rss_mb": max(p.rss_mb for p in passes),
        "sim_speedup_r3": statistics.median(
            p.speedup_r3 for p in plain if p.speedup_r3 is not None)
        if any(p.speedup_r3 is not None for p in plain) else float("nan"),
    }


def _layer_values(record: PassRecord) -> Dict[str, Optional[float]]:
    """Per-layer values of one traced pass (``None`` = not applicable).
    Span seconds are scaled to reference seconds by the pass's mean factor."""
    tracer = record.tracer
    scale = record.reference_scale
    values: Dict[str, Optional[float]] = {}

    def span(name: str, calls: bool = True, seconds: bool = True) -> None:
        present = tracer.calls(name) > 0
        if calls:
            values[f"{name}.calls"] = tracer.calls(name) if present else None
        if seconds:
            values[f"{name}.s"] = tracer.self_s(name) * scale if present else None

    for name in ("workloads.build_program", "workloads.trace",
                 "dla.profiling.profile_workload", "experiments.runner.setup",
                 "memory.access_data", "memory.access_inst", "prefetch.observe",
                 "dla.hints.on_fetch", "dla.hints.on_commit",
                 "dla.hints.branch_hint", "dla.hints.value_hint_request",
                 "experiments.cache.get", "experiments.cache.put",
                 "experiments.fingerprint", "campaign.telemetry.emit"):
        span(name)
    for name in ("core.system.warm", "core.compile.decode",
                 "dla.system.simulate", "dla.system.simulate_segmented",
                 "dla.recycle.plan", "campaign.scheduler.run",
                 "experiments.parallel.warm_isolated",
                 "campaign.assemble.experiment_run", "campaign.render",
                 "campaign.store"):
        span(name, calls=False)

    warm_total = record.warm_replays + record.warm_restores
    values["core.system.warm.replays"] = record.warm_replays if warm_total else None
    values["core.system.warm.restores"] = record.warm_restores if warm_total else None
    values["core.system.warm.restore_ratio"] = _ratio(record.warm_restores, warm_total)
    values["core.compile.decode.hit_ratio"] = _ratio(
        record.decode_hits, record.decode_hits + record.decodes)
    run_calls = tracer.calls("core.compile.run")
    values["core.compile.run.s"] = (
        tracer.total_s("core.compile.run") * scale if run_calls else None)
    values["core.compile.run.self_s"] = (
        tracer.self_s("core.compile.run") * scale if run_calls else None)
    values["core.compile.ticks_share"] = (
        _ratio(record.compiled_ticks, record.instructions)
        if record.compiled_ticks else None)
    prefetches = tracer.calls("memory.prefetch")
    values["memory.prefetch.calls"] = prefetches or None
    values["prefetch.drop_ratio"] = _ratio(
        tracer.counts.get("memory.prefetch.drops", 0), prefetches)
    values["dla.recycle.plan.trial_sims"] = (
        tracer.edges.get(("dla.recycle.plan", "dla.system.simulate"), 0)
        if tracer.calls("dla.recycle.plan") else None)
    values["experiments.cache.get.hit_ratio"] = _ratio(
        tracer.counts.get("experiments.cache.get.hits", 0),
        tracer.calls("experiments.cache.get"))
    values["experiments.cache.put.bytes"] = (
        tracer.counts.get("experiments.cache.put.bytes", 0)
        if tracer.calls("experiments.cache.put") else None)
    values["trace.root_self_frac"] = _ratio(tracer.self_s("pass"), tracer.total_s("pass"))
    return values


def per_layer(passes: List[PassRecord]) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics (medians over traced passes) and the names that
    do not apply to this workload (reported as 0)."""
    traced = [p for p in passes if p.traced]
    samples: Dict[str, List[float]] = {}
    for record in traced:
        for name, value in _layer_values(record).items():
            samples.setdefault(name, [])
            if value is not None:
                samples[name].append(float(value))
    metrics: Dict[str, float] = {}
    not_applicable: List[str] = []
    for name, values in samples.items():
        if values:
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = 0.0
            not_applicable.append(name)
    plain = statistics.median(p.wall_s for p in passes if not p.traced)
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced) - plain) / plain
    return metrics, not_applicable


def span_table(passes: List[PassRecord]) -> List[Tuple[str, float, float, float]]:
    """(name, calls, total s, self s) per span, medians over traced passes,
    in reference seconds."""
    traced = [(p.tracer, p.reference_scale) for p in passes if p.traced]
    names = sorted({name for tracer, _ in traced for name in tracer.spans})
    rows = []
    for name in names:
        rows.append((
            name,
            statistics.median(t.calls(name) for t, _ in traced),
            statistics.median(t.total_s(name) * scale for t, scale in traced),
            statistics.median(t.self_s(name) * scale for t, scale in traced),
        ))
    rows.sort(key=lambda row: -row[3])
    return rows
