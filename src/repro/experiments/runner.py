"""Shared experiment infrastructure.

The :class:`ExperimentRunner` prepares workload setups (program, trace
windows, profile) and caches finished simulations in one outcome store.
Every cell is a :class:`SimRequest`, keyed once (:meth:`~ExperimentRunner.keyed`)
and carrying its key from then on; one path,
:meth:`~ExperimentRunner.run_cell`, serves every kind: memory hit, else disk
hit, else simulate by the kind's :data:`CELL_RECIPES` entry, count and
persist.
Caching is keyed by a *content fingerprint* of everything that determines
an outcome — the kind of cell, workload, :class:`SystemConfig`,
:class:`DlaConfig` and the trace window — never by the display label a
figure passes in:

* two different configurations accidentally passed under the same label can
  no longer alias to one result (the old label-keyed collision hazard);
* one configuration requested under different labels by different figures
  (``"bl"`` vs ``"bl-fb8"``) simulates exactly once.

Fingerprints also key an optional on-disk cache (``.repro_cache/``; see
:mod:`repro.experiments.cache`) so whole campaigns — the benchmark suite,
sweeps, ``REPRO_FULL_EVAL=1`` runs — reuse results across processes and
sessions.  Disk entries are salted with a digest of the simulator sources,
so stale results cannot survive a code change.
"""

from __future__ import annotations

import functools
import time
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.ilp import measure_implicit_parallelism
from repro.baselines import simulate_bfetch, simulate_cre, simulate_slipstream
from repro.core.compile import compiled_ticks_total
from repro.core.compile.hookspec import CompiledHookSpec
from repro.core.config import SystemConfig
from repro.core.pipeline import CoreHooks
from repro.core.system import (SimulationOutcome, build_single_core,
                               simulate_baseline, warm_memory_system)
from repro.dla.config import DlaConfig
from repro.dla.profiling import ProgramProfile, profile_workload
from repro.dla.skeleton import SkeletonBuilder
from repro.dla.smt import simulate_smt_pair, smt_configs
from repro.dla.system import DlaOutcome, DlaSystem
from repro.emulator.trace import Trace
from repro.experiments.cache import ResultDiskCache, salted_key
from repro.experiments.fingerprint import fingerprint
from repro.isa.program import Program
from repro.workloads.suites import Workload, all_workloads, get_workload

#: Representative subset used by the default ("quick") experiment runs —
#: two to four workloads per suite, chosen to span the behaviour axes.
QUICK_WORKLOADS = [
    "mcf", "libquantum", "sjeng", "omnetpp",        # spec2k6
    "bfs", "sssp",                                   # crono
    "kmeans", "stringsearch",                        # starbench
    "cg", "mg",                                      # npb
]

#: Full mode caps recycle tuning at this many distinct loops per workload
#: (the heaviest by instruction coverage) — the segmented-cell analogue of
#: quick mode's workload sampling.  Quick mode tunes every loop.
FULL_MODE_SEARCH_UNITS = 6


class WorkloadSetup:
    """Prepared inputs for one workload: program, profile, trace windows.

    The windows are column traces, and the simulation entry points hand
    them down as such: the compiled path, the warm-up memo and the decoded
    and look-ahead memos read their columns and content keys, so a setup
    builds no :class:`DynamicInst` unless the reference interpreter runs.

    A setup is built eagerly or *deferred* (:meth:`deferred`).  A deferred
    setup holds only its workload, which is all a cell needs to key its
    outcome; its first read of ``program``, ``warmup_trace``,
    ``timed_trace`` or ``profile`` calls its loader once for all four.  So
    a resumed campaign whose cells all hit never reads a setup entry.

    :attr:`skeleton_builder` is derived from the program and profile on
    first use and shared by every DLA system built on the setup; it is
    never pickled.
    """

    def __init__(self, workload: Workload, program: Program,
                 warmup_trace: Trace, timed_trace: Trace,
                 profile: ProgramProfile) -> None:
        self.workload = workload
        self._parts: Optional[Tuple[Program, Trace, Trace, ProgramProfile]] = (
            program, warmup_trace, timed_trace, profile)
        self._load: Optional[Callable[[], "WorkloadSetup"]] = None
        self._builder: Optional[SkeletonBuilder] = None

    @classmethod
    def deferred(cls, workload: Workload,
                 load: Callable[[], "WorkloadSetup"]) -> "WorkloadSetup":
        """The setup of ``workload`` whose parts are those of the setup
        ``load()`` returns, called on the first read of any of them."""
        setup = cls.__new__(cls)
        setup.workload = workload
        setup._parts = None
        setup._load = load
        setup._builder = None
        return setup

    @classmethod
    def split(cls, workload: Workload, program: Program, trace: Trace,
              warmup_length: int, profile: ProgramProfile) -> "WorkloadSetup":
        """The setup whose warm-up window is ``trace``'s first
        ``warmup_length`` entries and whose timed window is the rest.

        Each window is a trace of its own (its columns are its key's root),
        so a setup holds its windows' rows and never ``trace``'s."""
        columns = trace.columns
        return cls(workload, program,
                   Trace(program, columns.rows(0, warmup_length),
                         trace.completed),
                   Trace(program, columns.rows(warmup_length, len(columns)),
                         trace.completed),
                   profile)

    def _part(self, index: int):
        if self._parts is None:
            self._parts = self._load()._parts
            self._load = None
        return self._parts[index]

    @property
    def program(self) -> Program:
        return self._part(0)

    @property
    def warmup_trace(self) -> Trace:
        return self._part(1)

    @property
    def timed_trace(self) -> Trace:
        return self._part(2)

    @property
    def profile(self) -> ProgramProfile:
        return self._part(3)

    @property
    def skeleton_builder(self) -> SkeletonBuilder:
        """The program's skeleton builder: one static analysis, and each
        skeleton built once, for every cell of this setup."""
        if self._builder is None:
            self._builder = SkeletonBuilder(self.program, self.profile)
        return self._builder

    def __getstate__(self) -> dict:
        return {**vars(self), "_builder": None}

    @property
    def name(self) -> str:
        return self.workload.name

    @property
    def suite(self) -> str:
        return self.workload.suite


@dataclass
class SegmentedOutcome:
    """Result of one segmented (skeleton-recycling) DLA simulation.

    Bundles the :class:`~repro.dla.system.DlaOutcome` with the recycle plan
    summary Fig. 15 needs, so one cached object serves both Fig. 13-b and
    Fig. 15 without re-planning.
    """

    outcome: DlaOutcome
    #: Skeleton version names, in :func:`build_skeleton_versions` order.
    version_names: Tuple[str, ...]
    #: Chosen version index per loop unit, in execution order.
    chosen_versions: Tuple[int, ...]
    #: Instruction-weighted distribution over version indices (sums to 1).
    version_distribution: Dict[int, float]

    @property
    def cycles(self) -> float:
        return self.outcome.cycles


#: One run's L1 load misses by whether the load is strided (Table III).
L1MissSplit = namedtuple("L1MissSplit", "strided other committed")


def _split_l1_misses(setup: WorkloadSetup, config: SystemConfig) -> L1MissSplit:
    """A warmed single-core run of the timed window, logging L1 load misses."""
    strided_pcs = set(setup.profile.strided_pcs())
    misses = []
    hooks = CoreHooks(fast_hints=CompiledHookSpec(load_miss_log=misses))
    _shared, private, core = build_single_core(config)
    warm_memory_system(private, setup.warmup_trace)
    result = core.run(setup.timed_trace, hooks=hooks)
    pcs = setup.timed_trace.columns.pc
    strided = sum(pcs[i] in strided_pcs for _, i in misses)
    return L1MissSplit(strided, len(misses) - strided, result.committed)


def _dla_system(setup: WorkloadSetup, config: SystemConfig,
                dla_config: DlaConfig) -> DlaSystem:
    return DlaSystem(setup.program, config, dla_config, profile=setup.profile,
                     builder=setup.skeleton_builder)


#: The auxiliary models by cell kind, each ``(setup, system config) ->
#: outcome``; :data:`CELL_RECIPES` keys them ``aux-<kind>``.
AUXILIARY_RECIPES: Dict[str, Callable[[WorkloadSetup, SystemConfig], object]] = {
    # Fig. 9-b's related approaches.
    "bfetch": lambda setup, config: simulate_bfetch(
        setup.timed_trace, config, warmup_entries=setup.warmup_trace),
    "slipstream": lambda setup, config: simulate_slipstream(
        setup.program, setup.timed_trace, setup.profile, config,
        warmup_entries=setup.warmup_trace, builder=setup.skeleton_builder),
    "cre": lambda setup, config: simulate_cre(
        setup.program, setup.timed_trace, setup.profile, config,
        warmup_entries=setup.warmup_trace,
        analysis=setup.skeleton_builder.analysis),
    # Fig. 11's SMT-core scenarios, all cold (no warm-up).
    "smt-hc": lambda setup, config: simulate_baseline(
        setup.timed_trace, smt_configs(config)[0]),
    "smt-fc": lambda setup, config: simulate_baseline(
        setup.timed_trace, smt_configs(config)[1]),
    "smt-dla": lambda setup, config: _dla_system(
        setup, smt_configs(config)[0],
        DlaConfig().baseline_dla()).simulate(setup.timed_trace),
    "smt-r3dla": lambda setup, config: _dla_system(
        setup, smt_configs(config)[0], DlaConfig().r3()).simulate(
            setup.timed_trace),
    "smt-pair": lambda setup, config: simulate_smt_pair(
        setup.timed_trace, smt_configs(config)[1]),
    # Table III's BL / BL+stride miss split and Fig. 1's limit study.
    "l1-split": _split_l1_misses,
    "ilp": lambda setup, config: measure_implicit_parallelism(
        setup.timed_trace, config=config),
}


def _simulate_segmented(runner: ExperimentRunner, setup: WorkloadSetup,
                        config: SystemConfig,
                        request: SimRequest) -> SegmentedOutcome:
    """Plan skeleton recycling (the controller's trial simulations
    included), then run the segmented simulation."""
    from repro.dla.recycle import RecycleController, build_skeleton_versions

    dla_config = request.dla_config
    system = _dla_system(setup, config, dla_config)
    versions = build_skeleton_versions(
        system.builder,
        enable_t1=dla_config.enable_t1,
        include_value_targets=dla_config.enable_value_reuse,
    )
    controller = RecycleController(versions, dla_config,
                                   setup.profile.loop_branch_pcs)
    plan = controller.plan(system, setup.timed_trace, dynamic=request.dynamic,
                           search_unit_limit=runner._search_unit_limit())
    return SegmentedOutcome(
        outcome=system.simulate_segmented(
            plan.segments, warmup_entries=setup.warmup_trace),
        version_names=tuple(s.options.name for s in versions),
        chosen_versions=tuple(plan.chosen_versions),
        version_distribution=dict(plan.version_distribution),
    )


#: Every cell kind's recipe, ``(runner, setup, system config, request) ->
#: outcome``: the one dispatch of :meth:`ExperimentRunner.run_cell`.  An
#: auxiliary kind's recipe is looked up in :data:`AUXILIARY_RECIPES` per call.
CELL_RECIPES: Dict[str, Callable[..., object]] = {
    "baseline": lambda runner, setup, config, request: simulate_baseline(
        setup.timed_trace, config, warmup_entries=setup.warmup_trace),
    "dla": lambda runner, setup, config, request: _dla_system(
        setup, config, request.dla_config).simulate(
            setup.timed_trace, warmup_entries=setup.warmup_trace),
    "segmented": _simulate_segmented,
    **dict.fromkeys(AUXILIARY_RECIPES, lambda runner, setup, config, request:
                    AUXILIARY_RECIPES[request.kind](setup, config)),
}

DLA_KINDS = ("dla", "segmented")
#: Every cell kind a variant or request may name (DLA config: DLA_KINDS only).
CELL_KINDS = tuple(CELL_RECIPES)


@dataclass(frozen=True)
class SimRequest:
    """One cell: a simulation of one workload under one configuration,
    carrying its content ``key`` once a runner keyed it."""

    workload: str
    kind: str                                    # one of CELL_KINDS
    label: str = ""
    system_config: Optional[SystemConfig] = None  # None -> runner default
    dla_config: Optional[DlaConfig] = None
    #: Segmented requests only: on-line (dynamic) vs off-line recycle tuning.
    dynamic: bool = False
    key: Optional[str] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in CELL_KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}")
        if (self.kind in DLA_KINDS) != (self.dla_config is not None):
            raise ValueError(f"a dla_config is for exactly {DLA_KINDS} requests")
        if self.kind != "segmented" and self.dynamic:
            # dynamic is not part of the baseline/dla cache keys; accepting
            # it would silently alias with the dynamic=False request.
            raise ValueError("dynamic tuning is a segmented-only knob")


@dataclass
class RunnerStats:
    """Simulation and cache counters of one runner.

    Campaign summaries and telemetry events report them, and perf_smoke's
    ``--require-compiled`` guard reads ``compiled_ticks``.
    """

    #: Simulations actually executed (cache misses).
    simulations: int = 0
    #: Committed dynamic instructions across executed simulations (for DLA
    #: runs this counts both the main and the look-ahead thread).
    simulated_instructions: int = 0
    #: Wall-clock seconds spent inside executed simulations.
    simulation_seconds: float = 0.0
    #: Wall-clock seconds spent building setups (traces + profiles).
    setup_seconds: float = 0.0
    memory_hits: int = 0
    disk_hits: int = 0
    #: Instructions retired through the compiled tick kernel during executed
    #: simulations (0 when ``REPRO_FAST_PIPELINE=0`` or no C compiler).
    compiled_ticks: int = 0

    @property
    def instructions_per_second(self) -> float:
        if self.simulation_seconds <= 0.0:
            return 0.0
        return self.simulated_instructions / self.simulation_seconds

    def as_dict(self) -> Dict[str, float]:
        return {
            "simulations": self.simulations,
            "simulated_instructions": self.simulated_instructions,
            "simulation_seconds": round(self.simulation_seconds, 3),
            "setup_seconds": round(self.setup_seconds, 3),
            "instructions_per_second": round(self.instructions_per_second, 1),
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "compiled_ticks": self.compiled_ticks,
        }

    def merge(self, other: "RunnerStats") -> None:
        for field in fields(self):
            setattr(self, field.name,
                    getattr(self, field.name) + getattr(other, field.name))

    def since(self, snapshot: "RunnerStats") -> "RunnerStats":
        """The delta accumulated after ``snapshot`` was taken (via ``copy``)."""
        return RunnerStats(**{
            field.name: getattr(self, field.name) - getattr(snapshot, field.name)
            for field in fields(self)
        })

    def copy(self) -> "RunnerStats":
        return replace(self)


#: Process-wide memo of prepared workload setups, keyed by the content
#: fingerprint of (workload definition, window, system config).  Every
#: runner in a process materialising the same campaign cell shares one
#: :class:`WorkloadSetup` — and because the shared object keeps the *same*
#: ``timed``/``warmup`` windows, whose content keys the warm-up replay and
#: decoded-trace memos use, those memos hit across runners too.  Bounded
#: FIFO.
_SETUP_CACHE: Dict[str, WorkloadSetup] = {}
_SETUP_CACHE_MAX = 64

_setup_cache_stats = {"builds": 0, "memory_hits": 0, "disk_hits": 0}


def setup_cache_stats() -> Dict[str, int]:
    """Build/hit counters of the process-wide workload-setup memo."""
    return dict(_setup_cache_stats)


def clear_setup_cache() -> None:
    """Drop every memoized setup (testing hook)."""
    _SETUP_CACHE.clear()
    for key in _setup_cache_stats:
        _setup_cache_stats[key] = 0


def _setup_cache_put(key: str, setup: WorkloadSetup) -> None:
    while len(_SETUP_CACHE) >= _SETUP_CACHE_MAX:
        del _SETUP_CACHE[next(iter(_SETUP_CACHE))]
    _SETUP_CACHE[key] = setup


def _build_setup(workload: Workload, warmup_instructions: int,
                 timed_instructions: int, system_config: SystemConfig,
                 disk_cache: Optional[ResultDiskCache],
                 disk_key: str) -> WorkloadSetup:
    """Emulate and profile ``workload`` from scratch, count the build and
    put the setup's entry under ``disk_key`` when a disk cache is given.

    A workload that halts before its timed window starts has nothing to
    time: that raises ``ValueError``."""
    program = workload.build_program()
    windows = warmup_instructions + timed_instructions
    profiled = warmup_instructions + 4000
    trace = workload.trace(windows + 1000)
    if len(trace) <= warmup_instructions:
        raise ValueError(
            f"workload {workload.name!r} halts after {len(trace)} dynamic "
            f"instructions, before its timed window starts (warm-up "
            f"{warmup_instructions} + timed {timed_instructions})")
    head = trace.window(0, max(windows, profiled))
    profile = profile_workload(
        program,
        head.window(0, profiled),
        system_config,
        timing_window=min(6000, warmup_instructions),
    )
    simulated = head.window(0, windows)
    setup = WorkloadSetup.split(workload, program, simulated,
                                warmup_instructions, profile)
    _setup_cache_stats["builds"] += 1
    if disk_cache is not None:
        # Columns, not objects: a setup read back from its entry builds no
        # DynamicInst.
        disk_cache.put(disk_key, (program, simulated.columns, profile))
    return setup


def _load_setup(workload: Workload, warmup_instructions: int,
                timed_instructions: int, system_config: SystemConfig,
                disk_cache: ResultDiskCache, disk_key: str,
                stats: RunnerStats) -> WorkloadSetup:
    """A deferred setup's loader: the setup in its entry under
    ``disk_key``.  An entry that is gone, or corrupt (``get`` quarantines
    it), is built again exactly as a cold miss builds it, and put again."""
    started = time.perf_counter()
    stored = disk_cache.get(disk_key)
    if stored is None:
        setup = _build_setup(workload, warmup_instructions, timed_instructions,
                             system_config, disk_cache, disk_key)
    else:
        program, columns, profile = stored
        setup = WorkloadSetup.split(workload, program, Trace(program, columns),
                                    warmup_instructions, profile)
        _setup_cache_stats["disk_hits"] += 1
    stats.setup_seconds += time.perf_counter() - started
    return setup


class ExperimentRunner:
    """Builds workload setups and caches expensive simulations.

    Parameters
    ----------
    quick:
        When True (default) only :data:`QUICK_WORKLOADS` are used with short
        windows, keeping the full benchmark suite runnable in minutes; when
        False every workload of every suite runs with longer windows.
    disk_cache:
        Whether finished outcomes and setups are also kept in the on-disk
        result cache (default: yes).
    """

    def __init__(self, quick: bool = True, workload_names: Optional[Sequence[str]] = None,
                 warmup_instructions: Optional[int] = None,
                 timed_instructions: Optional[int] = None,
                 system_config: Optional[SystemConfig] = None,
                 disk_cache: bool = True) -> None:
        self.quick = quick
        if workload_names is None:
            workload_names = QUICK_WORKLOADS if quick else [w.name for w in all_workloads()]
        self.workload_names = list(workload_names)
        self.warmup_instructions = warmup_instructions or (8_000 if quick else 15_000)
        self.timed_instructions = timed_instructions or (8_000 if quick else 15_000)
        self.system_config = system_config or SystemConfig()
        self.stats = RunnerStats()
        self.disk_cache: Optional[ResultDiskCache] = (
            ResultDiskCache() if disk_cache else None
        )
        self._setups: Dict[str, WorkloadSetup] = {}
        #: Finished outcomes of every kind by content key.  Every key's
        #: fingerprinted content leads with its kind (``"baseline"``,
        #: ``"dla"``, ``"segmented"``, ``"aux-<kind>"``), so the kinds
        #: share one store without colliding.
        self._outcomes: Dict[str, object] = {}
        #: (variants, workloads, keyed cells) per plan; see :meth:`plan`.
        self._plans: List[Tuple[tuple, tuple, List[SimRequest]]] = []

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    # Keys are computed from the Workload *definition* (name, params,
    # window) — not the prepared setup — so cache lookups never require
    # building traces or profiles.  ``fingerprint`` memoises each config's
    # and each workload's canonical text for as long as the object lives
    # (see its module docstring), so keying a cell re-serialises only the
    # small key parts.
    # Nothing here memoises a key by id(): such a memo once aliased two
    # configs whose objects happened to reuse one id.
    def workload_key(self, workload: Workload,
                     kind: str,
                     config: Optional[SystemConfig] = None,
                     dla_config: Optional[DlaConfig] = None) -> str:
        """Content key of one simulation request for ``workload``."""
        parts = [
            kind,
            workload,
            (self.warmup_instructions, self.timed_instructions),
            fingerprint(config or self.system_config),
        ]
        if kind == "dla":
            # The training profile is built from the runner's base system
            # config, so that config is part of the key even when an
            # override is supplied.
            parts.append(fingerprint(self.system_config))
            parts.append(dla_config)
        return fingerprint(*parts)

    def segmented_key_for(self, workload: Workload, dla_config: DlaConfig,
                          dynamic: bool,
                          config: Optional[SystemConfig] = None) -> str:
        """Content key of one segmented (recycle) simulation request.

        The recycle plan is fully determined by the workload, the profile
        (built from the runner's base config), the DLA configuration, the
        trace window and the tuning mode — so those are the key.
        """
        parts = [
            "segmented",
            workload,
            (self.warmup_instructions, self.timed_instructions),
            fingerprint(config or self.system_config),
            fingerprint(self.system_config),   # training-profile source
            dla_config,
            bool(dynamic),
        ]
        limit = self._search_unit_limit()
        if limit is not None:
            # Quick mode (no sampling) keeps its historical key shape.
            parts.append(("search-units", limit))
        return fingerprint(*parts)

    def _search_unit_limit(self) -> Optional[int]:
        """Loop-tuning sample size for segmented runs (None = tune all)."""
        return None if self.quick else FULL_MODE_SEARCH_UNITS

    def _disk_key(self, key: str) -> str:
        return salted_key(key)

    # ------------------------------------------------------------------
    # setups
    # ------------------------------------------------------------------
    def setup_key(self, workload: Workload) -> str:
        """Content key of one prepared setup (workload, window, config)."""
        return fingerprint(
            "workload-setup",
            workload,
            (self.warmup_instructions, self.timed_instructions),
            fingerprint(self.system_config),
        )

    def setup(self, name: str) -> WorkloadSetup:
        """Prepare (and cache) one workload's program, trace and profile.

        Materialisation is O(1) after the first build of a cell: setups are
        memoized process-wide by content fingerprint (and spilled to the
        disk cache when one is enabled), so only the first runner to touch a
        (workload, window, config) cell pays for emulation and profiling.
        A setup whose disk entry exists comes back deferred: its entry is
        read on the first use of its parts, never when every cell hits.  A
        setup with no entry is built here, eagerly.
        """
        if name in self._setups:
            return self._setups[name]
        started = time.perf_counter()
        workload = get_workload(name)
        key = self.setup_key(workload)
        setup = _SETUP_CACHE.get(key)
        if setup is not None:
            _setup_cache_stats["memory_hits"] += 1
        else:
            disk_key = self._disk_key(key)
            sources = (workload, self.warmup_instructions,
                       self.timed_instructions, self.system_config,
                       self.disk_cache, disk_key)
            if self.disk_cache is not None and self.disk_cache.contains(disk_key):
                # The loader holds what it reads, not the runner: the memo
                # outlives runners and must not pin their outcome stores.
                setup = WorkloadSetup.deferred(workload, functools.partial(
                    _load_setup, *sources, self.stats))
            else:
                setup = _build_setup(*sources)
            _setup_cache_put(key, setup)
        self._setups[name] = setup
        self.stats.setup_seconds += time.perf_counter() - started
        return setup

    # ------------------------------------------------------------------
    # cells: keyed once, run through one path
    # ------------------------------------------------------------------
    def keyed(self, request: SimRequest,
              workload: Optional[Workload] = None) -> SimRequest:
        """``request`` carrying its content key: itself when it has one,
        else a keyed copy.  Keys come from the workload *definition*
        (``workload``, looked up by name when not given), never from a
        setup, so keying builds no trace or profile."""
        if request.key is not None:
            return request
        workload = workload or get_workload(request.workload)
        kind = request.kind
        if kind == "segmented":
            key = self.segmented_key_for(workload, request.dla_config,
                                         request.dynamic, request.system_config)
        else:
            key = self.workload_key(
                workload, f"aux-{kind}" if kind in AUXILIARY_RECIPES else kind,
                request.system_config, request.dla_config)
        return replace(request, key=key)

    def plan(self, variants: Sequence, workloads: Sequence[str],
             ) -> List[SimRequest]:
        """The keyed cells of campaign ``variants`` on ``workloads``,
        workload-major, memoised by content (never identity): equal
        variants over the same workloads are one plan, so assembly reads
        the cells its scheduler keyed.  Each variant is materialised once,
        so its cells share one config object and its memoised key text."""
        variants, workloads = tuple(variants), tuple(workloads)
        for planned_variants, planned_workloads, cells in self._plans:
            if planned_variants == variants and planned_workloads == workloads:
                return list(cells)
        materialised = [
            (variant, variant.system_config(self.system_config),
             variant.dla_config())
            for variant in variants
        ]
        cells = [
            self.keyed(SimRequest(
                workload=workload, kind=variant.kind, label=variant.name,
                system_config=system_config, dla_config=dla_config,
                dynamic=variant.dynamic))
            for workload in workloads
            for variant, system_config, dla_config in materialised
        ]
        self._plans.append((variants, workloads, cells))
        return list(cells)

    def run_cell(self, setup: WorkloadSetup, request: SimRequest):
        """The outcome of cell ``request`` on ``setup``: from memory, else
        from disk, else simulated, counted in :attr:`stats` and stored in
        both."""
        key = self.keyed(request, setup.workload).key
        outcome = self._outcomes.get(key)
        if outcome is not None:
            self.stats.memory_hits += 1
            return outcome
        if self.disk_cache is not None:
            outcome = self.disk_cache.get(self._disk_key(key))
            if outcome is not None:
                self.stats.disk_hits += 1
                self._outcomes[key] = outcome
                return outcome
        ticks = compiled_ticks_total()
        started = time.perf_counter()
        outcome = CELL_RECIPES[request.kind](
            self, setup, request.system_config or self.system_config, request)
        if isinstance(outcome, SimulationOutcome):
            # Stripped in memory as on disk: a cached outcome must not pin
            # the run's whole cache hierarchy.
            outcome = strip_outcome(outcome)
        self.stats.simulations += 1
        self.stats.simulated_instructions += committed_instructions(outcome)
        self.stats.simulation_seconds += time.perf_counter() - started
        self.stats.compiled_ticks += compiled_ticks_total() - ticks
        self._outcomes[key] = outcome
        if self.disk_cache is not None:
            self.disk_cache.put(self._disk_key(key), outcome)
        return outcome

    # One-request wrappers: ``label`` is cosmetic, never part of a key.
    def baseline(self, setup: WorkloadSetup, label: str = "bl",
                 config: Optional[SystemConfig] = None) -> SimulationOutcome:
        """Baseline (single-core) simulation of the timed window, cached."""
        return self.run_cell(setup, SimRequest(setup.name, "baseline", label,
                                               config))

    def dla(self, setup: WorkloadSetup, dla_config: DlaConfig, label: str,
            config: Optional[SystemConfig] = None) -> DlaOutcome:
        """DLA co-simulation of the timed window, cached."""
        return self.run_cell(setup, SimRequest(setup.name, "dla", label, config,
                                               dla_config))

    def dla_segmented(self, setup: WorkloadSetup, dla_config: DlaConfig,
                      dynamic: bool = False, label: str = "recycle",
                      config: Optional[SystemConfig] = None) -> SegmentedOutcome:
        """Segmented (skeleton-recycling) DLA simulation, cached."""
        return self.run_cell(setup, SimRequest(
            setup.name, "segmented", label, config, dla_config, dynamic))

    def auxiliary(self, setup: WorkloadSetup, kind: str,
                  config: Optional[SystemConfig] = None):
        """The outcome of the auxiliary model ``kind`` (a key of
        :data:`AUXILIARY_RECIPES`) on ``setup``, cached."""
        if kind not in AUXILIARY_RECIPES:
            raise KeyError(f"unknown auxiliary kind {kind!r}")
        return self.run_cell(setup, SimRequest(setup.name, kind, kind, config))

    def inject(self, key: str, outcome) -> None:
        """Install an outcome computed elsewhere under ``key`` — a worker's
        result (the parallel runner's deterministic merge) or a disk entry.
        Nothing is persisted or counted: it is on disk already, and
        whoever simulated it counted it.
        """
        self._outcomes.setdefault(key, outcome)

    def cached_outcome(self, key: str):
        """The in-memory outcome under ``key``, or ``None`` on a miss.

        Campaign telemetry uses this to attach per-cell measures
        (instructions, cycles, stall share) to ``cell.finished`` events
        right after a cell executes.
        """
        return self._outcomes.get(key)


def strip_outcome(outcome: SimulationOutcome) -> SimulationOutcome:
    """A copy of ``outcome`` without live memory-system objects.

    The shared/private hierarchies hold the full cache state and are only
    interesting to interactive debugging; dropping them keeps disk-cache
    entries, the runner's in-memory caches and inter-process payloads
    small.
    """
    return replace(outcome, shared=None, private=None)


def committed_instructions(outcome) -> int:
    """Committed dynamic instructions of one outcome of any shape: a
    :class:`SimulationOutcome`, a :class:`SegmentedOutcome`, a
    :class:`~repro.dla.system.DlaOutcome`-shaped one (main plus look-ahead
    thread) or one exposing a ``committed`` total (the auxiliary models).
    """
    if isinstance(outcome, SimulationOutcome):
        return outcome.core.committed
    if isinstance(outcome, SegmentedOutcome):
        outcome = outcome.outcome
    committed = getattr(outcome, "committed", None)
    if committed is None:
        committed = outcome.main.committed + outcome.lookahead.committed
    return int(committed)
