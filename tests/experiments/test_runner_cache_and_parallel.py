"""Fingerprint-keyed caching, disk persistence and the parallel runner."""

from __future__ import annotations

import dataclasses
import gc
import importlib
import typing

import pytest

from repro.core.config import CoreConfig, SystemConfig
from repro.dla.config import DlaConfig
from repro.experiments.cache import ResultDiskCache
from repro.experiments.fingerprint import canonicalize, code_salt, fingerprint
from repro.experiments.parallel import ParallelExperimentRunner, SimRequest
from repro.experiments.runner import ExperimentRunner, RunnerStats, strip_outcome

WORKLOAD = "libquantum"
WINDOW = dict(warmup_instructions=1500, timed_instructions=1500)


def make_runner(**overrides) -> ExperimentRunner:
    kwargs = dict(quick=True, workload_names=[WORKLOAD], disk_cache=False, **WINDOW)
    kwargs.update(overrides)
    return ExperimentRunner(**kwargs)


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------
def test_fingerprint_is_content_based():
    a = SystemConfig()
    b = SystemConfig()
    assert a is not b
    assert fingerprint(a) == fingerprint(b)
    c = dataclasses.replace(a, l2_prefetcher="none")
    assert fingerprint(c) != fingerprint(a)


def test_fingerprint_covers_nested_core_fields():
    base = SystemConfig()
    tweaked = SystemConfig(core=CoreConfig(fetch_buffer_entries=32))
    assert fingerprint(base) != fingerprint(tweaked)


def test_fingerprint_distinguishes_dla_toggles():
    assert fingerprint(DlaConfig().baseline_dla()) != fingerprint(DlaConfig().r3())


def test_r3_is_the_three_flag_config_under_one_key():
    """Recycling is the segmented cell kind, not a flag: the r3 preset and
    the three toggles spelled out are one config and one cache slot."""
    three = DlaConfig().with_optimizations(t1=True, value_reuse=True,
                                           fetch_buffer=True)
    assert DlaConfig().r3() == three
    assert fingerprint(DlaConfig().r3()) == fingerprint(three)


def test_canonicalize_handles_containers():
    value = canonicalize({"b": (1, 2), "a": {3, 1}})
    assert value == canonicalize({"a": {1, 3}, "b": [1, 2]})


def test_code_salt_is_stable_within_process():
    assert code_salt() == code_salt()
    assert len(code_salt()) == 16


# ---------------------------------------------------------------------------
# label-collision fix + structural dedup
# ---------------------------------------------------------------------------
def test_same_label_different_config_no_longer_collides():
    runner = make_runner()
    setup = runner.setup(WORKLOAD)
    with_pf = runner.baseline(setup, "bl")
    no_pf = runner.baseline(setup, "bl", runner.system_config.without_prefetchers())
    assert with_pf.cycles != no_pf.cycles
    assert runner.stats.simulations == 2


def test_same_config_different_labels_simulates_once():
    runner = make_runner()
    setup = runner.setup(WORKLOAD)
    first = runner.baseline(setup, "bl")
    second = runner.baseline(setup, "bl-fb8")   # fig14's alias of the default
    assert first is second
    assert runner.stats.simulations == 1
    assert runner.stats.memory_hits == 1
    # Both labels recorded, pointing at the same content key.
    assert runner.label_keys["bl"] == runner.label_keys["bl-fb8"]


def test_transient_config_objects_never_alias():
    """Regression: keys must come from config *content*, not object identity.

    Figures pass freshly-built config objects per call; CPython reuses
    object ids aggressively, so an id-memoized fingerprint once returned a
    garbage-collected config's key for a different config at the same id.
    """
    runner = make_runner()
    setup = runner.setup(WORKLOAD)
    reference = runner.baseline(setup, "bl")
    # Fingerprint a temporary config, drop it, then pass a *different*
    # temporary config (likely landing on the recycled id).
    base = runner.system_config
    nopf_cycles = runner.baseline(setup, "nopf", base.without_prefetchers()).cycles
    stride_cycles = runner.baseline(setup, "stride", base.with_l1_stride()).cycles
    again_nopf = runner.baseline(setup, "nopf2", base.without_prefetchers()).cycles
    assert nopf_cycles != reference.cycles
    assert stride_cycles != nopf_cycles
    assert again_nopf == nopf_cycles
    assert runner.stats.simulations == 3


# ---------------------------------------------------------------------------
# the per-instance canonical-form memo
# ---------------------------------------------------------------------------
FINGERPRINT = importlib.import_module("repro.experiments.fingerprint")


def test_memo_entry_never_outlives_its_config(monkeypatch):
    """A config built on a recycled id() must get its own key."""
    base = DlaConfig()
    victim = dataclasses.replace(base, seed=1)
    stale_key = fingerprint(victim)
    recycled = id(victim)
    del victim
    held = []
    for step in range(1, 10_000):
        config = dataclasses.replace(base, seed=1 + step)
        if id(config) == recycled:
            break
        held.append(config)   # keep the slot we want free for the next try
    else:
        pytest.fail("no config landed on the recycled id")
    key = fingerprint(config)
    monkeypatch.setattr(FINGERPRINT, "MEMOISED_TYPES", frozenset())
    assert key == fingerprint(config)   # the memo bypassed
    assert key != stale_key


def test_memo_is_opt_in():
    """Only ``MEMOISED_TYPES`` are memoised: a registry workload is, trace
    columns (mutable arrays) are not."""
    from repro.emulator.trace import TraceColumns
    from repro.workloads.suites import get_workload

    workload = get_workload(WORKLOAD)
    columns = TraceColumns.empty()
    fingerprint(workload, columns)
    canonicalize([workload, columns])
    assert id(workload) in FINGERPRINT._MEMO
    assert id(columns) not in FINGERPRINT._MEMO


def test_workloads_sharing_a_name_key_apart_by_params(monkeypatch):
    """Two workload objects named alike but built with different ``params``
    get different keys, each equal to its unmemoised key, and a dropped
    workload's memo entry leaves with it."""
    from repro.workloads.suites import Workload, get_workload

    runner = make_runner()
    registered = get_workload("mcf")
    variant = Workload(name=registered.name, suite=registered.suite,
                       kernel=registered.kernel,
                       params={**registered.params,
                               "hops": registered.params["hops"] + 1},
                       max_instructions=registered.max_instructions,
                       description=registered.description)
    keys = {which: (runner.workload_key(workload, "baseline"),
                    runner.setup_key(workload))
            for which, workload in (("registered", registered),
                                    ("variant", variant))}
    assert keys["registered"][0] != keys["variant"][0]
    assert keys["registered"][1] != keys["variant"][1]
    recycled = id(variant)
    assert recycled in FINGERPRINT._MEMO
    with monkeypatch.context() as patch:
        patch.setattr(FINGERPRINT, "MEMOISED_TYPES", frozenset())
        assert keys["variant"] == (runner.workload_key(variant, "baseline"),
                                   runner.setup_key(variant))
    del variant
    gc.collect()
    assert recycled not in FINGERPRINT._MEMO


def test_memo_drains_when_configs_die():
    gc.collect()   # no earlier config may die (and free its id) mid-test
    before = set(FINGERPRINT._MEMO)
    configs = [SystemConfig().with_mshr_entries(n) for n in (4, 8)]
    configs.append(DlaConfig().r3())
    fingerprint(*configs)
    keyed = set(FINGERPRINT._MEMO) - before
    assert id(configs[0]) in keyed and id(configs[-1]) in keyed
    del configs
    gc.collect()
    assert not keyed & set(FINGERPRINT._MEMO)
    assert set(FINGERPRINT._MEMO) <= before


def test_every_reachable_config_is_frozen_and_memoised():
    reached, pending = set(), [SystemConfig, DlaConfig]
    while pending:
        cls = pending.pop()
        if cls in reached:
            continue
        reached.add(cls)
        assert cls.__dataclass_params__.frozen, cls.__name__
        for hint in typing.get_type_hints(cls).values():
            for arg in typing.get_args(hint) or (hint,):
                if dataclasses.is_dataclass(arg):
                    pending.append(arg)
    # The one memoised type that is not a config is the registry's Workload.
    from repro.workloads.suites import Workload

    assert reached == FINGERPRINT.MEMOISED_TYPES - {Workload}


def test_dla_outcomes_keyed_by_dla_config_content():
    runner = make_runner()
    setup = runner.setup(WORKLOAD)
    dla = runner.dla(setup, DlaConfig().baseline_dla(), "one")
    same = runner.dla(setup, DlaConfig().baseline_dla(), "two")
    r3 = runner.dla(setup, DlaConfig().r3(), "one")   # label reused on purpose
    assert dla is same
    assert r3 is not dla


def test_every_kind_keys_apart_in_the_one_store():
    """Baseline, DLA, segmented and auxiliary cells of one workload and
    config share the runner's outcome store under distinct keys."""
    from repro.workloads.suites import get_workload

    runner = make_runner()
    workload = get_workload(WORKLOAD)
    r3 = DlaConfig().r3()
    keys = [
        runner.workload_key(workload, "baseline"),
        runner.workload_key(workload, "dla", None, r3),
        runner.segmented_key_for(workload, r3, False),
        runner.workload_key(workload, "aux-bfetch"),
    ]
    assert len(set(keys)) == len(keys)


# ---------------------------------------------------------------------------
# disk cache
# ---------------------------------------------------------------------------
def test_disk_cache_roundtrip(tmp_path):
    cache = ResultDiskCache(tmp_path / "cache")
    assert cache.get("missing") is None
    cache.put("key", {"cycles": 123.0})
    assert cache.get("key") == {"cycles": 123.0}
    assert cache.hits == 1 and cache.misses == 1
    assert cache.clear() == 1
    assert cache.get("key") is None


def test_disk_cache_reused_across_runner_instances(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "results"))
    first = make_runner(disk_cache=True)
    setup = first.setup(WORKLOAD)
    outcome = first.baseline(setup, "bl")
    dla = first.dla(setup, DlaConfig().baseline_dla(), "dla")
    assert first.stats.simulations == 2

    second = make_runner(disk_cache=True)
    setup2 = second.setup(WORKLOAD)
    from_disk = second.baseline(setup2, "bl")
    dla_from_disk = second.dla(setup2, DlaConfig().baseline_dla(), "dla")
    assert second.stats.simulations == 0
    assert second.stats.disk_hits == 2
    assert from_disk.cycles == outcome.cycles
    assert from_disk.core.branch_mispredicts == outcome.core.branch_mispredicts
    assert dla_from_disk.main.cycles == dla.main.cycles
    # Memory systems are stripped before pickling.
    assert from_disk.shared is None and from_disk.private is None


def test_screen_pulls_every_request_kind_into_the_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "screen"))
    r3 = DlaConfig().r3()
    requests = [SimRequest(WORKLOAD, "baseline", "bl"),
                SimRequest(WORKLOAD, "dla", "r3", dla_config=r3),
                SimRequest(WORKLOAD, "segmented", "recycle", dla_config=r3)]
    first = make_runner(disk_cache=True)
    setup = first.setup(WORKLOAD)
    cycles = [first.baseline(setup).cycles, first.dla(setup, r3, "r3").cycles,
              first.dla_segmented(setup, r3).cycles]

    fresh = ParallelExperimentRunner(quick=True, workload_names=[WORKLOAD],
                                     **WINDOW)
    keys = [fresh.request_key(request) for request in requests]
    assert fresh.screen(requests) == dict.fromkeys(keys, True)
    assert fresh.stats.disk_hits == 3 and fresh.stats.simulations == 0
    assert [fresh.cached_outcome(key).cycles for key in keys] == cycles
    assert fresh.screen(requests) == dict.fromkeys(keys, True)
    assert fresh.stats.disk_hits == 3                 # now memory-resident


def test_strip_outcome_preserves_statistics():
    runner = make_runner()
    setup = runner.setup(WORKLOAD)
    outcome = runner.baseline(setup, "bl")
    stripped = strip_outcome(outcome)
    assert stripped.cycles == outcome.cycles
    assert stripped.energy.total == outcome.energy.total
    assert stripped.shared is None and stripped.private is None


# ---------------------------------------------------------------------------
# parallel runner
# ---------------------------------------------------------------------------
def test_sim_request_validation():
    with pytest.raises(ValueError):
        SimRequest("mcf", "nonsense")
    with pytest.raises(ValueError):
        SimRequest("mcf", "dla")                      # missing dla_config


def _bl_and_r3(workloads):
    """A baseline and an R3-DLA cell per workload."""
    return [request for name in workloads for request in (
        SimRequest(name, "baseline", "bl"),
        SimRequest(name, "dla", "r3", dla_config=DlaConfig().r3()))]


def test_parallel_warm_matches_serial_results(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    serial = make_runner()
    s_setup = serial.setup(WORKLOAD)
    s_bl = serial.baseline(s_setup, "bl")
    s_r3 = serial.dla(s_setup, DlaConfig().r3(), "r3")

    parallel = ParallelExperimentRunner(
        quick=True, workload_names=[WORKLOAD, "mcf"], **WINDOW
    )
    # Two workload groups, so the cells really run in child processes.
    assert parallel.warm_isolated(_bl_and_r3([WORKLOAD, "mcf"]),
                                  processes=2) == (4, {})
    p_setup = parallel.setup(WORKLOAD)
    p_bl = parallel.baseline(p_setup, "bl")
    p_r3 = parallel.dla(p_setup, DlaConfig().r3(), "r3")
    # Cache hits, not re-simulations:
    assert parallel.stats.memory_hits >= 2
    # Bit-identical statistics across process boundaries.
    assert p_bl.cycles == s_bl.cycles
    assert p_bl.core.branch_mispredicts == s_bl.core.branch_mispredicts
    assert p_bl.energy.total == s_bl.energy.total
    assert p_r3.main.cycles == s_r3.main.cycles
    assert p_r3.reboots == s_r3.reboots
    assert p_r3.cpu_energy == s_r3.cpu_energy


def test_parallel_stats_count_each_simulation_once(tmp_path, monkeypatch):
    """The merged stats count every child's simulations exactly once."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    runner = ParallelExperimentRunner(
        quick=True, workload_names=[WORKLOAD, "mcf"], **WINDOW
    )
    executed, failures = runner.warm_isolated(_bl_and_r3([WORKLOAD, "mcf"]),
                                              processes=2)
    assert (executed, failures) == (4, {})
    # Exactly one recorded simulation per request, no double counting.
    assert runner.stats.simulations == 4



def test_runner_stats_merge_and_since_cover_every_field():
    names = [field.name for field in dataclasses.fields(RunnerStats)]
    ones = RunnerStats(**{name: 1 for name in names})
    total = ones.copy()
    total.merge(ones)
    assert all(getattr(total, name) == 2 for name in names)
    assert total.since(ones) == ones


# ---------------------------------------------------------------------------
# auxiliary (related-approach) simulations through the cache
# ---------------------------------------------------------------------------
def test_auxiliary_simulations_cached(tmp_path, monkeypatch):
    from repro.experiments import runner as runner_module

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "aux"))
    runner = make_runner(disk_cache=True)
    setup = runner.setup(WORKLOAD)

    calls = {"n": 0}
    recipe = runner_module.AUXILIARY_RECIPES["bfetch"]

    def counted(setup, config):
        calls["n"] += 1
        return recipe(setup, config)

    monkeypatch.setitem(runner_module.AUXILIARY_RECIPES, "bfetch", counted)
    first = runner.auxiliary(setup, "bfetch")
    second = runner.auxiliary(setup, "bfetch")
    assert calls["n"] == 1 and second is first
    assert runner.stats.simulations == 1
    # The key is the one every earlier release used for this cell.
    assert runner.label_keys["bfetch"] == runner.workload_key(
        setup.workload, "aux-bfetch")

    fresh = make_runner(disk_cache=True)
    from_disk = fresh.auxiliary(fresh.setup(WORKLOAD), "bfetch")
    assert calls["n"] == 1 and fresh.stats.disk_hits == 1
    assert from_disk.cycles == first.cycles


def test_auxiliary_kinds_are_cell_kinds():
    """A request of an auxiliary kind keys and runs like ``auxiliary``, and
    takes no DLA config."""
    runner = ParallelExperimentRunner(quick=True, workload_names=[WORKLOAD],
                                      processes=1, **WINDOW)
    setup = runner.setup(WORKLOAD)
    request = SimRequest(WORKLOAD, "smt-pair", "pair")
    assert runner.request_key(request) == runner.workload_key(
        setup.workload, "aux-smt-pair")
    with pytest.raises(ValueError):
        SimRequest(WORKLOAD, "smt-pair", dla_config=DlaConfig().r3())
    with pytest.raises(ValueError):
        SimRequest(WORKLOAD, "baseline", dla_config=DlaConfig().r3())
    with pytest.raises(KeyError):
        runner.auxiliary(setup, "nonsense")


def test_auxiliary_runs_reuse_the_decoded_timed_window():
    """B-Fetch and CRE simulate the setup's own timed window, so after the
    baseline decoded it every further lookup of the window is a memo hit:
    two per cell, the model's own (its per-PC table reads the decoded
    columns) and its run's.  The memo keys on the window's content, so a
    fresh cut of the same rows hits too."""
    from repro.core.compile import kernel_available
    from repro.core.compile.decoded import decoded_cache_stats
    from repro.experiments.runner import WorkloadSetup

    if not kernel_available():
        pytest.skip("decoding is a compiled-path step")
    runner = make_runner()
    setup = runner.setup(WORKLOAD)
    runner.baseline(setup, "bl")
    before = decoded_cache_stats()
    runner.auxiliary(setup, "bfetch")
    recut = setup.timed_trace.window(0, len(setup.timed_trace))
    assert recut is not setup.timed_trace and recut.key == setup.timed_trace.key
    runner.auxiliary(WorkloadSetup(setup.workload, setup.program,
                                   setup.warmup_trace, recut, setup.profile),
                     "cre")
    after = decoded_cache_stats()
    assert runner.stats.simulations == 3
    assert after["decodes"] == before["decodes"]
    assert after["hits"] == before["hits"] + 4


# ---------------------------------------------------------------------------
# setup disk entries: trace columns, never DynamicInst objects
# ---------------------------------------------------------------------------
def test_setup_disk_entry_pickles_columns_and_loads_lazily(tmp_path, monkeypatch):
    import pickletools

    from repro.core.compile import kernel_available
    from repro.emulator.trace import TraceColumns
    from repro.experiments.cache import read_entry
    from repro.experiments.runner import clear_setup_cache, setup_cache_stats

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "setups"))
    clear_setup_cache()
    first = make_runner(disk_cache=True)
    built = first.setup(WORKLOAD)
    key = first._disk_key(first.setup_key(built.workload))
    body = read_entry(first.disk_cache._path(key))
    names = {arg for _, arg, _ in pickletools.genops(body) if isinstance(arg, str)}
    assert "TraceColumns" in names and "DynamicInst" not in names

    builds = {"n": 0}
    original = TraceColumns.build_entries

    def counted(columns, program):
        builds["n"] += 1
        return original(columns, program)

    monkeypatch.setattr(TraceColumns, "build_entries", counted)
    clear_setup_cache()
    second = make_runner(disk_cache=True)
    loaded = second.setup(WORKLOAD)
    # The setup is deferred: its entry is read on first use of its parts.
    assert loaded._parts is None and setup_cache_stats()["disk_hits"] == 0
    # A cell served from the cache reads neither the setup nor entries ...
    first.baseline(built, "bl")
    second.baseline(loaded, "bl")
    assert second.stats.disk_hits == 1 and builds["n"] == 0
    assert loaded._parts is None and setup_cache_stats()["disk_hits"] == 0
    # ... nor does a compiled simulation, which reads the setup's columns;
    # the reference interpreter builds each window's entries once.
    second.baseline(loaded, "bl-nopf", second.system_config.without_prefetchers())
    assert loaded._parts is not None and setup_cache_stats()["disk_hits"] == 1
    assert builds["n"] == (0 if kernel_available() else 2)
    # Object consumers build each window's list once, then keep it.
    warmup, timed = loaded.warmup_trace, loaded.timed_trace
    assert timed.entries is timed.entries and warmup.entries is warmup.entries
    assert builds["n"] == 2
    assert timed.entries == built.timed_trace.entries
    assert warmup.entries == built.warmup_trace.entries
    assert timed[0].seq == len(warmup) == WINDOW["warmup_instructions"]
    program = loaded.program
    assert all(entry.static is program[entry.pc]
               for entry in warmup.entries + timed.entries)


# ---------------------------------------------------------------------------
# segmented (recycle) simulations through the cache
# ---------------------------------------------------------------------------
def test_dla_segmented_outcomes_keyed_by_content_and_mode():
    runner = make_runner()
    setup = runner.setup(WORKLOAD)
    r3 = DlaConfig().r3()
    static = runner.dla_segmented(setup, r3, dynamic=False)
    static_again = runner.dla_segmented(setup, r3, dynamic=False, label="other")
    assert static_again is static                     # memory hit, label cosmetic
    dynamic = runner.dla_segmented(setup, r3, dynamic=True)
    assert dynamic is not static                      # tuning mode is in the key
    assert runner.stats.simulations == 2
    assert runner.stats.memory_hits == 1
    # Plan summary rides along with the outcome.
    assert len(static.version_names) == 6
    assert abs(sum(static.version_distribution.values()) - 1.0) < 1e-6
    # Dynamic tuning pays trial slices for suboptimal versions.
    assert dynamic.cycles >= static.cycles


def test_dla_segmented_disk_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "seg"))
    first = make_runner(disk_cache=True)
    outcome = first.dla_segmented(first.setup(WORKLOAD), DlaConfig().r3())
    assert first.stats.simulations == 1

    second = make_runner(disk_cache=True)
    from_disk = second.dla_segmented(second.setup(WORKLOAD), DlaConfig().r3())
    assert second.stats.simulations == 0
    assert second.stats.disk_hits == 1
    assert from_disk.cycles == outcome.cycles
    assert from_disk.chosen_versions == outcome.chosen_versions
    assert from_disk.version_distribution == outcome.version_distribution


def test_parallel_warm_handles_segmented_requests(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    serial = make_runner()
    s_out = serial.dla_segmented(serial.setup(WORKLOAD), DlaConfig().r3(),
                                 dynamic=True)

    runner = ParallelExperimentRunner(
        quick=True, workload_names=[WORKLOAD, "sjeng"], **WINDOW
    )
    request = SimRequest(WORKLOAD, "segmented", "recycle-dynamic",
                         dla_config=DlaConfig().r3(), dynamic=True)
    # A mix of kinds over two workload groups, so the pool really fans out
    # and every kind merges into the one outcome store.
    mixed = [request, SimRequest("sjeng", "baseline", "bl"),
             SimRequest("sjeng", "dla", "r3", dla_config=DlaConfig().r3())]
    assert runner.warm_isolated(mixed, processes=2) == (3, {})
    assert all(runner.cached_outcome(runner.request_key(r)) is not None
               for r in mixed)
    p_out = runner.dla_segmented(runner.setup(WORKLOAD), DlaConfig().r3(),
                                 dynamic=True)
    assert runner.stats.memory_hits >= 1              # warm filled the cache
    assert p_out.cycles == s_out.cycles               # bit-identical across processes
    assert p_out.chosen_versions == s_out.chosen_versions


def test_segmented_request_validation():
    with pytest.raises(ValueError):
        SimRequest("mcf", "segmented")                # missing dla_config
    with pytest.raises(ValueError):
        # dynamic is not part of the dla cache key; accepting it would
        # silently alias with the dynamic=False request.
        SimRequest("mcf", "dla", dla_config=DlaConfig().r3(), dynamic=True)


def test_parallel_warm_is_idempotent(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    runner = ParallelExperimentRunner(
        quick=True, workload_names=[WORKLOAD], **WINDOW
    )
    requests = _bl_and_r3([WORKLOAD])
    assert runner.warm_isolated(requests, processes=1) == (2, {})
    assert runner.warm_isolated(requests, processes=1) == (0, {})


# ---------------------------------------------------------------------------
# the compiled path reads trace columns: no DynamicInst on any cell
# ---------------------------------------------------------------------------
def _cell_of_every_kind(runner):
    """Set up the workload cold and run one cell of every simulating kind
    (``ilp``, an analysis over the window's instruction objects, aside)."""
    from repro.experiments.runner import clear_setup_cache

    clear_setup_cache()
    setup = runner.setup(WORKLOAD)
    runner.baseline(setup, "bl")
    runner.dla(setup, DlaConfig().baseline_dla(), "dla")
    runner.dla(setup, DlaConfig().r3(), "r3")
    runner.dla_segmented(setup, DlaConfig().r3(), dynamic=False)
    runner.dla_segmented(setup, DlaConfig().r3(), dynamic=True)
    kinds = ("bfetch", "cre", "slipstream", "smt-hc", "smt-fc", "smt-dla",
             "smt-r3dla", "smt-pair", "l1-split")
    for kind in kinds:
        runner.auxiliary(setup, kind)
    assert runner.stats.simulations == 5 + len(kinds)


@pytest.mark.parametrize("fast", [True, False], ids=["kernel", "kill-switch"])
def test_cells_build_entries_only_for_the_interpreter(monkeypatch, fast):
    """With the kernel loaded, setting up a workload cold and simulating a
    cell of every kind (BL, DLA, R3, segmented static and dynamic, B-Fetch,
    CRE, SlipStream, the SMT scenarios, the L1 miss split) builds no
    DynamicInst; the reference interpreter
    (``REPRO_FAST_PIPELINE=0``) still reads objects."""
    from repro.core.compile import FAST_PIPELINE_ENV, counters, kernel_available
    from repro.emulator.trace import TraceColumns

    if fast and not kernel_available():
        pytest.skip("no C compiler / kernel build failed: nothing is compiled")
    monkeypatch.setenv(FAST_PIPELINE_ENV, "1" if fast else "0")
    built = {"entries": 0}
    original = TraceColumns.build_entries

    def counted(columns, statics):
        entries = original(columns, statics)
        built["entries"] += len(entries)
        return entries

    monkeypatch.setattr(TraceColumns, "build_entries", counted)
    interpreted = counters()["interpreted_runs"]
    _cell_of_every_kind(make_runner())
    if fast:
        assert built["entries"] == 0
        assert counters()["interpreted_runs"] == interpreted
    else:
        assert built["entries"] > 0


def test_setup_refuses_a_workload_that_halts_before_its_timed_window():
    """``ua`` halts after 23,963 instructions.  A 24k warm-up leaves it no
    timed window, which used to time 0 cycles (and fig09's ratio divided
    by zero); a short timed window is still a setup."""
    def runner(warmup):
        return ExperimentRunner(quick=True, workload_names=["ua"],
                                warmup_instructions=warmup,
                                timed_instructions=4_000, disk_cache=False)

    with pytest.raises(ValueError, match=r"'ua' halts after 23963 dynamic "
                       r"instructions.*\(warm-up 24000 \+ timed 4000\)"):
        runner(24_000).setup("ua")
    assert len(runner(23_000).setup("ua").timed_trace) == 963
