"""Fingerprint-keyed caching, disk persistence and the parallel runner."""

from __future__ import annotations

import dataclasses

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
    no_pf = runner.baseline(setup, "bl", runner.no_prefetch_config())
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
    nopf_cycles = runner.baseline(setup, "nopf", runner.no_prefetch_config()).cycles
    stride_cycles = runner.baseline(setup, "stride", runner.with_l1_stride_config()).cycles
    again_nopf = runner.baseline(setup, "nopf2", runner.no_prefetch_config()).cycles
    assert nopf_cycles != reference.cycles
    assert stride_cycles != nopf_cycles
    assert again_nopf == nopf_cycles
    assert runner.stats.simulations == 3


def test_dla_cache_keyed_by_dla_config_content():
    runner = make_runner()
    setup = runner.setup(WORKLOAD)
    dla = runner.dla(setup, DlaConfig().baseline_dla(), "one")
    same = runner.dla(setup, DlaConfig().baseline_dla(), "two")
    r3 = runner.dla(setup, DlaConfig().r3(), "one")   # label reused on purpose
    assert dla is same
    assert r3 is not dla


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


def test_parallel_warm_matches_serial_results():
    serial = make_runner()
    s_setup = serial.setup(WORKLOAD)
    s_bl = serial.baseline(s_setup, "bl")
    s_r3 = serial.dla(s_setup, DlaConfig().r3(), "r3")

    parallel = ParallelExperimentRunner(
        quick=True, workload_names=[WORKLOAD], disk_cache=False, **WINDOW
    )
    executed = parallel.warm(processes=2)
    assert executed == 6                               # full standard matrix
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


def test_parallel_stats_count_each_simulation_once():
    """Regression: worker stats are per-group deltas, not cumulative.

    A pool worker serves several workload groups with one persistent
    runner; returning its cumulative stats for every group made the merged
    totals a prefix-sum over-count.
    """
    runner = ParallelExperimentRunner(
        quick=True, workload_names=[WORKLOAD, "mcf"], disk_cache=False, **WINDOW
    )
    executed = runner.warm(processes=2)
    assert executed == 12
    # Exactly one recorded simulation per request, no double counting.
    assert runner.stats.simulations == 12

    # Deterministic variant: one worker process serving two consecutive
    # groups must report per-group deltas, not its cumulative totals.
    from repro.experiments.parallel import _run_group

    ctor = dict(quick=True, workload_names=[WORKLOAD, "mcf"],
                system_config=runner.system_config, disk_cache=False, **WINDOW)
    first = SimRequest(WORKLOAD, "baseline", "bl")
    second = SimRequest("mcf", "baseline", "bl")
    _, _, stats_a = _run_group((ctor, WORKLOAD, [first]))
    _, _, stats_b = _run_group((ctor, "mcf", [second]))
    assert stats_a.simulations == 1
    assert stats_b.simulations == 1


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
    from repro.baselines import simulate_bfetch

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "aux"))
    monkeypatch.setenv("REPRO_DISK_CACHE", "1")
    runner = make_runner(disk_cache=True)
    setup = runner.setup(WORKLOAD)

    calls = {"n": 0}

    def simulate():
        calls["n"] += 1
        return simulate_bfetch(setup.timed, runner.system_config,
                               warmup_entries=setup.warmup)

    first = runner.auxiliary(setup, "bfetch", simulate)
    second = runner.auxiliary(setup, "bfetch", simulate)
    assert calls["n"] == 1 and second is first
    assert runner.stats.simulations == 1

    fresh = make_runner(disk_cache=True)
    from_disk = fresh.auxiliary(fresh.setup(WORKLOAD), "bfetch",
                                lambda: pytest.fail("must come from disk"))
    assert fresh.stats.disk_hits == 1
    assert from_disk.cycles == first.cycles


# ---------------------------------------------------------------------------
# segmented (recycle) simulations through the cache
# ---------------------------------------------------------------------------
def test_dla_segmented_cached_by_content_and_mode():
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


def test_parallel_warm_handles_segmented_requests():
    serial = make_runner()
    s_out = serial.dla_segmented(serial.setup(WORKLOAD), DlaConfig().r3(),
                                 dynamic=True)

    runner = ParallelExperimentRunner(
        quick=True, workload_names=[WORKLOAD], disk_cache=False, **WINDOW
    )
    request = SimRequest(WORKLOAD, "segmented", "recycle-dynamic",
                         dla_config=DlaConfig().r3(), dynamic=True)
    executed = runner.warm([request], processes=2)
    assert executed == 1
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


def test_parallel_warm_is_idempotent():
    runner = ParallelExperimentRunner(
        quick=True, workload_names=[WORKLOAD], disk_cache=False, **WINDOW
    )
    first = runner.warm(processes=1)
    second = runner.warm(processes=1)
    assert first == 6
    assert second == 0
