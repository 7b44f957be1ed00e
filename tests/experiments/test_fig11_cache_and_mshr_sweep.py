"""Fig. 11's auxiliary-cache routing and the MSHR sensitivity sweep."""

from __future__ import annotations

import pytest

from repro.experiments import fig11_smt, mshr_sweep
from repro.experiments.runner import ExperimentRunner


@pytest.fixture()
def tiny_runner():
    return ExperimentRunner(quick=True, workload_names=["libquantum"],
                            warmup_instructions=600, timed_instructions=600,
                            disk_cache=False)


def test_fig11_routes_smt_modes_through_auxiliary(tiny_runner):
    first = fig11_smt.run(tiny_runner)
    simulations_after_first = tiny_runner.stats.simulations
    assert simulations_after_first > 0
    hits_before = tiny_runner.stats.memory_hits

    second = fig11_smt.run(tiny_runner)
    # Reruns are free: every SMT-mode simulation comes from the outcome store.
    assert tiny_runner.stats.simulations == simulations_after_first
    assert tiny_runner.stats.memory_hits >= hits_before + 5
    assert second.per_workload == first.per_workload
    # All five scenarios are tracked under content keys.
    for kind in ("smt-hc", "smt-fc", "smt-dla", "smt-r3dla", "smt-pair"):
        assert kind in tiny_runner.label_keys


def test_fig11_result_shape(tiny_runner):
    result = fig11_smt.run(tiny_runner)
    values = result.per_workload["libquantum"]
    assert set(values) == {"FC", "DLA", "R3-DLA", "SMT"}
    assert all(v > 0 for v in values.values())
    assert set(result.geomean) == {"FC", "DLA", "R3-DLA", "SMT"}


def test_mshr_sweep_runs_and_normalises_to_unbounded(tiny_runner):
    result = mshr_sweep.run(tiny_runner)
    by_setting = result.per_workload["libquantum"]
    assert set(by_setting) == {"4", "8", "16", "32", "inf"}
    # The unbounded setting is its own reference: exactly 1.0 by definition.
    assert by_setting["inf"]["bl"] == 1.0
    assert by_setting["inf"]["r3"] == 1.0
    assert by_setting["inf"]["bl_stall_cycles"] == 0
    # Bounded machines essentially never beat the infinite-MLP reference
    # (tiny tolerance for second-order timing effects like eviction order).
    for label in ("4", "8", "16", "32"):
        assert 0.0 < by_setting[label]["bl"] <= 1.02
        assert 0.0 < by_setting[label]["r3"] <= 1.02
    tables = mshr_sweep.artifact_tables(result)
    assert set(tables) == {"sensitivity", "curve"}
    assert len(tables["curve"]) == 5
    assert result.render()
