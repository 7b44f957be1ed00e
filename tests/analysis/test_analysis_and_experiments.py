"""Tests for the analysis helpers and a smoke test of the experiment harness."""

import pytest

from repro.analysis.ilp import measure_implicit_parallelism
from repro.analysis.metrics import SpeedupTable, mpki, suite_summary
from repro.analysis.reporting import format_bar_chart, format_table
from repro.experiments.runner import ExperimentRunner, QUICK_WORKLOADS


# ---------------------------------------------------------------------------
# ILP limit study (Fig. 1)
# ---------------------------------------------------------------------------
def test_ilp_ideal_exceeds_real(branchy_trace):
    result = measure_implicit_parallelism(branchy_trace.window(0, 4000), windows=(128, 512))
    for window in (128, 512):
        assert result.ideal[window] >= result.real[window]
        assert result.ratio(window) >= 1.0


def test_ilp_grows_with_window(pointer_trace):
    result = measure_implicit_parallelism(pointer_trace.window(0, 4000), windows=(128, 2048))
    assert result.ideal[2048] >= result.ideal[128] * 0.99


def test_ilp_streaming_has_high_ideal_parallelism(stream_trace):
    result = measure_implicit_parallelism(stream_trace.window(0, 4000), windows=(512,))
    assert result.ideal[512] > 2.5


# ---------------------------------------------------------------------------
# metrics and reporting
# ---------------------------------------------------------------------------
def test_mpki_helper():
    assert mpki(50, 10_000) == pytest.approx(5.0)
    assert mpki(5, 0) == 0.0


def test_speedup_table_aggregation():
    table = SpeedupTable()
    table.record("DLA", "a", 1.2, "spec")
    table.record("DLA", "b", 1.8, "spec")
    table.record("DLA", "c", 1.5, "crono")
    assert table.suite_geomean("DLA", "spec") == pytest.approx((1.2 * 1.8) ** 0.5)
    assert table.suite_range("DLA", "spec") == (1.2, 1.8)
    rows = table.summary_rows(["spec", "crono"])
    suites = {row["suite"] for row in rows}
    assert suites == {"spec", "crono", "all"}
    assert table.workloads() == ["a", "b", "c"]


def test_suite_summary_includes_all():
    summary = suite_summary({"a": 2.0, "b": 8.0}, {"a": "x", "b": "y"})
    assert summary["x"] == pytest.approx(2.0)
    assert summary["all"] == pytest.approx(4.0)


def test_format_table_alignment_and_floats():
    rows = [{"name": "mcf", "speedup": 1.23456}, {"name": "libquantum", "speedup": 2.0}]
    text = format_table(rows)
    assert "mcf" in text and "1.235" in text
    assert len(text.splitlines()) == 4
    assert format_table([]) == "(empty table)"


def test_format_bar_chart():
    chart = format_bar_chart({"DLA": 1.12, "R3-DLA": 1.4})
    assert "R3-DLA" in chart and "#" in chart
    assert format_bar_chart({}) == "(empty chart)"


# ---------------------------------------------------------------------------
# experiment runner (smoke)
# ---------------------------------------------------------------------------
def test_quick_workload_list_spans_all_suites():
    runner = ExperimentRunner(quick=True)
    suites = {runner.setup(name).suite for name in QUICK_WORKLOADS[:4]}
    assert suites  # setup works and suites resolve


def test_runner_caches_setups_and_baselines():
    runner = ExperimentRunner(quick=True, workload_names=["libquantum"],
                              warmup_instructions=2000, timed_instructions=2000)
    setup_a = runner.setup("libquantum")
    setup_b = runner.setup("libquantum")
    assert setup_a is setup_b
    baseline_a = runner.baseline(setup_a)
    baseline_b = runner.baseline(setup_a)
    assert baseline_a is baseline_b
    assert len(setup_a.timed_trace) == 2000


def test_system_config_prefetcher_helpers():
    config = ExperimentRunner(quick=True).system_config
    assert config.without_prefetchers().l2_prefetcher == "none"
    assert config.with_l1_stride().l1_prefetcher == "stride"
