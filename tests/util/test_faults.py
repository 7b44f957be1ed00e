"""Fault-injection harness: parsing, determinism, budgets, probe actions."""

from __future__ import annotations

import pytest

from repro.util import faults
from repro.util.faults import (
    FaultPlan, FaultPlanError, FaultSpec, InjectedFault, stable_fraction,
)


@pytest.fixture(autouse=True)
def inert_plan(monkeypatch):
    """Every test starts (and leaves) the process with no active plan."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    monkeypatch.delenv(faults.LEDGER_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------
def test_parse_compact_form():
    plan = FaultPlan.parse(
        "cell.simulate:raise:times=1;cache.write:truncate:times=2,match=abc"
    )
    assert [spec.kind for spec in plan.specs] == ["raise", "truncate"]
    assert plan.specs[0].site == "cell.simulate"
    assert plan.specs[1].times == 2
    assert plan.specs[1].match == "abc"


def test_parse_json_form_roundtrips_through_to_json():
    plan = FaultPlan.parse('[{"site": "worker.kill", "kind": "kill"}]')
    again = FaultPlan.parse(plan.to_json())
    assert [spec.to_dict() for spec in again.specs] == \
        [spec.to_dict() for spec in plan.specs]


def test_parse_times_none_means_unlimited():
    plan = FaultPlan.parse("cell.simulate:raise:times=none,attempts=99")
    assert plan.specs[0].times is None


@pytest.mark.parametrize("bad", [
    "cell.simulate",                       # no kind
    "cell.simulate:explode",               # unknown kind
    "cell.simulate:raise:times=0",         # bad budget
    "cell.simulate:raise:attempts=0",      # bad attempt gate
    "cell.simulate:raise:nonsense",        # not key=value
    '[{"site": "s", "kind": "raise", "bogus": 1}]',
])
def test_parse_rejects_bad_specs(bad):
    with pytest.raises(FaultPlanError):
        FaultPlan.parse(bad)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
def test_stable_fraction_is_deterministic_and_spread():
    values = [stable_fraction("seed", "site", f"key-{i}") for i in range(64)]
    assert values == [stable_fraction("seed", "site", f"key-{i}")
                      for i in range(64)]
    assert all(0.0 <= value < 1.0 for value in values)
    assert len(set(values)) > 32                        # actually varies


def test_pct_gate_selects_same_keys_every_time():
    spec = FaultSpec(site="cell.simulate", kind="raise", pct=30.0,
                     times=None, attempts=99)
    selected = {f"k{i}" for i in range(100)
                if spec.matches("cell.simulate", f"k{i}", 0)}
    again = {f"k{i}" for i in range(100)
             if spec.matches("cell.simulate", f"k{i}", 0)}
    assert selected == again
    assert 5 < len(selected) < 60                       # roughly pct-sized


def test_match_substring_and_attempt_gate():
    spec = FaultSpec(site="cell.simulate", kind="raise", match="abc",
                     attempts=2, times=None)
    assert spec.matches("cell.simulate", "xxabcxx", 0)
    assert spec.matches("cell.simulate", "xxabcxx", 1)
    assert not spec.matches("cell.simulate", "xxabcxx", 2)   # gated off
    assert not spec.matches("cell.simulate", "other", 0)     # no substring
    assert not spec.matches("cache.write", "xxabcxx", 0)     # wrong site


# ---------------------------------------------------------------------------
# fire budgets (durable ledger)
# ---------------------------------------------------------------------------
def test_times_budget_holds_across_plan_instances(tmp_path):
    """The on-disk ledger makes budgets process-restart-proof: a second
    plan instance (a restarted worker) sees the spent budget."""
    text = "cell.simulate:raise:times=1,attempts=99"
    first = FaultPlan.parse(text, ledger_dir=tmp_path / "ledger")
    with pytest.raises(InjectedFault):
        first.check("cell.simulate", key="k", attempt=0)
    second = FaultPlan.parse(text, ledger_dir=tmp_path / "ledger")
    assert second.check("cell.simulate", key="k", attempt=0) is None
    # The one budget slot is spent: its ledger marker is the only one.
    ident = second.specs[0].ledger_id()
    assert sorted(p.name for p in (tmp_path / "ledger").iterdir()) == [
        f"{ident}.0"]


def test_memory_fallback_budget_without_ledger(tmp_path):
    plan = FaultPlan.parse("cell.simulate:raise:times=2,attempts=99",
                           ledger_dir=tmp_path / "nope" / "file.txt")
    # Force the unwritable-ledger path by pointing the ledger below a file.
    (tmp_path / "nope").write_text("a file, not a directory")
    fired = 0
    for _ in range(5):
        try:
            plan.check("cell.simulate", key="k", attempt=0)
        except InjectedFault:
            fired += 1
    assert fired == 2


# ---------------------------------------------------------------------------
# probe actions + activation
# ---------------------------------------------------------------------------
def test_probe_is_inert_without_a_plan():
    assert faults.probe("cell.simulate", key="k") is None


def test_probe_reads_plan_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(faults.FAULTS_ENV,
                       "cell.simulate:raise:times=1,attempts=99")
    monkeypatch.setenv(faults.LEDGER_ENV, str(tmp_path / "ledger"))
    faults.reset()                                      # re-arm lazy loading
    with pytest.raises(InjectedFault):
        faults.probe("cell.simulate", key="k", attempt=0)
    assert faults.probe("cell.simulate", key="k", attempt=0) is None


def test_truncate_kind_is_returned_to_caller(tmp_path):
    plan = FaultPlan.parse("cache.write:truncate:times=1",
                           ledger_dir=tmp_path / "ledger")
    faults.activate(plan)
    spec = faults.probe(faults.SITE_CACHE_WRITE, key="k")
    assert spec is not None and spec.kind == "truncate"
    assert faults.probe(faults.SITE_CACHE_WRITE, key="k") is None


def test_hang_kind_sleeps_then_reports(tmp_path):
    plan = FaultPlan.parse("cell.simulate:hang:times=1,seconds=0.01",
                           ledger_dir=tmp_path / "ledger")
    faults.activate(plan)
    spec = faults.probe(faults.SITE_CELL_SIMULATE, key="k")
    assert spec is not None and spec.kind == "hang"


def test_activate_none_deactivates(tmp_path, monkeypatch):
    # Even with the env var set, an explicit activate(None) wins.
    monkeypatch.setenv(faults.FAULTS_ENV, "cell.simulate:raise")
    faults.activate(None)
    assert faults.probe("cell.simulate", key="k") is None
