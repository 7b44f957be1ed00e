"""Renderer goldens: artifacts must carry the experiment modules' numbers
bit-for-bit (one figure campaign, one table campaign)."""

from __future__ import annotations

import csv
import json

import pytest

from repro.campaign.render import RenderError, render_campaign
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.experiments.parallel import ParallelExperimentRunner

WINDOW = dict(warmup_instructions=1500, timed_instructions=1500)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    path = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
    monkeypatch.setenv("REPRO_DISK_CACHE", "1")
    return path


def _campaign(name: str, workloads) -> CampaignSpec:
    """The registered campaign, narrowed to a test-sized workload set."""
    from repro.campaign.registry import get_campaign

    spec = get_campaign(name)
    return CampaignSpec.from_dict(
        {**spec.to_dict(), "workloads": list(workloads), **WINDOW}
    )


def _run_and_render(spec, tmp_path):
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    runner = ParallelExperimentRunner(
        quick=True, workload_names=spec.resolve_workloads(), processes=1,
        **WINDOW,
    )
    CampaignScheduler(spec, store=store, runner=runner).run()
    paths = render_campaign(spec.name, store=store,
                            out_dir=str(tmp_path / "artifacts"))
    return store, runner, {p.name: p for p in paths}


def _golden(spec, module):
    """What a direct module run on an equivalent runner produces."""
    runner = ParallelExperimentRunner(
        quick=True, workload_names=spec.resolve_workloads(), processes=1,
        **WINDOW,
    )
    result = module.run(runner)
    return result.render(), module.artifact_tables(result)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _assert_csv_matches(path, rows):
    """CSV cells must round-trip to exactly the table's values."""
    parsed = _read_csv(path)
    assert len(parsed) == len(rows)
    for got, expected in zip(parsed, rows):
        for column, value in expected.items():
            if isinstance(value, float):
                assert float(got[column]) == value      # repr round-trip: exact
            else:
                assert got[column] == str(value)


def test_fig14_campaign_artifacts_match_module_output(cache_dir, tmp_path):
    from repro.experiments import fig14_queue_validation as module

    spec = _campaign("fig14", ["sjeng"])
    store, _, paths = _run_and_render(spec, tmp_path)
    golden_text, golden_tables = _golden(spec, module)

    stored = store.load_result()
    assert stored["text"] == golden_text                 # bit-for-bit
    assert json.loads(json.dumps(stored["tables"])) == json.loads(
        json.dumps(golden_tables)
    )
    # Markdown embeds the module's rendered text verbatim.
    markdown = paths["fig14.md"].read_text()
    assert golden_text in markdown
    # Every table row survives the CSV round trip exactly.
    _assert_csv_matches(paths["queue_distribution.csv"],
                        golden_tables["queue_distribution"])
    _assert_csv_matches(paths["summary.csv"], golden_tables["summary"])
    # JSON artifact carries the full payload.
    payload = json.loads(paths["fig14.json"].read_text())
    assert payload["tables"] == stored["tables"]


def test_table02_campaign_artifacts_match_module_output(cache_dir, tmp_path):
    from repro.experiments import table02_activity as module

    spec = _campaign("table02", ["libquantum"])
    store, _, paths = _run_and_render(spec, tmp_path)
    golden_text, golden_tables = _golden(spec, module)

    stored = store.load_result()
    assert stored["text"] == golden_text
    markdown = paths["table02.md"].read_text()
    assert golden_text in markdown
    _assert_csv_matches(paths["activity.csv"], golden_tables["activity"])
    # Column order in the CSV follows the module's row-key order.
    with open(paths["activity.csv"], newline="") as fh:
        header = next(csv.reader(fh))
    assert header == list(golden_tables["activity"][0].keys())


def test_render_without_result_raises(tmp_path):
    with pytest.raises(RenderError):
        render_campaign("never-ran", store=CampaignStore("never-ran", tmp_path),
                        out_dir=str(tmp_path / "artifacts"))
