"""The ``repro`` CLI: argument handling and end-to-end run/render/status."""

from __future__ import annotations

import json

import pytest

from repro.campaign.cli import main
from repro.campaign.spec import CampaignSpec

WINDOW = dict(warmup_instructions=1500, timed_instructions=1500)


@pytest.fixture()
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_list_exits_zero(isolated, capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig09" in out and "table03" in out and "smoke" in out


def test_list_tag_filter(isolated, capsys):
    assert main(["list", "--tag", "recycle"]) == 0
    out = capsys.readouterr().out
    assert "fig13" in out and "fig09" not in out


def test_run_requires_a_campaign(isolated):
    assert main(["run"]) == 2
    assert main(["run", "no-such-campaign"]) == 2


def test_worker_refuses_processes(isolated, capsys):
    """A worker simulates its claimed cells one at a time, so an explicit
    ``--processes`` is refused before anything runs."""
    assert main(["run", "fig10", "--worker", "--processes", "2"]) == 2
    assert "--processes" in capsys.readouterr().err
    assert not (isolated / "cache").exists()


def test_spec_naming_an_unknown_knob_is_a_spec_error(isolated, tmp_path,
                                                     capsys):
    spec = CampaignSpec(
        name="cli-bad-knob",
        title="CLI bad-knob campaign",
        experiment="repro.experiments.fig10_energy",
        workloads=("libquantum",),
        variants=(),
        **WINDOW,
    ).to_dict()
    spec["variants"] = [{"name": "deep", "kind": "baseline",
                         "core_overrides": {"pipeline_depth": 30}}]
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps([spec]))
    assert main(["run", "--spec", str(spec_file)]) == 2
    assert "spec error" in capsys.readouterr().err


def test_run_status_render_clean_cycle(isolated, tmp_path, capsys):
    spec = CampaignSpec(
        name="cli-test",
        title="CLI test campaign",
        experiment="repro.experiments.fig10_energy",
        workloads=("libquantum",),
        variants=(),
        **WINDOW,
    )
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps([spec.to_dict()]))

    assert main(["run", "--spec", str(spec_file), "--out",
                 str(tmp_path / "artifacts")]) == 0
    out = capsys.readouterr().out
    assert "[cli-test]" in out
    assert (tmp_path / "artifacts" / "cli-test" / "cli-test.md").exists()

    assert main(["status", "cli-test"]) == 0
    assert "complete" in capsys.readouterr().out

    assert main(["render", "cli-test", "--out",
                 str(tmp_path / "artifacts2")]) == 0
    capsys.readouterr()
    assert (tmp_path / "artifacts2" / "cli-test" / "cli-test.json").exists()

    assert main(["clean", "cli-test"]) == 0
    assert main(["render", "cli-test", "--out",
                 str(tmp_path / "artifacts3")]) == 1   # nothing stored any more


def test_render_unknown_campaign_fails(isolated):
    assert main(["render", "never-ran"]) == 1


def test_clean_requires_names(isolated):
    assert main(["clean"]) == 2
