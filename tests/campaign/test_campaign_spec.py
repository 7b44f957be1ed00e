"""CampaignSpec / ConfigVariant: round-trip, validation, materialisation."""

from __future__ import annotations

import json

import pytest

from repro.campaign.registry import get_campaign, list_campaigns
from repro.campaign.spec import CampaignSpec, ConfigVariant, SpecError, variants
from repro.dla.config import DlaConfig
from repro.experiments.fingerprint import fingerprint
from repro.experiments.runner import ExperimentRunner


def _spec(**overrides) -> CampaignSpec:
    base = dict(
        name="demo",
        title="Demo campaign",
        experiment="repro.experiments.fig09_speedup",
        workloads=("libquantum", "scenario:branchy", "suite:npb"),
        variants=variants(
            dict(name="bl", kind="baseline"),
            dict(name="r3-nopf", kind="dla", dla_preset="r3", prefetch="none"),
            dict(name="recycle", kind="segmented", dla_preset="r3", dynamic=True),
        ),
        warmup_instructions=1500,
        timed_instructions=1500,
        tags=("test",),
    )
    base.update(overrides)
    return CampaignSpec(**base)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------
def test_dict_round_trip():
    spec = _spec()
    assert CampaignSpec.from_dict(spec.to_dict()) == spec


def test_json_round_trip_preserves_fingerprint():
    spec = _spec()
    restored = CampaignSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert restored == spec
    assert restored.fingerprint() == spec.fingerprint()


def test_fingerprint_tracks_content():
    assert _spec().fingerprint() != _spec(timed_instructions=2000).fingerprint()
    assert _spec().fingerprint() == _spec().fingerprint()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------
def test_unknown_fields_rejected():
    with pytest.raises(SpecError):
        CampaignSpec.from_dict({**_spec().to_dict(), "bogus": 1})
    with pytest.raises(SpecError):
        ConfigVariant.from_dict({"name": "x", "kind": "baseline", "bogus": 1})


@pytest.mark.parametrize("variant_kwargs", [
    dict(name="x", kind="nonsense"),
    dict(name="x", prefetch="l3stride"),
    dict(name="x", kind="dla", dla_preset="r4"),
    dict(name="x", kind="dla", dla_preset="r3", dla_optimizations={"t1": True}),
    dict(name="x", kind="baseline", dla_preset="r3"),
    dict(name="x", kind="dla", dla_preset="r3", dynamic=True),
])
def test_variant_validation_rejects(variant_kwargs):
    with pytest.raises(SpecError):
        ConfigVariant(**variant_kwargs).validate()


@pytest.mark.parametrize("variant_kwargs", [
    dict(name="x", kind="dla", dla_optimizations={"bogus": True}),
    dict(name="x", kind="dla", dla_optimizations={"recycle": True}),
    dict(name="x", core_overrides={"pipeline_depth": 30}),
    dict(name="x", core_overrides={"branch_predictor": "gshare"}),
])
def test_unknown_knob_names_are_spec_errors(variant_kwargs):
    """A knob no config has fails validation, not later materialisation
    with a ``TypeError``, both in code and through the dict form."""
    with pytest.raises(SpecError, match="unknown"):
        ConfigVariant(**variant_kwargs).validate()
    with pytest.raises(SpecError, match="unknown"):
        CampaignSpec.from_dict({**_spec().to_dict(),
                                "variants": [variant_kwargs]})


def test_spec_validation_rejects_duplicates_and_unknown_workloads():
    with pytest.raises(SpecError):
        _spec(variants=variants(dict(name="bl"), dict(name="bl"))).validate()
    with pytest.raises(SpecError):
        _spec(workloads=("not-a-workload",)).validate()
    with pytest.raises(SpecError):
        _spec(workloads=("scenario:not-a-scenario",)).validate()
    with pytest.raises(SpecError):
        _spec(timed_instructions=0).validate()


def test_resolve_workloads_expands_and_dedups():
    resolved = _spec().resolve_workloads()
    assert resolved[0] == "libquantum"
    assert "sjeng" in resolved                       # scenario:branchy
    assert "cg" in resolved                          # suite:npb
    assert len(resolved) == len(set(resolved))
    assert _spec(workloads=None).resolve_workloads() is None


# ---------------------------------------------------------------------------
# materialisation must match the figures' imperative configs
# ---------------------------------------------------------------------------
def test_variant_materialisation_matches_runner_presets():
    runner = ExperimentRunner(quick=True, workload_names=["libquantum"],
                              disk_cache=False)
    base = runner.system_config
    assert ConfigVariant(name="bl").system_config(base) is None
    nopf = ConfigVariant(name="n", prefetch="none").system_config(base)
    assert fingerprint(nopf) == fingerprint(runner.no_prefetch_config())
    stride = ConfigVariant(name="s", prefetch="l1stride").system_config(base)
    assert fingerprint(stride) == fingerprint(runner.with_l1_stride_config())
    fb32 = ConfigVariant(
        name="f", core_overrides={"fetch_buffer_entries": 32}
    ).system_config(base)
    assert fingerprint(fb32) == fingerprint(base.with_overrides(fetch_buffer_entries=32))


def test_variant_dla_materialisation():
    assert ConfigVariant(name="b").dla_config() is None
    r3 = ConfigVariant(name="r", kind="dla", dla_preset="r3").dla_config()
    assert fingerprint(r3) == fingerprint(DlaConfig().r3())
    t1 = ConfigVariant(name="t", kind="dla",
                       dla_optimizations={"t1": True}).dla_config()
    assert fingerprint(t1) == fingerprint(DlaConfig().with_optimizations(t1=True))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def test_registry_covers_every_paper_artifact():
    names = {spec.name for spec in list_campaigns()}
    expected = {"fig01", "fig05", "fig09", "fig10", "fig11", "fig12",
                "fig13", "fig14", "fig15", "table02", "table03", "smoke"}
    assert expected <= names
    assert any(name.startswith("sweep-") for name in names)


def test_registry_specs_validate_and_have_hooks():
    import importlib

    for spec in list_campaigns():
        spec.validate()
        module = importlib.import_module(spec.experiment)
        assert callable(getattr(module, "run"))
        assert callable(getattr(module, "artifact_tables"))


def test_get_campaign_unknown_returns_none():
    assert get_campaign("definitely-not-registered") is None
