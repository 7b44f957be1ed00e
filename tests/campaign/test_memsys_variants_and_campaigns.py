"""ConfigVariant plumbing for the memory-backend knobs, the memsys campaign
family, and sharded/worker execution of a memsys campaign with byte-identical
merged artifacts (the acceptance contract of the contention layer)."""

from __future__ import annotations

import pytest

from repro.campaign.registry import get_campaign, list_campaigns
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec, ConfigVariant, SpecError
from repro.campaign.store import CampaignStore
from repro.core.config import SystemConfig
from repro.experiments.fingerprint import fingerprint
from repro.experiments.parallel import ParallelExperimentRunner


# ---------------------------------------------------------------------------
# ConfigVariant knobs
# ---------------------------------------------------------------------------
def test_memsys_variant_materialises_all_knobs():
    base = SystemConfig()
    variant = ConfigVariant(name="bl-contended", mshr_entries=8, mshr_banks=2,
                            write_buffer_entries=4, dram_queue_depth=8)
    config = variant.system_config(base)
    for level in (config.memory.l1i, config.memory.l1d,
                  config.memory.l2, config.memory.l3):
        assert level.mshr_entries == 8
        assert level.mshr_banks == 2
    for level in (config.memory.l1d, config.memory.l2, config.memory.l3):
        assert level.write_buffer.entries == 4
    assert config.memory.l1i.write_buffer is None
    assert config.memory.dram.queue_depth == 8
    # Declarative and imperative spellings must fingerprint identically.
    assert fingerprint(config) == fingerprint(base.with_memsys(
        mshr_entries=8, mshr_banks=2, write_buffer_entries=4,
        dram_queue_depth=8,
    ))


def test_memsys_variant_zero_means_model_off():
    base = SystemConfig()
    variant = ConfigVariant(name="bl-off", mshr_banks=0,
                            write_buffer_entries=0, dram_queue_depth=0)
    config = variant.system_config(base)
    for level in (config.memory.l1i, config.memory.l1d,
                  config.memory.l2, config.memory.l3):
        assert level.mshr_banks is None
        assert level.write_buffer is None
    assert config.memory.dram.queue_depth is None
    # All-off materialises to the base machine's content (one cache slot).
    assert fingerprint(config) == fingerprint(base)


def test_memsys_variant_defaults_stay_none_config():
    assert ConfigVariant(name="bl").system_config(SystemConfig()) is None


def test_inert_knob_spellings_share_one_fingerprint():
    """Every way of writing the un-banked / unbounded machine must
    materialise to one content fingerprint (one cache slot)."""
    base = SystemConfig()
    assert fingerprint(base.with_mshr_banks(1)) == fingerprint(base)
    assert fingerprint(base.with_mshr_banks(0)) == fingerprint(base)
    # groups is ignored while the queue model is off.
    assert fingerprint(base.with_dram_queue(None, groups=2)) == fingerprint(base)
    assert fingerprint(base.with_dram_queue(8, groups=2)) != fingerprint(base)


@pytest.mark.parametrize("field", ["mshr_banks", "write_buffer_entries",
                                   "dram_queue_depth"])
def test_memsys_variant_validation(field):
    with pytest.raises(SpecError):
        ConfigVariant(name="bad", **{field: -1}).validate()
    with pytest.raises(SpecError):
        ConfigVariant(name="bad", **{field: True}).validate()
    variant = ConfigVariant(name="ok", kind="dla", dla_preset="r3",
                            **{field: 4})
    assert ConfigVariant.from_dict(variant.to_dict()) == variant


# ---------------------------------------------------------------------------
# campaign family
# ---------------------------------------------------------------------------
def test_memsys_campaign_family_registered():
    names = {spec.name for spec in list_campaigns()}
    assert {"memsys-sweep", "wb-sweep", "dramq-sweep", "mshr-sweep"} <= names
    memsys_campaigns = {name for name in names if name.startswith("memsys:")}
    assert memsys_campaigns, "expected memsys:<scenario> campaigns"
    spec = get_campaign(sorted(memsys_campaigns)[0])
    assert spec.experiment == "repro.experiments.memsys_sweep"
    # 2 machines x the named machine points, matching the main sweep.
    assert spec.variants == get_campaign("memsys-sweep").variants
    spec.validate()


def test_memsys_sweep_variant_matrix_shape():
    from repro.experiments.memsys_sweep import MEMSYS_MACHINES

    spec = get_campaign("memsys-sweep")
    assert len(spec.variants) == 2 * len(MEMSYS_MACHINES)
    by_name = {variant.name: variant for variant in spec.variants}
    assert by_name["bl-contended"].mshr_entries == 8
    assert by_name["bl-contended"].mshr_banks == 2
    assert by_name["bl-contended"].write_buffer_entries == 4
    assert by_name["bl-contended"].dram_queue_depth == 8
    assert by_name["r3-uncontended"].mshr_entries == 0   # explicit off
    assert by_name["bl-default"].system_config(SystemConfig()) is None


def test_axis_sweep_campaigns_declare_their_knob():
    wb = get_campaign("wb-sweep")
    assert len(wb.variants) == 10
    assert any(v.write_buffer_entries == 0 for v in wb.variants)
    assert any(v.write_buffer_entries == 8 for v in wb.variants)
    dramq = get_campaign("dramq-sweep")
    assert len(dramq.variants) == 10
    assert any(v.dram_queue_depth == 0 for v in dramq.variants)
    assert any(v.dram_queue_depth == 16 for v in dramq.variants)


# ---------------------------------------------------------------------------
# sharded + worker execution with byte-identical merged artifacts
# ---------------------------------------------------------------------------
def _memsys_spec() -> CampaignSpec:
    """A small but real memsys campaign: the full machine matrix (so the
    render-time ``run()`` finds every cell it needs in cache) on one
    workload with tiny windows."""
    base = get_campaign("memsys-sweep")
    return CampaignSpec(
        name="memsys-shard-test",
        title="memsys sharding test",
        experiment=base.experiment,
        workloads=("libquantum",),
        variants=base.variants,
        warmup_instructions=600,
        timed_instructions=600,
    )


def _scheduler(spec, store) -> CampaignScheduler:
    runner = ParallelExperimentRunner(
        quick=True, workload_names=spec.resolve_workloads(),
        warmup_instructions=spec.warmup_instructions,
        timed_instructions=spec.timed_instructions,
        processes=1,
    )
    return CampaignScheduler(spec, store=store, runner=runner)


def test_memsys_campaign_shard_worker_merge_byte_identical(tmp_path, monkeypatch):
    from repro.campaign.render import render_campaign

    spec = _memsys_spec()

    # Single-host reference in its own cache universe.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-single"))
    single_store = CampaignStore(spec.name, tmp_path / "campaigns-single")
    _scheduler(spec, single_store).run()
    single = render_campaign(spec.name, store=single_store,
                             out_dir=str(tmp_path / "artifacts-single"))

    # Distributed run in a fresh universe: static shard 0/2, then a dynamic
    # worker claims whatever remains and finalizes.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-dist"))
    dist_store = CampaignStore(spec.name, tmp_path / "campaigns-dist")
    _scheduler(spec, dist_store).run_shard(0, 2)
    summary = _scheduler(spec, dist_store).run_worker(
        owner="memsys-worker", batch_size=4, poll_seconds=0.05)
    assert summary["complete"] and summary.get("finalized")
    distributed = render_campaign(spec.name, store=dist_store,
                                  out_dir=str(tmp_path / "artifacts-dist"))

    assert sorted(p.name for p in single) == sorted(p.name for p in distributed)
    for ref, got in zip(sorted(single), sorted(distributed)):
        assert got.read_bytes() == ref.read_bytes(), f"{ref.name} differs"
