"""Sharded campaign execution: store-level leases, static shards, workers.

Covers the ISSUE 4 acceptance surface:

* lease primitives — atomic claim, live-lease exclusion, renew, release,
  stale reclaim;
* ``--shard i/N`` static partitions are disjoint and exhaustive for several
  N (both the generic name partition and the scheduler's cell partition);
* two concurrent workers on one campaign complete every cell exactly once;
* a worker killed mid-lease has its cells reclaimed after TTL and finished
  by a survivor;
* shard 0/2 + shard 1/2 + merge produces artifacts byte-identical to a
  single-host run;
* ``repro status --json`` reports machine-readable done/leased/pending.
"""

from __future__ import annotations

import importlib
import json
import threading
import time

import pytest

from repro.campaign.cli import main
from repro.campaign.scheduler import CampaignIncomplete, CampaignScheduler
from repro.campaign.spec import CampaignSpec, variants
from repro.campaign.store import MANIFEST_SCHEMA, CampaignStore
from repro.campaign.telemetry import load_events
from repro.experiments.parallel import ParallelExperimentRunner
from repro.util.sharding import ShardError, parse_shard, partition

WINDOW = dict(warmup_instructions=1500, timed_instructions=1500)


def _spec(name: str = "shard-test", workloads=("libquantum",)) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        title="Sharding test campaign",
        experiment="repro.experiments.fig10_energy",
        workloads=tuple(workloads),
        variants=variants(
            dict(name="bl", kind="baseline"),
            dict(name="dla", kind="dla", dla_preset="dla"),
            dict(name="r3", kind="dla", dla_preset="r3"),
        ),
        **WINDOW,
    )


def _figure_spec(module: str) -> CampaignSpec:
    """Figure ``module``'s own campaign, on libquantum with short windows."""
    spec = importlib.import_module(f"repro.experiments.{module}").CAMPAIGN
    return CampaignSpec.from_dict(
        {**spec.to_dict(), "workloads": ["libquantum"], **WINDOW})


def _runner(spec: CampaignSpec) -> ParallelExperimentRunner:
    return ParallelExperimentRunner(
        quick=True, workload_names=spec.resolve_workloads(),
        warmup_instructions=spec.warmup_instructions,
        timed_instructions=spec.timed_instructions,
        processes=1,
    )


def _scheduler(spec, store) -> CampaignScheduler:
    return CampaignScheduler(spec, store=store, runner=_runner(spec))


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    path = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
    return path


# ---------------------------------------------------------------------------
# shard partition helper
# ---------------------------------------------------------------------------
def test_parse_shard_accepts_and_rejects():
    assert parse_shard("0/2") == (0, 2)
    assert parse_shard(" 3/4 ") == (3, 4)
    for bad in ("2/2", "-1/2", "1", "a/b", "1/0", "1/-2", "1/2/3"):
        with pytest.raises(ShardError):
            parse_shard(bad)


@pytest.mark.parametrize("count", [1, 2, 3, 5, 7])
def test_partition_disjoint_and_exhaustive(count):
    names = [f"cell-{i:03d}" for i in range(23)]
    shards = [partition(names, index, count) for index in range(count)]
    combined = [name for shard in shards for name in shard]
    assert sorted(combined) == sorted(names)           # exhaustive, no dupes
    sizes = sorted(len(shard) for shard in shards)
    assert sizes[-1] - sizes[0] <= 1                   # balanced


def test_partition_independent_of_input_order():
    names = ["b", "c", "a", "d"]
    assert partition(names, 0, 2) == partition(sorted(names), 0, 2)


# ---------------------------------------------------------------------------
# lease primitives (no simulation involved)
# ---------------------------------------------------------------------------
def test_claim_is_exclusive_and_limited(tmp_path):
    store = CampaignStore("leases", tmp_path)
    keys = ["k1", "k2", "k3"]
    assert store.claim_cells(keys, "alice", ttl=60, limit=2) == ["k1", "k2"]
    # Live leases are not claimable by anyone — including their owner.
    assert store.claim_cells(keys, "bob", ttl=60) == ["k3"]
    assert store.claim_cells(keys, "alice", ttl=60) == []
    assert set(store.leases()) == {"k1", "k2", "k3"}
    assert store.leases()["k1"]["owner"] == "alice"


def test_release_only_own_leases(tmp_path):
    store = CampaignStore("leases", tmp_path)
    store.claim_cells(["k1"], "alice", ttl=60)
    assert store.release_leases(["k1"], "bob") == 0
    assert "k1" in store.leases()
    assert store.release_leases(["k1"], "alice") == 1
    assert store.leases() == {}


def test_renew_extends_only_own_leases(tmp_path):
    store = CampaignStore("leases", tmp_path)
    store.claim_cells(["k1", "k2"], "alice", ttl=60)
    before = store.leases()["k1"]["expires_at"]
    time.sleep(0.01)
    assert store.renew_leases(["k1"], "alice", ttl=120) == 1
    assert store.renew_leases(["k2"], "bob", ttl=120) == 0
    assert store.leases()["k1"]["expires_at"] > before


def test_stale_leases_reclaim_and_reclaimed_cells_are_claimable(tmp_path):
    store = CampaignStore("leases", tmp_path)
    store.claim_cells(["k1"], "alice", ttl=0.01)
    store.claim_cells(["k2"], "alice", ttl=60)
    time.sleep(0.05)
    assert store.leases().keys() == {"k2"}             # k1 expired
    # A claim by another worker steals the expired lease directly...
    assert store.claim_cells(["k1", "k2"], "bob", ttl=60) == ["k1"]
    assert store.leases()["k1"]["owner"] == "bob"
    # ...and reclaim_stale sweeps whatever expired without a claimant.
    store.release_leases(["k1"], "bob")
    store.claim_cells(["k3"], "carol", ttl=0.01)
    time.sleep(0.05)
    assert store.reclaim_stale() == ["k3"]
    assert store.leases().keys() == {"k2"}


def test_renew_refuses_expired_lease(tmp_path):
    """An expired lease is lost — renewing it could resurrect a cell a
    reclaimer is stealing right now."""
    store = CampaignStore("leases", tmp_path)
    store.claim_cells(["k1"], "alice", ttl=0.01)
    time.sleep(0.05)
    assert store.renew_leases(["k1"], "alice", ttl=60) == 0
    assert store.claim_cells(["k1"], "bob", ttl=60) == ["k1"]


def test_expired_lease_reclaim_race_single_winner(tmp_path):
    """Racing reclaimers of one expired lease: exactly one wins the steal."""
    store = CampaignStore("leases", tmp_path)
    store.claim_cells(["k1"], "dead-worker", ttl=0.01)
    time.sleep(0.05)
    wins = []
    lock = threading.Lock()

    def reclaimer(owner: str) -> None:
        got = store.claim_cells(["k1"], owner, ttl=60)
        with lock:
            wins.extend(got)

    threads = [threading.Thread(target=reclaimer, args=(f"w{i}",))
               for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert wins == ["k1"]                              # exactly one winner
    assert store.leases()["k1"]["owner"].startswith("w")
    assert not list(store.leases_path.glob("*.steal"))  # locks released


def test_concurrent_claims_never_overlap(tmp_path):
    """N threads racing for the same keys: every key claimed exactly once."""
    store = CampaignStore("leases", tmp_path)
    keys = [f"k{i}" for i in range(20)]
    wins = {}
    lock = threading.Lock()

    def claimer(owner: str) -> None:
        got = store.claim_cells(keys, owner, ttl=60)
        with lock:
            for key in got:
                assert key not in wins, f"{key} claimed twice"
                wins[key] = owner

    threads = [threading.Thread(target=claimer, args=(f"w{i}",)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert sorted(wins) == sorted(keys)


def test_clear_removes_leases(tmp_path):
    store = CampaignStore("leases", tmp_path)
    store.claim_cells(["k1", "k2"], "alice", ttl=60)
    assert store.clear() >= 2
    assert store.leases() == {}
    assert not store.leases_path.exists()


# ---------------------------------------------------------------------------
# static shards
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_shard_cells_disjoint_and_exhaustive(cache_dir, tmp_path, count):
    spec = _spec(workloads=("libquantum", "mcf"))
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    scheduler = _scheduler(spec, store)
    every = {key for key, _request in scheduler.keyed_cells()}
    shards = [
        {key for key, _request in scheduler.shard_cells(index, count)}
        for index in range(count)
    ]
    assert set().union(*shards) == every
    assert sum(len(shard) for shard in shards) == len(every)


def test_shard_run_plus_merge_completes_campaign(cache_dir, tmp_path):
    spec = _spec()
    store = CampaignStore(spec.name, tmp_path / "campaigns")

    # Merging before any cells land must refuse loudly.
    with pytest.raises(CampaignIncomplete):
        _scheduler(spec, store).finalize()

    first = _scheduler(spec, store)
    summary = first.run_shard(0, 2)
    assert summary["shard"] == "0/2"
    assert summary["cells_in_shard"] + 0 < summary["cells_total"]
    assert first.unfinished_cells()                    # other shard remains
    with pytest.raises(CampaignIncomplete):
        _scheduler(spec, store).finalize()

    second = _scheduler(spec, store)
    second.run_shard(1, 2)
    merger = _scheduler(spec, store)
    merged = merger.finalize()
    assert merged["cells_simulated"] == 0              # merge simulates nothing
    assert merger.runner.stats.simulations == 0
    assert store.status()["state"] == "complete"
    # Exactly-once across the shards.
    total = first.runner.stats.simulations + second.runner.stats.simulations
    assert total == len(first.keyed_cells())


@pytest.mark.parametrize("figure", [None, "fig11_smt", "table03_mpki"])
def test_sharded_artifacts_bit_identical_to_single_host(tmp_path, monkeypatch,
                                                       figure):
    """Also for fig11's SMT cells and table03's L1-miss-split cells: the
    shards simulate them, so the merge simulates nothing."""
    spec = _spec() if figure is None else _figure_spec(figure)

    # Single-host reference run in its own cache universe.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-single"))
    single_store = CampaignStore(spec.name, tmp_path / "campaigns-single")
    _scheduler(spec, single_store).run()
    from repro.campaign.render import render_campaign

    single = render_campaign(spec.name, store=single_store,
                             out_dir=str(tmp_path / "artifacts-single"))

    # Sharded run in a fresh cache universe: 0/2 + 1/2 + merge.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-sharded"))
    sharded_store = CampaignStore(spec.name, tmp_path / "campaigns-sharded")
    _scheduler(spec, sharded_store).run_shard(0, 2)
    _scheduler(spec, sharded_store).run_shard(1, 2)
    _scheduler(spec, sharded_store).finalize()
    assert sharded_store.load_result()["run"]["simulations"] == 0
    sharded = render_campaign(spec.name, store=sharded_store,
                              out_dir=str(tmp_path / "artifacts-sharded"))

    assert sorted(p.name for p in single) == sorted(p.name for p in sharded)
    for ref, got in zip(sorted(single), sorted(sharded)):
        assert got.read_bytes() == ref.read_bytes(), f"{ref.name} differs"


# ---------------------------------------------------------------------------
# dynamic workers
# ---------------------------------------------------------------------------
def test_two_concurrent_workers_complete_every_cell_exactly_once(
        cache_dir, tmp_path):
    spec = _spec(workloads=("libquantum", "mcf"))
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    schedulers = [_scheduler(spec, store) for _ in range(2)]
    summaries = {}
    errors = []

    def work(index: int) -> None:
        try:
            summaries[index] = schedulers[index].run_worker(
                owner=f"worker-{index}", ttl=60, batch_size=1,
                poll_seconds=0.02, finalize=False,
            )
        except BaseException as error:  # surface in the main thread
            errors.append(error)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors

    cells = len(schedulers[0].keyed_cells())
    simulated = sum(s.runner.stats.simulations for s in schedulers)
    assert simulated == cells                          # exactly once, total
    assert all(summaries[i]["complete"] for i in range(2))
    assert sum(summaries[i]["cells_claimed"] for i in range(2)) == cells
    assert store.leases() == {}                        # all released
    assert not schedulers[0].unfinished_cells()

    status = store.status()
    assert status["cells_done"] == cells
    assert status["cells_pending"] == 0


def test_worker_hands_back_a_cell_finished_between_screen_and_claim(
        cache_dir, tmp_path):
    """A cell another worker finishes after this worker's screen but before
    its claim is released uncounted, not executed."""
    spec = _spec()
    root = tmp_path / "campaigns"
    late = _scheduler(spec, CampaignStore(spec.name, root))
    early = _scheduler(spec, CampaignStore(spec.name, root))
    first_key = late.keyed_cells()[0][0]
    claim = late.store.claim_cells
    finished_first = []

    def claim_after_the_other_worker(keys, owner, **kwargs):
        if not finished_first:
            # The other worker takes the same first cell, simulates it and
            # releases its lease, all after ``late`` screened it as open.
            early.run_worker(owner="early", ttl=60, batch_size=1,
                             max_cells=1, finalize=False)
            finished_first.append(True)
        return claim(keys, owner, **kwargs)

    late.store.claim_cells = claim_after_the_other_worker
    summary = late.run_worker(owner="late", ttl=60, batch_size=1,
                              poll_seconds=0.02, finalize=False)
    cells = len(late.keyed_cells())

    assert early.runner.stats.simulations == 1
    assert late.runner.stats.simulations == cells - 1
    assert summary["cells_claimed"] == cells - 1
    assert summary["cells_simulated"] == cells - 1
    assert summary["complete"]
    assert late.store.leases() == {}
    assert early.store.read_lease(first_key) is None


def test_killed_worker_cells_reclaimed_after_ttl_and_finished(
        cache_dir, tmp_path):
    spec = _spec()
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    crashed = _scheduler(spec, store)
    manifest = crashed.prepare()
    keys = [key for key, _request in crashed.keyed_cells()]

    # "Kill" a worker mid-lease: it claimed cells with a short TTL and died
    # before simulating anything.
    assert store.claim_cells(keys, "crashed-worker", ttl=0.05, limit=2)
    assert len(store.leases()) == 2
    assert manifest is not None

    # A survivor starting immediately finds those cells leased, polls, and
    # picks them up the moment the TTL expires.
    survivor = _scheduler(spec, store)
    summary = survivor.run_worker(owner="survivor", ttl=60,
                                  batch_size=2, poll_seconds=0.02)
    assert summary["complete"]
    assert summary["cells_claimed"] == len(keys)
    assert survivor.runner.stats.simulations == len(keys)   # all cells, once
    assert store.leases() == {}
    # The survivor finalized: the assembled result is in the store.
    assert store.status()["state"] == "complete"
    # Ownership lives in the journals: the survivor finished every cell.
    finished = [event for event in load_events(store.events_path)
                if event["event"] == "cell.finished"]
    assert sorted(event["key"] for event in finished) == sorted(keys)
    assert {event["owner"] for event in finished} == {"survivor"}


def _count_manifest_writes(monkeypatch):
    """Wrap ``CampaignStore.save_manifest``; the returned list gains the
    manifest's cell count at every write."""
    writes = []
    save = CampaignStore.save_manifest

    def counting_save(self, manifest):
        writes.append(len(manifest["cells"]))
        save(self, manifest)

    monkeypatch.setattr(CampaignStore, "save_manifest", counting_save)
    return writes


@pytest.mark.parametrize("workloads", [("libquantum",),
                                       ("libquantum", "mcf")])
def test_worker_campaign_writes_the_manifest_a_fixed_number_of_times(
        cache_dir, tmp_path, monkeypatch, workloads):
    """The manifest holds the plan, not per-cell progress: a one-cell-batch
    worker writes it when it opens the campaign and when it finalises —
    twice whatever the cell count."""
    spec = _spec(workloads=workloads)
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    writes = _count_manifest_writes(monkeypatch)
    scheduler = _scheduler(spec, store)
    summary = scheduler.run_worker(owner="solo", ttl=60, batch_size=1,
                                   poll_seconds=0.02)
    cells = len(scheduler.keyed_cells())
    assert cells == 3 * len(workloads)
    assert summary["finalized"] and summary["cells_simulated"] == cells
    assert writes == [cells] * 2
    manifest = store.load_manifest()
    assert manifest["schema"] == MANIFEST_SCHEMA == 3
    for info in manifest["cells"].values():
        assert sorted(info) == ["kind", "variant", "workload"]


@pytest.mark.parametrize("finalize", [True, False])
def test_a_converged_worker_writes_the_manifest_as_often_as_run(
        cache_dir, tmp_path, monkeypatch, finalize):
    """A converged worker that finalises records its run once, through the
    assembly, as ``run()`` does; one told not to finalise records the
    worker's own summary instead.  Either way: two writes, like ``run()``."""
    spec = _spec(workloads=("libquantum", "mcf"))
    writes = _count_manifest_writes(monkeypatch)
    _scheduler(spec, CampaignStore(spec.name, tmp_path / "run")).run()
    run_writes = len(writes)
    writes.clear()
    store = CampaignStore(spec.name, tmp_path / "worker")
    summary = _scheduler(spec, store).run_worker(
        owner="solo", ttl=60, batch_size=1, poll_seconds=0.02,
        finalize=finalize)
    assert summary["complete"]
    assert summary.get("finalized", False) == finalize
    assert len(writes) == run_writes == 2
    last_run = store.load_manifest()["last_run"]
    assert last_run.get("worker") == (None if finalize else "solo")


def test_worker_max_cells_stops_early_without_finalizing(cache_dir, tmp_path):
    spec = _spec()
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    scheduler = _scheduler(spec, store)
    summary = scheduler.run_worker(owner="budgeted", ttl=60, batch_size=1,
                                   poll_seconds=0.02, max_cells=1)
    assert summary["cells_claimed"] == 1
    assert not summary["complete"]
    assert "finalized" not in summary
    assert len(scheduler.unfinished_cells()) == len(scheduler.keyed_cells()) - 1


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
@pytest.fixture()
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write_spec(tmp_path) -> str:
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps([_spec(name="cli-shard").to_dict()]))
    return str(spec_file)


def test_cli_shard_merge_status_json_cycle(isolated, tmp_path, capsys):
    spec_file = _write_spec(tmp_path)

    # Merge before cells land: loud failure.
    assert main(["run", "--spec", str(spec_file), "--shard", "0/2",
                 "--out", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    assert main(["merge", "cli-shard"]) == 1
    assert "cells not simulated" in capsys.readouterr().err

    # Status is machine-readable mid-campaign.
    assert main(["status", "cli-shard", "--json"]) == 0
    status = json.loads(capsys.readouterr().out)["cli-shard"]
    assert status["state"] == "partial"
    assert status["cells_done"] > 0
    assert status["cells_pending"] > 0
    assert status["cells_done"] + status["cells_pending"] == status["cells_planned"]

    # Remaining shard + merge completes and renders.
    assert main(["run", "--spec", str(spec_file), "--shard", "1/2"]) == 0
    capsys.readouterr()
    assert main(["merge", "cli-shard", "--out", str(tmp_path / "a")]) == 0
    assert (tmp_path / "a" / "cli-shard" / "cli-shard.md").exists()
    capsys.readouterr()
    assert main(["status", "cli-shard", "--json"]) == 0
    status = json.loads(capsys.readouterr().out)["cli-shard"]
    assert status["state"] == "complete"
    assert status["cells_pending"] == 0
    assert status["cells_leased"] == 0


def test_cli_worker_mode_runs_to_completion_and_renders(isolated, tmp_path,
                                                        capsys):
    spec_file = _write_spec(tmp_path)
    assert main(["run", "--spec", str(spec_file), "--worker",
                 "--owner", "cli-worker", "--out", str(tmp_path / "a")]) == 0
    out = capsys.readouterr().out
    assert "worker cli-worker" in out
    assert (tmp_path / "a" / "cli-shard" / "cli-shard.md").exists()
    assert main(["status", "cli-shard", "--json"]) == 0
    status = json.loads(capsys.readouterr().out)["cli-shard"]
    assert status["state"] == "complete"


def test_cli_rejects_bad_shard_spec(isolated, tmp_path):
    spec_file = _write_spec(tmp_path)
    assert main(["run", "--spec", str(spec_file), "--shard", "2/2"]) == 2


def test_cli_merge_accepts_spec_file_for_fresh_process(isolated, tmp_path,
                                                       capsys, monkeypatch):
    """The fan-in process of a --spec campaign must be able to register the
    spec itself (the sharded runs may have happened on other hosts)."""
    spec_file = _write_spec(tmp_path)
    assert main(["run", "--spec", str(spec_file), "--shard", "0/2"]) == 0
    assert main(["run", "--spec", str(spec_file), "--shard", "1/2"]) == 0
    capsys.readouterr()

    # Simulate a fresh process: wipe the in-process registry.
    import repro.campaign.registry as registry

    monkeypatch.setattr(registry, "_REGISTRY", {})
    monkeypatch.setattr(registry, "_BUILTINS_LOADED", False)
    assert main(["merge", "cli-shard"]) == 2           # unknown without --spec
    capsys.readouterr()
    assert main(["merge", "--spec", str(spec_file),
                 "--out", str(tmp_path / "m")]) == 0   # names default to file
    assert (tmp_path / "m" / "cli-shard" / "cli-shard.md").exists()


def test_worker_rejects_non_positive_batch(cache_dir, tmp_path):
    spec = _spec()
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    with pytest.raises(ValueError):
        _scheduler(spec, store).run_worker(owner="w", batch_size=0)


def test_cli_status_json_never_run(isolated, capsys):
    assert main(["status", "never-ran-here", "--json"]) == 0
    status = json.loads(capsys.readouterr().out)["never-ran-here"]
    assert status["state"] == "never run"


# ---------------------------------------------------------------------------
# pytest --shard (the CI matrix's test splitter)
# ---------------------------------------------------------------------------
def test_pytest_shard_option_partitions_collection():
    """`pytest --shard i/N` shards are disjoint and exhaustive."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    repo_root = Path(__file__).resolve().parents[2]
    target = "tests/util/test_rng.py"

    def spawn(shard=None):
        cmd = [sys.executable, "-m", "pytest", target, "--collect-only", "-q"]
        if shard:
            cmd += ["--shard", shard]
        return subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                cwd=repo_root,
                                env={**os.environ, "PYTHONPATH": "src"})

    def collect(proc):
        out, err = proc.communicate()
        assert proc.returncode == 0, out + err
        return [line for line in out.splitlines() if "::" in line]

    # Launch the three collections concurrently: interpreter + collection
    # startup dominates and is independent.
    procs = [spawn(), spawn("0/2"), spawn("1/2")]
    every, first, second = (collect(proc) for proc in procs)
    assert first and second
    assert not set(first) & set(second)                # disjoint
    assert sorted(first + second) == sorted(every)     # exhaustive
