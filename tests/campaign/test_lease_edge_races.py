"""Lease edge cases: TTL-boundary claims, renew-vs-reclaim races, dead
workers whose cells a survivor must re-run exactly once."""

from __future__ import annotations

import threading
import time

import pytest

from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec, variants
from repro.campaign.store import CampaignStore

WINDOW = dict(warmup_instructions=1500, timed_instructions=1500)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    path = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
    monkeypatch.setenv("REPRO_DISK_CACHE", "1")
    return path


def _store(tmp_path) -> CampaignStore:
    return CampaignStore("lease-races", tmp_path / "campaigns")


# ---------------------------------------------------------------------------
# TTL boundary
# ---------------------------------------------------------------------------
def test_expired_lease_is_claimable_right_after_the_boundary(tmp_path):
    store = _store(tmp_path)
    assert store.claim_cells(["cell"], "owner-a", ttl=0.05) == ["cell"]
    # Before expiry the cell is off limits — to everyone, owner included.
    assert store.claim_cells(["cell"], "owner-b", ttl=60.0) == []
    assert store.claim_cells(["cell"], "owner-a", ttl=60.0) == []
    time.sleep(0.06)
    # One tick past the boundary the claim goes through...
    assert store.claim_cells(["cell"], "owner-b", ttl=60.0) == ["cell"]
    # ...and the original owner's renew reports the lease lost rather than
    # resurrecting it over the new owner's claim.
    assert store.renew_leases(["cell"], "owner-a", ttl=60.0) == 0
    assert store.read_lease("cell")["owner"] == "owner-b"


def test_renew_before_the_boundary_keeps_ownership(tmp_path):
    store = _store(tmp_path)
    store.claim_cells(["cell"], "owner-a", ttl=0.2)
    assert store.renew_leases(["cell"], "owner-a", ttl=60.0) == 1
    time.sleep(0.25)                  # past the *original* expiry
    assert store.claim_cells(["cell"], "owner-b", ttl=60.0) == []
    assert store.read_lease("cell")["owner"] == "owner-a"


# ---------------------------------------------------------------------------
# renew vs reclaim
# ---------------------------------------------------------------------------
def test_renew_backs_off_while_a_reclaimer_holds_the_steal_lock(tmp_path):
    store = _store(tmp_path)
    store.claim_cells(["cell"], "owner-a", ttl=60.0)
    # A reclaimer is mid-steal: read-check-unlink serialised by the lock.
    assert store._acquire_steal("cell", "reclaimer")
    try:
        # The renew must not run its read-check-rewrite concurrently — it
        # skips (the lease is still live, so nothing is lost) rather than
        # risk resurrecting a lease the reclaimer is about to remove.
        assert store.renew_leases(["cell"], "owner-a", ttl=60.0) == 0
    finally:
        store._release_steal("cell")
    assert store.renew_leases(["cell"], "owner-a", ttl=60.0) == 1


def test_racing_reclaimers_exactly_one_wins(tmp_path):
    store = _store(tmp_path)
    store.claim_cells(["cell"], "dead-worker", ttl=0.01)
    time.sleep(0.05)                  # lease is stale for everyone

    winners: list = []
    barrier = threading.Barrier(8)

    def reclaim(index: int) -> None:
        barrier.wait()
        if store.claim_cells(["cell"], f"claimer-{index}", ttl=60.0):
            winners.append(index)

    threads = [threading.Thread(target=reclaim, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert len(winners) == 1
    assert store.read_lease("cell")["owner"] == f"claimer-{winners[0]}"
    # The critical section cleaned up after itself.
    assert not list(store.leases_path.glob("*.steal"))


#: Phase 1's lease TTL in seconds: renewed every 10 ms, it outlasts any
#: stall of the renewing thread short of the deliberate one in phase 2.
PHASE1_TTL = 1.0


def test_renewing_owner_vs_reclaimers_never_two_owners(tmp_path):
    """Stress the renew/steal critical section across an expiry boundary:
    an owner renews a short-TTL lease in a tight loop while reclaimers keep
    trying to claim; then the owner stalls past the TTL (a GC pause, a slow
    cell) and the reclaimers steal.  Whatever the interleaving, the cell
    must end with exactly one live lease — and once a reclaimer has won,
    the owner's renew must keep reporting the lease as lost (never
    resurrect it over the thief)."""
    store = _store(tmp_path)
    store.claim_cells(["cell"], "owner-a", ttl=PHASE1_TTL)
    stolen = threading.Event()
    done = threading.Event()

    def reclaimer(index: int) -> None:
        while not done.is_set() and not stolen.is_set():
            if store.claim_cells(["cell"], f"claimer-{index}", ttl=60.0):
                stolen.set()
            time.sleep(0.002)

    threads = [threading.Thread(target=reclaimer, args=(i,)) for i in range(3)]
    for thread in threads:
        thread.start()
    try:
        # Phase 1: a healthy owner renewing inside the TTL keeps the lease
        # against any number of reclaimers, for long enough that the lease
        # would lapse twice without the renewals.
        deadline = time.monotonic() + 2.5 * PHASE1_TTL
        while time.monotonic() < deadline:
            store.renew_leases(["cell"], "owner-a", ttl=PHASE1_TTL)
            time.sleep(0.01)
        assert not stolen.is_set()
        assert store.read_lease("cell")["owner"] == "owner-a"

        # Phase 2: the owner stalls past the TTL; a reclaimer must win.
        assert stolen.wait(timeout=5.0)
        # The stalled owner wakes up and tries to renew: always lost.
        for _ in range(10):
            assert store.renew_leases(["cell"], "owner-a", ttl=60.0) == 0
            time.sleep(0.002)
    finally:
        done.set()
        for thread in threads:
            thread.join()

    lease = store.read_lease("cell")
    assert lease is not None and lease["owner"].startswith("claimer-")
    assert not list(store.leases_path.glob("*.steal"))


# ---------------------------------------------------------------------------
# claim-then-die worker
# ---------------------------------------------------------------------------
def test_dead_workers_cells_rerun_exactly_once_by_survivor(cache_dir, tmp_path):
    spec = CampaignSpec(
        name="lease-races",
        title="Lease race campaign",
        experiment="repro.experiments.fig10_energy",
        workloads=("libquantum",),
        variants=variants(
            dict(name="bl", kind="baseline"),
            dict(name="dla", kind="dla", dla_preset="dla"),
            dict(name="r3", kind="dla", dla_preset="r3"),
        ),
        **WINDOW,
    )
    store = CampaignStore(spec.name, tmp_path / "campaigns")
    scheduler = CampaignScheduler(spec, store=store, processes=1)
    # A worker claims every cell, then dies before simulating anything —
    # no release, no results, just leases with a short TTL left behind.
    keys = [key for key, _request in scheduler.keyed_cells()]
    assert store.claim_cells(keys, "dead-worker", ttl=0.05) == keys
    time.sleep(0.06)

    survivor = CampaignScheduler(spec, store=store, processes=1)
    summary = survivor.run_worker(owner="survivor", ttl=60.0,
                                  poll_seconds=0.05, finalize=False)
    assert summary["complete"]
    # Exactly once each: one simulation per cell, none double-run.
    assert survivor.runner.stats.simulations == len(keys)
    assert not store.leases()          # everything released on completion
