"""Fleet dispatch end-to-end: render, submit, converge, merge, byte-diff.

The PR 9 acceptance surface:

* ``--dry-run`` renders one self-contained job script per host (SLURM
  scripts carry ``#SBATCH`` directives and the exit-sentinel trap) and
  submits nothing;
* a ``memsys:*`` campaign dispatched with ``--backend process_pool
  --hosts 2`` runs both shard hosts on the shared cache root, converges
  and produces artifacts byte-identical to a single-host run;
* over-provisioned fleets (hosts > cells) dispatch empty shards that
  converge and merge cleanly;
* worker-claim dispatch (lease arbitration on the shared root) converges;
* both claim modes export the one shared root and make no per-host roots;
  one shard host's cells read back there as soon as it exits, a torn
  entry there is quarantined and re-simulated by its shard, and a host's
  exit code is its ``repro run``'s;
* the ``repro dispatch`` CLI surface reports plans as JSON;
* the ``process_pool`` backend polls a job script to its exit and records
  its exit status and log, refuses a missing script and terminates
  running jobs; the ``slurm`` backend submits through ``sbatch`` and reads
  exit codes from the sentinel.

These tests spawn real subprocess workers (the process-pool backend), so
they are the slowest in the campaign suite — each one is a genuine
multi-process fleet rehearsal.
"""

from __future__ import annotations

import json
import os
import re
import time

import pytest

from repro.campaign.cli import main
from repro.campaign.fabric.backends import (
    BackendError, SlurmBackend, get_backend,
)
from repro.campaign.fabric.dispatch import DispatchError, Dispatcher, HostJob
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec, variants
from repro.campaign.store import CampaignStore
from repro.experiments.cache import (
    QUARANTINE_DIR, ResultDiskCache, encode_entry, read_entry, salted_key,
)
from repro.experiments.fingerprint import code_salt

WINDOW = dict(warmup_instructions=1500, timed_instructions=1500)

#: Generous per-dispatch convergence budget; a healthy fleet finishes in
#: a fraction of this, a wedged one fails the test instead of hanging CI.
TIMEOUT = 300.0


def _fig_spec(name: str = "fabric-fig") -> CampaignSpec:
    return CampaignSpec(
        name=name,
        title="Fabric dispatch test campaign",
        experiment="repro.experiments.fig10_energy",
        workloads=("libquantum",),
        variants=variants(
            dict(name="bl", kind="baseline"),
            dict(name="dla", kind="dla", dla_preset="dla"),
            dict(name="r3", kind="dla", dla_preset="r3"),
        ),
        **WINDOW,
    )


def _memsys_spec(name: str = "memsys:ci") -> CampaignSpec:
    """A CI-sized ``memsys:*`` campaign: the full 14-variant machine
    matrix (the experiment module assembles over all of it at merge time)
    on one workload with smoke-sized windows."""
    from repro.experiments.memsys_sweep import CAMPAIGN

    return CampaignSpec(
        name=name,
        title="Memory-backend machines — CI dispatch rehearsal",
        experiment="repro.experiments.memsys_sweep",
        workloads=("libquantum",),
        variants=CAMPAIGN.variants,
        **WINDOW,
    )


def _write_spec(tmp_path, spec: CampaignSpec) -> str:
    spec_file = tmp_path / f"{spec.name.replace(':', '_')}.json"
    spec_file.write_text(json.dumps([spec.to_dict()]))
    return str(spec_file)


@pytest.fixture()
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared"))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _exports_shared_root(job, shared) -> bool:
    return (f'export REPRO_CACHE_DIR="{shared}"\n'
            in job.script_path.read_text())


def _artifact_bytes(directory):
    """name -> bytes for every artifact file under ``directory``."""
    return {path.name: path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def _single_host_reference(tmp_path, monkeypatch, spec_file, name,
                           out_dir) -> None:
    """Run the same campaign single-host in its own cache universe."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "single-cache"))
    assert main(["run", name, "--spec", spec_file, "--quick",
                 "--processes", "1", "--out", str(out_dir)]) == 0


# ---------------------------------------------------------------------------
# planning / dry run
# ---------------------------------------------------------------------------
def test_dry_run_renders_slurm_scripts_without_submitting(isolated):
    spec = _fig_spec()
    plan = Dispatcher(spec, backend="slurm", hosts=3, processes=4,
                      progress=None).dispatch(dry_run=True)
    assert len(plan.jobs) == 3
    assert plan.cells_planned == 3
    for index, job in enumerate(plan.jobs):
        script = job.script_path.read_text()
        assert script.startswith("#!/bin/bash")
        assert "#SBATCH --job-name=" in script
        assert "#SBATCH --cpus-per-task=4\n" in script
        assert "--processes 4" in script
        assert f"--shard {index}/3" in script
        assert f'> "{job.sentinel_path}"' in script          # EXIT trap
        assert _exports_shared_root(job, isolated / "shared")
        assert not re.search(r"\bsync\b", script)
        assert not job.log_path.exists()                     # nothing ran
        assert job.job_id is None
    # The shared manifest was prepared, so status is meaningful pre-run.
    status = CampaignStore(spec.name).status()
    assert status["cells_planned"] == 3 and status["cells_done"] == 0


def test_worker_claim_scripts_run_one_process(isolated):
    """A worker simulates its claimed cells one at a time: its job passes
    no ``--processes`` and asks SLURM for one CPU."""
    plan = Dispatcher(_fig_spec(), backend="slurm", hosts=2, claim="worker",
                      progress=None).dispatch(dry_run=True)
    for job in plan.jobs:
        script = job.script_path.read_text()
        assert "--worker" in script
        assert "--processes" not in script
        assert "#SBATCH --cpus-per-task=1\n" in script


def test_dispatch_rejects_bad_plans(isolated):
    spec = _fig_spec()
    with pytest.raises(DispatchError):
        Dispatcher(spec, hosts=0)
    with pytest.raises(DispatchError):
        Dispatcher(spec, claim="steal")
    with pytest.raises(DispatchError, match="processes"):
        Dispatcher(spec, claim="worker", processes=2)
    with pytest.raises(Exception):
        Dispatcher(spec, backend="kubernetes", progress=None).dispatch()


def test_unconverged_fleet_names_a_code_salt_mismatch(isolated):
    """Jobs that all exit 0 but leave cells pending whose entries sit under
    another code salt (``src/`` changed mid-dispatch) get that named, with
    both salts."""
    spec = _fig_spec()
    dispatcher = Dispatcher(spec, hosts=2, progress=None)
    plan = dispatcher.dispatch(dry_run=True)
    for job in plan.jobs:
        job.returncode = 0
    with pytest.raises(DispatchError) as plain:
        dispatcher._check_converged(plan)
    assert "all jobs exited 0" in str(plain.value)
    assert "code salt" not in str(plain.value)

    key, done = list(CampaignStore(spec.name).load_manifest()["cells"])[:2]
    foreign = "0123456789abcdef"
    (dispatcher.shared_root / f"{foreign}-{key}.pkl").write_bytes(b"entry")
    # A cell done under this process's salt is not counted.
    (dispatcher.shared_root / f"{foreign}-{done}.pkl").write_bytes(b"entry")
    ResultDiskCache(str(dispatcher.shared_root)).put(salted_key(done), 1)
    with pytest.raises(DispatchError) as mismatch:
        dispatcher._check_converged(plan)
    message = str(mismatch.value)
    assert "1/3 cells done, 2 pending" in message
    assert ("1 pending cell(s) have a cache entry under another code salt "
            f"({foreign}; this process runs {code_salt()})") in message
    assert "src/" in message


@pytest.mark.parametrize("claim", ["shard", "worker"])
def test_every_claim_mode_runs_on_the_one_shared_root(isolated, claim):
    plan = Dispatcher(_fig_spec(), backend="slurm", hosts=2, claim=claim,
                      progress=None).dispatch(dry_run=True)
    assert plan.shared_root == isolated / "shared"
    assert all(_exports_shared_root(job, plan.shared_root)
               for job in plan.jobs)
    assert not (plan.fabric_dir / "hosts").exists()
    assert all("cache_root" not in job for job in plan.to_dict()["jobs"])


def _job(directory, stem):
    return HostJob(index=0, script_path=directory / f"{stem}.sh",
                   log_path=directory / f"{stem}.log",
                   sentinel_path=directory / f"{stem}.exit")


def _poll_to_exit(backend, job):
    deadline = time.monotonic() + TIMEOUT
    while backend.poll(job) is None:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    return job.returncode


def test_process_pool_backend_polls_script_to_completion(tmp_path):
    backend = get_backend("process_pool")
    failing = _job(tmp_path, "host-0")
    failing.script_path.write_text("echo pool-backend-ran\nexit 3\n")
    backend.submit(failing)
    assert _poll_to_exit(backend, failing) == 3
    assert backend.poll(failing) == 3
    assert "pool-backend-ran" in failing.log_path.read_text()

    with pytest.raises(BackendError):
        backend.submit(_job(tmp_path, "missing"))


def test_process_pool_terminate_stops_running_jobs(tmp_path):
    backend = get_backend("process_pool")
    job = _job(tmp_path, "host-0")
    job.script_path.write_text("exec sleep 60\n")
    backend.submit(job)
    (proc, _log), = backend._procs.values()
    backend.terminate()
    assert proc.wait(timeout=10) != 0
    with pytest.raises(BackendError, match="unknown job"):
        backend.poll(job)


def _fake_sbatch(directory, body):
    sbatch = directory / "sbatch"
    sbatch.write_text("#!/bin/bash\n" + body)
    sbatch.chmod(0o755)
    return str(sbatch)


def test_slurm_backend_submits_through_sbatch_and_polls_the_sentinel(
        tmp_path):
    calls = tmp_path / "calls"
    backend = SlurmBackend(sbatch=_fake_sbatch(
        tmp_path, f'echo "$@" >> "{calls}"\necho "4242;cluster-a"\n'))
    job = _job(tmp_path, "host-0")
    job.script_path.write_text("exit 0\n")
    job.sentinel_path.write_text("0")       # an earlier submission's
    backend.submit(job)
    assert job.job_id == "4242"
    assert calls.read_text() == f"--parsable {job.script_path}\n"
    assert backend.poll(job) is None        # the stale sentinel is gone
    job.sentinel_path.write_text("3")
    assert backend.poll(job) == 3 and job.returncode == 3

    empty = _job(tmp_path, "host-1")
    empty.script_path.write_text("exit 0\n")
    backend.submit(empty)
    empty.sentinel_path.write_text("")      # killed before its trap wrote
    assert backend.poll(empty) == 1


def test_slurm_backend_reports_an_sbatch_failure(tmp_path):
    backend = SlurmBackend(sbatch=_fake_sbatch(
        tmp_path, 'echo "sbatch: error: invalid partition" >&2\nexit 1\n'))
    job = _job(tmp_path, "host-0")
    job.script_path.write_text("exit 0\n")
    with pytest.raises(BackendError, match="invalid partition"):
        backend.submit(job)
    assert job.job_id is None


def test_cli_dry_run_reports_plan_json(isolated, tmp_path, capsys):
    spec_file = _write_spec(tmp_path, _fig_spec(name="fabric-cli"))
    assert main(["dispatch", "fabric-cli", "--spec", spec_file,
                 "--backend", "slurm", "--hosts", "2",
                 "--dry-run", "--json"]) == 0
    out = capsys.readouterr().out
    plan = json.loads(out[out.index("{"):])
    assert plan["backend"] == "slurm" and plan["hosts"] == 2
    assert plan["campaign"] == "fabric-cli"
    assert len(plan["jobs"]) == 2
    assert all(os.path.exists(job["script"]) for job in plan["jobs"])


# ---------------------------------------------------------------------------
# real fleets (process-pool backend, subprocess workers)
# ---------------------------------------------------------------------------
def test_overprovisioned_fleet_matches_single_host(isolated, tmp_path,
                                                   monkeypatch):
    """4 hosts, 3 cells: the surplus host draws an empty shard, the fleet
    still converges, and the merged artifacts are byte-identical to a
    single-host run in a separate cache universe."""
    spec = _fig_spec()
    spec_file = _write_spec(tmp_path, spec)
    out_fleet = tmp_path / "artifacts-fleet"
    plan = Dispatcher(
        spec, backend="process_pool", hosts=4, spec_file=spec_file,
        timeout=TIMEOUT, progress=None,
    ).dispatch(out_dir=str(out_fleet))
    assert all(job.returncode == 0 for job in plan.jobs)
    status = CampaignStore(spec.name).status()
    assert status["cells_done"] == 3 and status["cells_pending"] == 0

    out_single = tmp_path / "artifacts-single"
    _single_host_reference(tmp_path, monkeypatch, spec_file, spec.name,
                           out_single)
    fleet = _artifact_bytes(out_fleet)
    single = _artifact_bytes(out_single)
    assert fleet and set(fleet) == set(single)
    assert fleet == single


def test_memsys_two_host_dispatch_matches_single_host(isolated, tmp_path,
                                                      monkeypatch):
    """A ``memsys:*`` campaign via ``repro dispatch --backend process_pool
    --hosts 2``: both shard hosts run on the shared root, every planned
    cell lands there, and the artifacts are byte-identical to
    single-host."""
    spec = _memsys_spec()
    spec_file = _write_spec(tmp_path, spec)
    out_fleet = tmp_path / "artifacts-fleet"
    plan = Dispatcher(
        spec, backend="process_pool", hosts=2, spec_file=spec_file,
        timeout=TIMEOUT, progress=None,
    ).dispatch(out_dir=str(out_fleet))
    assert all(job.returncode == 0 for job in plan.jobs)
    # Shard claim writes the shared root directly: no per-host roots.
    shared = tmp_path / "shared"
    assert plan.shared_root == shared
    assert all(_exports_shared_root(job, shared) for job in plan.jobs)
    assert not (plan.fabric_dir / "hosts").exists()
    cache = ResultDiskCache(str(shared))
    cells = CampaignStore(spec.name).load_manifest()["cells"]
    assert len(cells) == plan.cells_planned
    assert all(cache.get(salted_key(key)) is not None for key in cells)

    out_single = tmp_path / "artifacts-single"
    _single_host_reference(tmp_path, monkeypatch, spec_file, spec.name,
                           out_single)
    fleet = _artifact_bytes(out_fleet)
    assert fleet and fleet == _artifact_bytes(out_single)


def test_one_shard_host_lands_exactly_its_cells_in_the_shared_root(
        isolated, tmp_path):
    """Host 0's script alone: its shard's cells read back from the shared
    root as soon as it exits, and status counts the other shard pending."""
    spec = _fig_spec(name="fabric-one-host")
    spec_file = _write_spec(tmp_path, spec)
    plan = Dispatcher(spec, backend="process_pool", hosts=2,
                      spec_file=spec_file, progress=None).plan()
    backend = get_backend("process_pool")
    backend.submit(plan.jobs[0])
    assert _poll_to_exit(backend, plan.jobs[0]) == 0

    scheduler = CampaignScheduler(spec, store=CampaignStore(spec.name))
    mine = [key for key, _request in scheduler.shard_cells(0, 2)]
    theirs = [key for key, _request in scheduler.shard_cells(1, 2)]
    assert mine and theirs
    cache = ResultDiskCache(str(plan.shared_root))
    assert all(cache.get(salted_key(key)) is not None for key in mine)
    assert all(cache.get(salted_key(key)) is None for key in theirs)
    status = CampaignStore(spec.name).status()
    assert status["cells_done"] == len(mine)
    assert status["cells_pending"] == len(theirs)


def test_a_failing_host_fails_the_dispatch_with_its_run_exit_code(isolated):
    """The job script's exit code is its ``repro run``'s: a host that cannot
    load its campaign (no spec file, unregistered name) exits 2, and the
    dispatch names it instead of converging."""
    spec = _fig_spec(name="fabric-unregistered")
    dispatcher = Dispatcher(spec, backend="process_pool", hosts=1,
                            poll_seconds=0.05, timeout=TIMEOUT,
                            progress=None)
    with pytest.raises(DispatchError, match="host-0 exited 2"):
        dispatcher.dispatch()
    log = (dispatcher.shared_root / "fabric" / spec.name / "jobs"
           / "host-0.log").read_text()
    assert "unknown campaign 'fabric-unregistered'" in log


def test_a_torn_shared_cell_is_quarantined_and_resimulated_by_its_shard(
        isolated, tmp_path):
    """A shard host rerun over a torn entry of its own in the shared root
    moves it to quarantine, never reads it, and lands the cell again."""
    spec = _fig_spec(name="fabric-torn")
    spec_file = _write_spec(tmp_path, spec)
    run = ["run", spec.name, "--spec", spec_file, "--quick",
           "--processes", "1", "--shard"]
    assert main(run + ["0/2"]) == 0
    shared = tmp_path / "shared"
    scheduler = CampaignScheduler(spec, store=CampaignStore(spec.name))
    key = scheduler.shard_cells(0, 2)[0][0]
    entry = shared / f"{salted_key(key)}.pkl"
    frame = encode_entry(read_entry(entry))
    entry.unlink()                  # leave the pack's other names intact
    entry.write_bytes(frame[:-3])

    assert main(run + ["0/2"]) == 0
    assert (shared / QUARANTINE_DIR / entry.name).read_bytes() == frame[:-3]
    assert read_entry(entry) is not None
    assert main(run + ["1/2"]) == 0
    status = CampaignStore(spec.name).status()
    assert status["cells_done"] == 3 and status["cells_pending"] == 0
    assert status["quarantined"] == 1


def test_worker_claim_dispatch_converges(isolated, tmp_path):
    """Lease-arbitrated claiming straight on the shared root: two worker
    hosts race through the same store and every cell lands exactly once."""
    spec = _fig_spec(name="fabric-worker")
    spec_file = _write_spec(tmp_path, spec)
    out_dir = tmp_path / "artifacts"
    plan = Dispatcher(
        spec, backend="process_pool", hosts=2, claim="worker",
        spec_file=spec_file, ttl=30.0, timeout=TIMEOUT, progress=None,
    ).dispatch(out_dir=str(out_dir))
    assert all(job.returncode == 0 for job in plan.jobs)
    assert all(_exports_shared_root(job, plan.shared_root)
               for job in plan.jobs)
    status = CampaignStore(spec.name).status()
    assert status["cells_done"] == 3 and status["cells_pending"] == 0
    assert any(out_dir.rglob("*.json"))
