"""Fleet dispatch end-to-end: render, submit, converge, merge, byte-diff.

The PR 9 acceptance surface:

* ``--dry-run`` renders one self-contained job script per host (SLURM
  scripts carry ``#SBATCH`` directives and the exit-sentinel trap) and
  submits nothing;
* a ``memsys:*`` campaign dispatched with ``--backend process_pool
  --hosts 2`` over two isolated cache roots converges and produces
  artifacts byte-identical to a single-host run;
* over-provisioned fleets (hosts > cells) dispatch empty shards that
  converge and merge cleanly;
* worker-claim dispatch (lease arbitration on the shared root) converges;
* the ``repro dispatch`` CLI surface reports plans as JSON.
* the ``local`` backend runs a job script to completion and records its
  exit status and log, and refuses a missing script.

These tests spawn real subprocess workers (the process-pool backend), so
they are the slowest in the campaign suite — each one is a genuine
multi-process fleet rehearsal.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign.cli import main
from repro.campaign.fabric.dispatch import DispatchError, Dispatcher, HostJob
from repro.campaign.spec import CampaignSpec, variants
from repro.campaign.store import CampaignStore
from repro.experiments.cache import ResultDiskCache, salted_key
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
        assert f'export REPRO_CACHE_DIR="{job.cache_root}"' in script
        assert "sync pull" in script and "sync push" in script
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


def test_local_backend_runs_script_to_completion(tmp_path):
    from repro.campaign.fabric.backends import BackendError, get_backend

    def job(stem):
        return HostJob(index=0, script_path=tmp_path / f"{stem}.sh",
                       log_path=tmp_path / f"{stem}.log",
                       sentinel_path=tmp_path / f"{stem}.exit",
                       cache_root=tmp_path / "cache")

    backend = get_backend("local")
    failing = job("host-0")
    failing.script_path.write_text("echo local-backend-ran\nexit 3\n")
    backend.submit(failing)
    assert failing.returncode == 3
    assert backend.poll(failing) == 3
    assert failing.job_id == "local-host-0"
    assert "local-backend-ran" in failing.log_path.read_text()

    with pytest.raises(BackendError):
        backend.submit(job("missing"))


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
    """The acceptance criterion verbatim: a ``memsys:*`` campaign via
    ``repro dispatch --backend process_pool --hosts 2`` with two separate
    cache roots converges with artifacts byte-identical to single-host."""
    spec = _memsys_spec()
    spec_file = _write_spec(tmp_path, spec)
    out_fleet = tmp_path / "artifacts-fleet"
    plan = Dispatcher(
        spec, backend="process_pool", hosts=2, spec_file=spec_file,
        timeout=TIMEOUT, progress=None,
    ).dispatch(out_dir=str(out_fleet))
    assert all(job.returncode == 0 for job in plan.jobs)
    # Shard claim = genuinely separate cache roots per host.
    roots = {str(job.cache_root) for job in plan.jobs}
    assert len(roots) == 2
    shared = str(tmp_path / "shared")
    assert all(root != shared for root in roots)

    out_single = tmp_path / "artifacts-single"
    _single_host_reference(tmp_path, monkeypatch, spec_file, spec.name,
                           out_single)
    fleet = _artifact_bytes(out_fleet)
    assert fleet and fleet == _artifact_bytes(out_single)


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
    assert all(job.cache_root == plan.shared_root for job in plan.jobs)
    status = CampaignStore(spec.name).status()
    assert status["cells_done"] == 3 and status["cells_pending"] == 0
    assert any(out_dir.rglob("*.json"))
