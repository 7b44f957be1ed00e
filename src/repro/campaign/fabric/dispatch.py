"""Fleet dispatcher: render host jobs, submit, poll to convergence, merge.

``repro dispatch NAME --backend B --hosts N`` turns one campaign into N
host jobs and runs the whole distributed lifecycle:

1. **prepare** — open the campaign manifest in the *shared* cache root
   (:meth:`~repro.campaign.scheduler.CampaignScheduler.prepare`), so
   status/monitor report meaningful counts from the first poll and the
   sync transport can resolve the campaign's cell keys;
2. **render** — write one self-contained bash job script per host under
   ``<shared>/fabric/<campaign>/jobs/`` (templates module; ``--dry-run``
   stops here);
3. **submit** — hand the scripts to an execution backend
   (:mod:`repro.campaign.fabric.backends`);
4. **poll** — watch job exit codes and the shared store's cell counts
   until every planned cell has landed (or a host fleet dies short);
5. **merge** — finalize + render artifacts exactly once, in the shared
   root, then print the telemetry monitor's fleet summary.

The dispatcher itself emits no journal events and simulates no cells —
workers own execution telemetry, the merge owner journals the assembly —
so a dispatched campaign's artifacts and timeline are byte-for-byte what
a single-host run of the same spec produces (the invariant CI's
``dispatch`` job diffs for).

Claim modes: ``shard`` gives each host an isolated cache root
(``<shared>/fabric/<campaign>/hosts/host-<i>``) plus a static slice of
the cell matrix, syncing through the shared root before and after the
run — survives hosts that share *nothing* but the shared target.
``worker`` points every host at the shared root directly and lets store
leases arbitrate — better load balance when the shared root is a real
shared filesystem.  Hosts > cells is fine in both: an empty shard (or a
worker that never wins a claim) converges trivially.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.campaign.fabric.backends import get_backend
from repro.campaign.fabric.templates import SENTINEL_SUFFIX, render_job_script
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore, DEFAULT_LEASE_TTL
from repro.experiments.cache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR

#: Claim modes a dispatch plan can use (see module docstring).
CLAIM_MODES = ("shard", "worker")

#: Subdirectory of the shared cache root holding fabric state
#: (rendered job scripts, logs, per-host cache roots).
FABRIC_DIR = "fabric"


class DispatchError(RuntimeError):
    """A dispatch that cannot be planned, submitted or converged."""


@dataclass
class HostJob:
    """One host's rendered job and its observed lifecycle."""

    index: int
    script_path: Path
    log_path: Path
    sentinel_path: Path
    cache_root: Path
    job_id: Optional[str] = None
    returncode: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "script": str(self.script_path),
            "log": str(self.log_path),
            "cache_root": str(self.cache_root),
            "job_id": self.job_id,
            "returncode": self.returncode,
        }


@dataclass
class DispatchPlan:
    """Everything a dispatch decided before anything ran."""

    campaign: str
    backend: str
    claim: str
    hosts: int
    quick: bool
    cells_planned: int
    shared_root: Path
    fabric_dir: Path
    jobs: List[HostJob] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "campaign": self.campaign,
            "backend": self.backend,
            "claim": self.claim,
            "hosts": self.hosts,
            "mode": "quick" if self.quick else "full",
            "cells_planned": self.cells_planned,
            "shared_root": str(self.shared_root),
            "fabric_dir": str(self.fabric_dir),
            "jobs": [job.to_dict() for job in self.jobs],
        }


class Dispatcher:
    """Plan and run one campaign across a fleet (see module docstring).

    The shared root is wherever the surrounding environment points the
    disk cache (``REPRO_CACHE_DIR``) — the dispatcher, ``repro status``,
    ``repro monitor`` and the final merge all naturally read the same
    truth, and ``repro dispatch --shared DIR`` is just an env override.
    """

    def __init__(self, spec: CampaignSpec, backend: str = "process_pool",
                 hosts: int = 2, claim: str = "shard", quick: bool = True,
                 spec_file: Optional[str] = None,
                 processes: Optional[int] = None,
                 poll_seconds: float = 1.0, ttl: float = DEFAULT_LEASE_TTL,
                 timeout: Optional[float] = None,
                 time_limit: str = "01:00:00",
                 progress: Optional[Callable[[str], None]] = print) -> None:
        if hosts < 1:
            raise DispatchError(f"hosts must be >= 1 (got {hosts})")
        if claim not in CLAIM_MODES:
            raise DispatchError(
                f"unknown claim mode {claim!r} "
                f"(choose from: {', '.join(CLAIM_MODES)})"
            )
        self.spec = spec
        self.backend_name = backend
        self.hosts = hosts
        self.claim = claim
        self.quick = quick
        self.spec_file = (str(Path(spec_file).resolve())
                          if spec_file else None)
        self.processes = processes
        self.poll_seconds = poll_seconds
        self.ttl = ttl
        self.timeout = timeout
        self.time_limit = time_limit
        self.progress = progress or (lambda line: None)
        self.shared_root = Path(
            os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        ).resolve()
        self.store = CampaignStore(spec.name)

    # ------------------------------------------------------------------
    def _job_env(self, cache_root: Path) -> Dict[str, str]:
        """The environment one host job exports (self-contained scripts)."""
        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        existing = os.environ.get("PYTHONPATH", "")
        if existing and src_dir not in existing.split(os.pathsep):
            src_dir = src_dir + os.pathsep + existing
        env = {
            CACHE_DIR_ENV: str(cache_root),
            "REPRO_DISK_CACHE": "1",
            "PYTHONPATH": src_dir,
        }
        if self.spec.name == "smoke":
            # Every host must exercise the same rotated figure as the
            # dispatcher's plan, even across a midnight boundary.
            from repro.campaign.registry import SMOKE_FIGURE_ENV, smoke_figure
            env[SMOKE_FIGURE_ENV] = smoke_figure()
        for passthrough in ("REPRO_JOURNAL_TTL_DAYS",):
            if os.environ.get(passthrough):
                env[passthrough] = os.environ[passthrough]
        return env

    def plan(self) -> DispatchPlan:
        """Prepare the shared store and render every host's job script."""
        scheduler = CampaignScheduler(self.spec, quick=self.quick,
                                      store=self.store)
        manifest = scheduler.prepare()
        fabric = self.shared_root / FABRIC_DIR / self.spec.name
        jobs_dir = fabric / "jobs"
        jobs_dir.mkdir(parents=True, exist_ok=True)
        plan = DispatchPlan(
            campaign=self.spec.name, backend=self.backend_name,
            claim=self.claim, hosts=self.hosts, quick=self.quick,
            cells_planned=len(manifest.get("cells", {})),
            shared_root=self.shared_root, fabric_dir=fabric,
        )
        for index in range(self.hosts):
            if self.claim == "shard":
                cache_root = fabric / "hosts" / f"host-{index}"
                cache_root.mkdir(parents=True, exist_ok=True)
            else:
                cache_root = self.shared_root
            stem = jobs_dir / f"host-{index}"
            job = HostJob(
                index=index,
                script_path=stem.with_suffix(".sh"),
                log_path=stem.with_suffix(".log"),
                sentinel_path=stem.with_suffix(SENTINEL_SUFFIX),
                cache_root=cache_root,
            )
            script = render_job_script(
                campaign=self.spec.name, claim=self.claim,
                host_index=index, host_count=self.hosts,
                python=sys.executable, shared=str(self.shared_root),
                cache_root=str(cache_root),
                env=self._job_env(cache_root), quick=self.quick,
                spec_file=self.spec_file,
                processes=self.processes or 1,
                owner=f"fabric-{self.spec.name}-host-{index}",
                ttl=self.ttl,
                sbatch=(self.backend_name == "slurm"),
                job_name=f"repro-{self.spec.name}-{index}",
                log_path=str(job.log_path),
                time_limit=self.time_limit,
                sentinel=(str(job.sentinel_path)
                          if self.backend_name == "slurm" else None),
            )
            job.script_path.write_text(script)
            job.script_path.chmod(0o755)
            plan.jobs.append(job)
        return plan

    # ------------------------------------------------------------------
    def _status_line(self, status: Dict[str, object],
                     jobs: List[HostJob]) -> str:
        running = sum(1 for job in jobs if job.returncode is None)
        return (
            f"[{self.spec.name}] fleet: {running}/{len(jobs)} job(s) "
            f"running; cells "
            f"{status.get('cells_done', 0)}/{status.get('cells_planned', 0)} "
            f"done, {status.get('cells_pending', 0)} pending"
            + (f", {status['cells_failed']} FAILED"
               if status.get("cells_failed") else "")
        )

    def _poll(self, backend, plan: DispatchPlan) -> None:
        """Watch jobs + shared cell counts until convergence (or failure)."""
        deadline = (time.monotonic() + self.timeout
                    if self.timeout else None)
        last_line = ""
        while True:
            for job in plan.jobs:
                if job.returncode is None:
                    backend.poll(job)
            status = self.store.status()
            line = self._status_line(status, plan.jobs)
            if line != last_line:
                self.progress(line)
                last_line = line
            if all(job.returncode is not None for job in plan.jobs):
                return
            if deadline is not None and time.monotonic() > deadline:
                if hasattr(backend, "terminate"):
                    backend.terminate()
                raise DispatchError(
                    f"dispatch timed out after {self.timeout:g}s with "
                    f"cells {status.get('cells_done', 0)}/"
                    f"{status.get('cells_planned', 0)} done"
                )
            time.sleep(self.poll_seconds)

    def _check_converged(self, plan: DispatchPlan) -> Dict[str, object]:
        status = self.store.status()
        failed_jobs = [job for job in plan.jobs if job.returncode]
        pending = status.get("cells_pending", 0)
        if pending or failed_jobs:
            details = "; ".join(
                f"host-{job.index} exited {job.returncode} "
                f"(log: {job.log_path})" for job in failed_jobs
            ) or "all jobs exited 0"
            raise DispatchError(
                f"fleet finished without converging: "
                f"{status.get('cells_done', 0)}/"
                f"{status.get('cells_planned', 0)} cells done, "
                f"{pending} pending — {details}"
            )
        return status

    # ------------------------------------------------------------------
    def dispatch(self, dry_run: bool = False, no_render: bool = False,
                 out_dir: Optional[str] = None) -> DispatchPlan:
        """The full lifecycle; ``--dry-run`` stops after rendering."""
        plan = self.plan()
        self.progress(
            f"[{self.spec.name}] dispatch plan: {plan.cells_planned} "
            f"cell(s) across {plan.hosts} host(s), "
            f"{plan.claim} claim, {plan.backend} backend"
        )
        for job in plan.jobs:
            self.progress(f"[{self.spec.name}]   host-{job.index}: "
                          f"{job.script_path}")
        if dry_run:
            self.progress(f"[{self.spec.name}] dry run: scripts rendered, "
                          f"nothing submitted")
            return plan
        backend = get_backend(self.backend_name)
        try:
            for job in plan.jobs:
                backend.submit(job)
                self.progress(f"[{self.spec.name}] submitted host-"
                              f"{job.index} as {job.job_id}")
            self._poll(backend, plan)
        finally:
            if hasattr(backend, "terminate"):
                backend.terminate()
        self._check_converged(plan)
        # Merge exactly once, in the shared root — the single render site
        # for a dispatched campaign.
        scheduler = CampaignScheduler(self.spec, quick=self.quick,
                                      store=self.store,
                                      progress=self.progress)
        scheduler.finalize()
        if not no_render:
            from repro.campaign.render import render_campaign
            for path in render_campaign(self.spec.name, store=self.store,
                                        out_dir=out_dir):
                self.progress(f"[{self.spec.name}] wrote {path}")
        self._monitor_summary()
        return plan

    def _monitor_summary(self) -> None:
        from repro.campaign.monitor import build_timeline, render_summary
        try:
            timeline = build_timeline(self.store)
        except Exception:   # telemetry is never allowed to fail a dispatch
            return
        summary = render_summary(timeline)
        if summary:
            self.progress(summary.rstrip("\n"))


__all__ = [
    "CLAIM_MODES",
    "DispatchError",
    "DispatchPlan",
    "Dispatcher",
    "FABRIC_DIR",
    "HostJob",
]
