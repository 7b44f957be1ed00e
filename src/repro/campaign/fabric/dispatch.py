"""Fleet dispatcher: render host jobs, submit, poll to convergence, merge.

``repro dispatch NAME --backend B --hosts N`` turns one campaign into N
host jobs and runs the whole distributed lifecycle:

1. **prepare** — open the campaign manifest in the *shared* cache root
   (:meth:`~repro.campaign.scheduler.CampaignScheduler.prepare`), so
   status/monitor report meaningful counts from the first poll;
2. **render** — write one self-contained bash job script per host under
   ``<shared>/fabric/<campaign>/jobs/`` (``--dry-run`` stops here);
3. **submit** — hand the scripts to an execution backend
   (:mod:`repro.campaign.fabric.backends`: ``process_pool`` or ``slurm``);
4. **poll** — watch job exit codes and the shared store's cell counts
   until every planned cell has landed (or a host fleet dies short);
5. **merge** — finalize + render artifacts exactly once, in the shared
   root, then print the telemetry monitor's fleet summary.

The dispatcher itself emits no journal events and simulates no cells —
workers own execution telemetry, the merge owner journals the assembly —
so a dispatched campaign's artifacts and timeline are byte-for-byte what
a single-host run of the same spec produces (the invariant CI's
``dispatch`` job diffs for).

Every host runs on the shared root (a directory all hosts mount) and
writes its cells there the moment they finish, so ``repro status`` and
the dispatcher's poll see them land.  Claim modes: ``shard`` gives each
host a static slice of the cell matrix (``repro run --shard i/N``);
``worker`` lets store leases arbitrate (``repro run --worker``), which
balances load when cells differ in cost.  Hosts > cells is fine in both:
an empty shard (or a worker that never wins a claim) converges trivially.

Every backend executes the *same* rendered script, so what a host does is
decided at render time and is inspectable with ``--dry-run``.  The script
exports its own environment (the shared root, ``PYTHONPATH``, pinned smoke
figure, journal TTL), so a scheduler that strips the environment changes
nothing.  Rendering uses :class:`string.Template`, whose ``$$`` escape
keeps render-time substitution apart from bash's run-time ``$?``.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from string import Template
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.campaign.fabric.backends import get_backend
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore, DEFAULT_LEASE_TTL
from repro.experiments.cache import CACHE_DIR_ENV, DEFAULT_CACHE_DIR
from repro.experiments.fingerprint import code_salt

#: Claim modes a dispatch plan can use (see module docstring).
CLAIM_MODES = ("shard", "worker")

#: Subdirectory of the shared cache root holding fabric state
#: (rendered job scripts and their logs).
FABRIC_DIR = "fabric"

#: Written by the SLURM script's EXIT trap; its content is the job's
#: exit code.  Polling for this file is how the dispatcher observes a
#: SLURM job finishing without talking to ``squeue``.
SENTINEL_SUFFIX = ".exit"

_SCRIPT = Template("""\
#!/bin/bash
# repro fabric job: campaign $campaign, host $host_index of $host_count
# ($claim claim, $mode mode) — rendered by `repro dispatch`; do not edit.
${slurm_header}set -uo pipefail
${sentinel_trap}$env_exports
$body""")

_SHARD_BODY = Template("""\
"$python" -m repro.campaign.cli run "$campaign"$mode_flag$spec_flag \\
    --shard $shard --processes $processes
""")

_WORKER_BODY = Template("""\
"$python" -m repro.campaign.cli run "$campaign"$mode_flag$spec_flag \\
    --worker --no-render --owner "$owner" --ttl $ttl --poll 2
""")

#: ``#SBATCH`` header rendered for the slurm backend only (bash ignores it
#: anyway, but keeping it out makes the other dry-run scripts honest about
#: what will be submitted).  The allocation gets one CPU per worker process
#: (a worker-claim host runs one).
_SBATCH_DIRECTIVES = Template("""\
#SBATCH --job-name=repro-$campaign-$host_index
#SBATCH --output=$log_path
#SBATCH --time=01:00:00
#SBATCH --ntasks=1
#SBATCH --cpus-per-task=$processes
""")

_SENTINEL_TRAP = Template("""\
trap 'echo -n $$? > "$sentinel"' EXIT
""")


class DispatchError(RuntimeError):
    """A dispatch that cannot be planned, submitted or converged."""


@dataclass
class HostJob:
    """One host's rendered job and its observed lifecycle."""

    index: int
    script_path: Path
    log_path: Path
    sentinel_path: Path
    job_id: Optional[str] = None
    returncode: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "script": str(self.script_path),
            "log": str(self.log_path),
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
                 progress: Optional[Callable[[str], None]] = print) -> None:
        if hosts < 1:
            raise DispatchError(f"hosts must be >= 1 (got {hosts})")
        if claim not in CLAIM_MODES:
            raise DispatchError(
                f"unknown claim mode {claim!r} "
                f"(choose from: {', '.join(CLAIM_MODES)})"
            )
        if claim == "worker" and processes is not None:
            raise DispatchError(
                "processes has no effect on worker-claim hosts: a worker "
                "simulates its claimed cells one at a time"
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
        self.progress = progress or (lambda line: None)
        self.shared_root = Path(
            os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        ).resolve()
        self.store = CampaignStore(spec.name)

    # ------------------------------------------------------------------
    def _job_env(self) -> Dict[str, str]:
        """The environment one host job exports (self-contained scripts)."""
        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        existing = os.environ.get("PYTHONPATH", "")
        if existing and src_dir not in existing.split(os.pathsep):
            src_dir = src_dir + os.pathsep + existing
        env = {
            CACHE_DIR_ENV: str(self.shared_root),
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

    def _render(self, job: HostJob) -> str:
        """One host's complete job script (see the module docstring)."""
        name = self.spec.name
        processes = self.processes or 1
        common = dict(
            python=sys.executable, campaign=name,
            mode_flag=" --quick" if self.quick else " --full",
            spec_flag=(f' --spec "{self.spec_file}"'
                       if self.spec_file else ""),
            processes=processes)
        if self.claim == "shard":
            body = _SHARD_BODY.substitute(
                shard=f"{job.index}/{self.hosts}", **common)
        else:
            body = _WORKER_BODY.substitute(
                owner=f"fabric-{name}-host-{job.index}",
                ttl=f"{self.ttl:g}", **common)
        slurm_header = sentinel_trap = ""
        if self.backend_name == "slurm":
            slurm_header = _SBATCH_DIRECTIVES.substitute(
                campaign=name, host_index=job.index, log_path=job.log_path,
                processes=processes)
            sentinel_trap = _SENTINEL_TRAP.substitute(
                sentinel=job.sentinel_path)
        env = self._job_env()
        return _SCRIPT.substitute(
            campaign=name, claim=self.claim,
            mode="quick" if self.quick else "full",
            host_index=job.index, host_count=self.hosts,
            slurm_header=slurm_header, sentinel_trap=sentinel_trap,
            env_exports="\n".join(
                'export {}="{}"'.format(key, env[key].replace('"', '\\"'))
                for key in sorted(env)),
            body=body)

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
            stem = jobs_dir / f"host-{index}"
            job = HostJob(
                index=index,
                script_path=stem.with_suffix(".sh"),
                log_path=stem.with_suffix(".log"),
                sentinel_path=stem.with_suffix(SENTINEL_SUFFIX),
            )
            job.script_path.write_text(self._render(job))
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
                raise DispatchError(
                    f"dispatch timed out after {self.timeout:g}s with "
                    f"cells {status.get('cells_done', 0)}/"
                    f"{status.get('cells_planned', 0)} done"
                )
            time.sleep(self.poll_seconds)

    def _foreign_salts(self, keys: Iterable[str]) -> Tuple[int, List[str]]:
        """How many of ``keys`` have no ``<salt>-<key>.pkl`` under this
        process's code salt in the shared root but one under another salt,
        and those salts.  Names only: one directory listing, no read."""
        salt = code_salt()
        salts_of: Dict[str, Set[str]] = {}
        for path in self.shared_root.glob("*.pkl"):
            other, _, key = path.stem.partition("-")
            salts_of.setdefault(key, set()).add(other)
        found, salts = 0, set()
        for key in keys:
            present = salts_of.get(key, set())
            if present and salt not in present:
                found += 1
                salts |= present
        return found, sorted(salts)

    def _check_converged(self, plan: DispatchPlan) -> Dict[str, object]:
        status = self.store.status()
        failed_jobs = [job for job in plan.jobs if job.returncode]
        pending = status.get("cells_pending", 0)
        if pending or failed_jobs:
            details = "; ".join(
                f"host-{job.index} exited {job.returncode} "
                f"(log: {job.log_path})" for job in failed_jobs
            ) or "all jobs exited 0"
            if not failed_jobs:
                # Jobs that finished cleanly but left cells pending most
                # likely ran other code: their entries sit under its salt.
                foreign, salts = self._foreign_salts(
                    (self.store.load_manifest() or {}).get("cells", {}))
                if foreign:
                    details += (
                        f"; {foreign} pending cell(s) have a cache entry "
                        f"under another code salt ({', '.join(salts)}; "
                        f"this process runs {code_salt()}): did src/ "
                        f"change during the dispatch?")
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
