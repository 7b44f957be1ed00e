"""Execution backends for ``repro dispatch``.

A backend answers exactly two questions about a rendered job script:
*run it* (``submit``) and *is it done yet* (``poll``, the exit code once
terminal, else ``None``).  Everything else — what the script does, which
cache root it talks to, how results merge — is decided at render time
(:mod:`repro.campaign.fabric.dispatch`), so backends stay small enough
to be obviously correct and trivially mockable in tests.

``process_pool``
    Every host job is a concurrent ``bash`` subprocess — the
    single-machine stand-in for a real fleet, with hosts genuinely racing
    through the same shared root.  CI's ``dispatch`` job uses it to
    rehearse a 2-host fleet.
``slurm``
    One ``sbatch --parsable`` call per host job (the rendered script
    carries its ``#SBATCH`` directives).  Completion is observed without
    talking to ``squeue``/``sacct``: the script's EXIT trap writes its exit
    code to a sentinel file on the shared filesystem, so polling is a
    portable ``stat``.

Backends duck-type the job argument (anything with ``script_path``,
``log_path``, ``sentinel_path`` and writable ``job_id`` / ``returncode``
attributes works), so this module never imports the dispatcher.
"""

from __future__ import annotations

import subprocess
from pathlib import Path
from typing import Optional


class BackendError(RuntimeError):
    """A backend could not submit or observe a job."""


def _job_script(job) -> Path:
    script = Path(job.script_path)
    if not script.is_file():
        raise BackendError(f"job script missing: {script}")
    return script


class ProcessPoolBackend:
    """Every host job is a ``bash`` subprocess (see the module docstring)."""

    name = "process_pool"

    def __init__(self) -> None:
        self._procs = {}

    def submit(self, job) -> None:
        script = _job_script(job)
        log = open(job.log_path, "wb")
        proc = subprocess.Popen(
            ["bash", str(script)], stdout=log, stderr=subprocess.STDOUT,
        )
        job.job_id = f"pool-{proc.pid}"
        self._procs[job.job_id] = (proc, log)

    def poll(self, job) -> Optional[int]:
        if job.returncode is not None:
            return job.returncode
        entry = self._procs.get(job.job_id)
        if entry is None:
            raise BackendError(f"unknown job {job.job_id!r}")
        proc, log = entry
        code = proc.poll()
        if code is None:
            return None
        log.close()
        job.returncode = code
        del self._procs[job.job_id]
        return code

    def terminate(self) -> None:
        """Best-effort kill of every still-running job (error cleanup)."""
        for proc, log in list(self._procs.values()):
            try:
                proc.terminate()
            except OSError:
                pass
            try:
                log.close()
            except OSError:
                pass
        self._procs.clear()


class SlurmBackend:
    """Submit rendered ``sbatch`` scripts, observe them via their sentinel."""

    name = "slurm"

    def __init__(self, sbatch: str = "sbatch") -> None:
        self.sbatch = sbatch

    def submit(self, job) -> None:
        script = _job_script(job)
        # Stale sentinel from an earlier submission of the same plan would
        # read as instant completion — clear it first.
        sentinel = Path(job.sentinel_path)
        try:
            sentinel.unlink()
        except OSError:
            pass
        result = subprocess.run(
            [self.sbatch, "--parsable", str(script)],
            capture_output=True, text=True,
        )
        if result.returncode != 0:
            raise BackendError(
                f"sbatch failed ({result.returncode}): "
                f"{result.stderr.strip() or result.stdout.strip()}"
            )
        # --parsable prints `jobid[;cluster]` on one line.
        job.job_id = result.stdout.strip().split(";")[0]

    def poll(self, job) -> Optional[int]:
        if job.returncode is not None:
            return job.returncode
        sentinel = Path(job.sentinel_path)
        if not sentinel.exists():
            return None
        try:
            text = sentinel.read_text().strip()
            code = int(text) if text else 1
        except (OSError, ValueError):
            code = 1
        job.returncode = code
        return code


_BACKENDS = {cls.name: cls
             for cls in (ProcessPoolBackend, SlurmBackend)}

#: ``--backend`` choices, in help-text order.
BACKEND_NAMES = tuple(sorted(_BACKENDS))


def get_backend(name: str):
    """A fresh backend instance by registry name."""
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r} (choose from: "
            f"{', '.join(BACKEND_NAMES)})"
        ) from None
    return cls()


__all__ = [
    "BACKEND_NAMES",
    "BackendError",
    "ProcessPoolBackend",
    "SlurmBackend",
    "get_backend",
]
