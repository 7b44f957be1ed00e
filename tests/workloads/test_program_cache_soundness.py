"""Cache soundness of O(1) program materialisation.

The compiled pipeline leans on two materialisation caches: the per-workload
program/trace memo (:class:`repro.workloads.suites.Workload`) and the
runner's fingerprint-keyed setup cache (memory + ``.repro_cache/``).  Both
are only sound if every key in the path is *content*-stable across
processes.  Python's salted ``hash()`` is the classic way to get this
wrong — two workers would silently build different "identical" programs —
so the generator seed is pinned to CRC-32 of the workload name and the
setup key to the canonical-JSON SHA-256 fingerprint.

These tests prove the property end to end: child interpreters launched
with *different* ``PYTHONHASHSEED`` values must derive the same seed, the
same setup key, the same static program and the byte-identical dynamic
trace — and a setup spilled to the disk cache by one process must replay
in a fresh process as the identical trace without rebuilding.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

from repro.util.rng import DeterministicRng
from repro.workloads.kernels import build_kernel
from repro.workloads.suites import get_workload

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

WORKLOAD = "mcf"
TRACE_CAP = 3000


def _trace_digest(entries) -> str:
    digest = hashlib.sha256()
    for entry in entries:
        digest.update(
            (
                f"{entry.static.pc},{entry.static.opcode.name},"
                f"{entry.next_pc},{entry.effective_address},{entry.taken};"
            ).encode()
        )
    return digest.hexdigest()


def _program_digest(program) -> str:
    digest = hashlib.sha256()
    for inst in program:
        digest.update(
            f"{inst.pc},{inst.opcode.name},{inst.dst},{inst.srcs},"
            f"{inst.imm},{inst.target};".encode()
        )
    return digest.hexdigest()


#: Child payload: everything a worker process derives on the materialisation
#: path, printed as JSON for the parent to compare.
_CHILD = f"""
import hashlib, json, sys
from repro.experiments.runner import ExperimentRunner, setup_cache_stats
from repro.workloads.suites import get_workload

def trace_digest(entries):
    digest = hashlib.sha256()
    for entry in entries:
        digest.update((
            f"{{entry.static.pc}},{{entry.static.opcode.name}},"
            f"{{entry.next_pc}},{{entry.effective_address}},{{entry.taken}};"
        ).encode())
    return digest.hexdigest()

def program_digest(program):
    digest = hashlib.sha256()
    for inst in program:
        digest.update(
            f"{{inst.pc}},{{inst.opcode.name}},{{inst.dst}},{{inst.srcs}},"
            f"{{inst.imm}},{{inst.target}};".encode())
    return digest.hexdigest()

use_disk = sys.argv[1] == "disk"
workload = get_workload({WORKLOAD!r})
runner = ExperimentRunner(quick=True, workload_names=[{WORKLOAD!r}],
                          disk_cache=use_disk)
out = {{
    "setup_key": runner.setup_key(workload),
    "program": program_digest(workload.build_program()),
    "trace": trace_digest(workload.trace({TRACE_CAP}).entries),
}}
if use_disk:
    setup = runner.setup({WORKLOAD!r})
    out["timed_trace"] = trace_digest(setup.timed_trace.entries)
    out["stats"] = setup_cache_stats()
print(json.dumps(out))
"""


def _run_child(hash_seed: str, mode: str = "memory", extra_env=None) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_SRC)
    env.update(extra_env or {})
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, mode],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the naming seed itself: CRC-32 of the workload name, never salted hash()
# ---------------------------------------------------------------------------
def test_generator_seed_is_crc32_of_name():
    workload = get_workload(WORKLOAD)
    seed = zlib.crc32(WORKLOAD.encode("utf-8")) & 0x7FFFFFFF
    rebuilt = build_kernel(
        workload.kernel, rng=DeterministicRng(seed), name=workload.name,
        **workload.params
    )
    assert _program_digest(rebuilt) == _program_digest(workload.build_program())


def test_fingerprint_path_stable_across_hash_seeds():
    first = _run_child("1")
    second = _run_child("271828")
    assert first == second, (
        "materialisation keys/artifacts diverged between interpreters with "
        "different hash seeds — a salted hash() has leaked into the path"
    )


# ---------------------------------------------------------------------------
# cross-process: a disk-cached setup replays as the identical dynamic trace
# ---------------------------------------------------------------------------
def test_cached_program_round_trips_identically_across_processes(tmp_path):
    cache_env = {
        "REPRO_CACHE_DIR": str(tmp_path / "cache"),
        "REPRO_DISK_CACHE": "1",
    }
    cold = _run_child("11", mode="disk", extra_env=cache_env)
    assert cold["stats"]["builds"] == 1
    assert cold["stats"]["disk_hits"] == 0

    warm = _run_child("22", mode="disk", extra_env=cache_env)
    assert warm["stats"]["builds"] == 0, \
        "second process rebuilt a setup the disk cache should have served"
    assert warm["stats"]["disk_hits"] == 1

    assert warm["setup_key"] == cold["setup_key"]
    assert warm["timed_trace"] == cold["timed_trace"]
    assert warm["trace"] == cold["trace"]
