"""Pinned materialisation: every workload's setup, digested.

A setup is the program (instructions and data image, in insertion order),
the warm-up and timed windows' trace columns, and the training profile
(every dict in its own order, ``dispatch_to_execute`` values by ``repr``).
``tests/data/materialisation_digests.json`` holds one digest per workload
at 4k+4k windows; a change to workload generation, the emulator or the
profiler that moves any of those bits fails here.

Regenerate deliberately, only for a change that is meant to move them::

    PYTHONPATH=src python tests/workloads/test_materialisation_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.core.compile import FAST_PIPELINE_ENV, counters, kernel_available
from repro.core.config import SystemConfig
from repro.experiments.runner import _build_setup
from repro.workloads.suites import Workload, all_workloads

DIGESTS = Path(__file__).resolve().parents[1] / "data" / "materialisation_digests.json"
WARMUP = TIMED = 4000
#: Workloads whose digests are also checked on the reference engines.
REFERENCE_WORKLOADS = ("mcf", "bfs", "cg")


def _fresh(workload: Workload) -> Workload:
    """A copy of ``workload`` with none of its program or trace memos."""
    return Workload(workload.name, workload.suite, workload.kernel,
                    dict(workload.params), workload.max_instructions,
                    workload.description)


def setup_digest(workload: Workload) -> str:
    """SHA-256 over one freshly built setup of ``workload``."""
    setup = _build_setup(_fresh(workload), WARMUP, TIMED, SystemConfig(),
                         None, "")
    program, profile = setup.program, setup.profile
    parts = [
        [(i.pc, i.opcode.name, i.dst, i.srcs, i.imm, i.target, i.annotation)
         for i in program],
        list(program.data.items()),
    ]
    for window in (setup.warmup_trace, setup.timed_trace):
        columns = window.columns
        parts.append([window.completed, len(columns)] + [
            column.tolist() for column in (columns.pc, columns.ea,
                                           columns.result, columns.flags,
                                           columns.next_pc)])
    parts += [
        list(profile.instruction_counts.items()),
        [(pc, vars(stats)) for pc, stats in profile.memory.items()],
        [(pc, vars(stats)) for pc, stats in profile.branches.items()],
        [(pc, repr(latency))
         for pc, latency in profile.dispatch_to_execute.items()],
        list(profile.dependents.items()),
        sorted(profile.loop_branch_pcs),
        profile.dynamic_instructions,
    ]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _pinned() -> dict:
    return json.loads(DIGESTS.read_text())


def test_every_workload_is_pinned():
    assert sorted(_pinned()) == sorted(w.name for w in all_workloads())


@pytest.mark.parametrize("workload", all_workloads(), ids=lambda w: w.name)
def test_setup_digest_on_the_compiled_path(workload):
    if not kernel_available():
        pytest.skip("no C compiler: the compiled path cannot be built")
    before = counters()
    assert setup_digest(workload) == _pinned()[workload.name]
    after = counters()
    assert after["native_emulated"] > before["native_emulated"]
    assert after["native_profiled"] > before["native_profiled"]


@pytest.mark.parametrize("name", REFERENCE_WORKLOADS)
def test_setup_digest_on_the_reference_engines(name, monkeypatch):
    monkeypatch.setenv(FAST_PIPELINE_ENV, "0")
    workload = next(w for w in all_workloads() if w.name == name)
    before = counters()
    assert setup_digest(workload) == _pinned()[name]
    assert counters() == before


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    DIGESTS.write_text(json.dumps(
        {w.name: setup_digest(w) for w in all_workloads()}, indent=2,
        sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
