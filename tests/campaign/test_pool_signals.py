"""The child-process engine under signals and child deaths.

A campaign loop routes SIGTERM/SIGINT into ``WorkerShutdown``.  The
engine's children must not inherit that handler: the engine terminates an
overrunning child, and a child that raised instead of dying could still
report the result it was stopped for.  A child that dies without
reporting must become a retryable failure, not a wait that never ends.
Every test runs in a subprocess under a hard timeout, so a hang fails the
test instead of the suite.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

_PRELUDE = """
import multiprocessing, os, signal, sys, threading, time
from repro.campaign.health import WorkerShutdown
from repro.campaign.scheduler import install_shutdown_handlers
from repro.experiments.parallel import run_in_children

install_shutdown_handlers()
"""


def _run(body: str, timeout: float, **env: str) -> subprocess.CompletedProcess:
    """Run ``body`` after the prelude in its own process group, with
    ``env`` added to the environment; on a timeout kill the whole group
    (hung children included) and fail."""
    env = dict(os.environ, PYTHONPATH=SRC, **env)
    args = [sys.executable, "-c", _PRELUDE + textwrap.dedent(body)]
    with subprocess.Popen(args, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"still running after {timeout:g} s: hung")
    return subprocess.CompletedProcess(args, proc.returncode, out, err)


def test_pool_lifecycles_under_shutdown_handlers_never_hang():
    """200 engine rounds under the shutdown handlers finish (a few seconds
    when healthy).  Each round's timeout terminates children that may
    still be starting up; every child that reports runs with SIGTERM at
    its default disposition."""
    done = _run("""
        def probe(seconds):
            time.sleep(seconds)
            return signal.getsignal(signal.SIGTERM) is signal.SIG_DFL

        reported = 0
        for _ in range(200):
            reports = run_in_children(probe, [0.0, 0.0, 0.0, 30.0],
                                      processes=4, timeout=0.02)
            for report, error, _seconds in reports:
                assert report is True or type(error).__name__ == "CellTimeout"
                reported += report is True
            assert type(reports[-1][1]).__name__ == "CellTimeout"
            assert not multiprocessing.active_children()
        assert signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL
        print(f"rounds done, {reported} reports")
    """, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "rounds done" in done.stdout


def test_worker_shutdown_during_map_ends_the_round_cleanly():
    """A SIGTERM to the parent during a round still raises
    ``WorkerShutdown`` there at once, and the engine reaps every child."""
    done = _run("""
        threading.Timer(0.5, os.kill, (os.getpid(), signal.SIGTERM)).start()
        started = time.monotonic()
        try:
            run_in_children(time.sleep, [30] * 4, processes=2)
        except WorkerShutdown:
            pass
        else:
            sys.exit("the round finished without the shutdown")
        assert time.monotonic() - started < 20, "shutdown was not prompt"
        assert not multiprocessing.active_children()
        print("round ended")
    """, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "round ended" in done.stdout


#: A two-workload, three-variant campaign fanned out over two children.
#: With no backoff every failed cell retries in the next round, so a round
#: that retries both workloads fans out again.  The test body activates a
#: fault plan and runs it.
_CAMPAIGN = """
    import json
    from repro.campaign.health import RetryPolicy
    from repro.campaign.scheduler import CampaignScheduler
    from repro.campaign.spec import CampaignSpec, variants
    from repro.campaign.store import CampaignStore
    from repro.experiments.parallel import ParallelExperimentRunner
    from repro.util import faults

    spec = CampaignSpec(
        name="fanout", title="Fan-out campaign",
        experiment="repro.experiments.fig10_energy",
        workloads=("libquantum", "mcf"),
        variants=variants(dict(name="bl", kind="baseline"),
                          dict(name="dla", kind="dla", dla_preset="dla"),
                          dict(name="r3", kind="dla", dla_preset="r3")),
        warmup_instructions=1500, timed_instructions=1500)
    runner = ParallelExperimentRunner(
        quick=True, workload_names=spec.resolve_workloads(),
        warmup_instructions=1500, timed_instructions=1500, processes=2)
    scheduler = CampaignScheduler(
        spec, store=CampaignStore(spec.name), runner=runner,
        retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.0))
"""


def _run_campaign(body: str, tmp_path) -> dict:
    """Run the fan-out campaign with ``body`` in a hard-timed subprocess;
    ``body`` prints one JSON line, returned parsed."""
    done = _run(textwrap.dedent(_CAMPAIGN) + textwrap.dedent(body),
                timeout=180, REPRO_CACHE_DIR=str(tmp_path / "cache"))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_a_killed_fanout_child_is_a_retryable_crash(tmp_path):
    """A fan-out child that dies mid-group (``os._exit(137)`` on its
    group's second cell) turns every cell of its group into a
    ``CellCrashed`` failure record: the group commits its disk entries
    only when it ends, so the cell it finished before the kill is lost
    with it and re-simulates.  The retry round converges to a complete
    campaign."""
    report = _run_campaign("""
        group = [key for key, request in scheduler.keyed_cells()
                 if request.workload == "libquantum"]
        # The group's second cell kills its child, once.
        faults.activate(faults.FaultPlan.parse(
            f"cell.simulate:kill:times=1,match={group[1]}"))
        summary = scheduler.run()
        print(json.dumps({"summary": summary, "group": group,
                          "failures": scheduler.store.failures()}))
    """, tmp_path)
    summary, failures = report["summary"], report["failures"]
    assert sorted(failures) == sorted(report["group"])
    for record in failures.values():
        assert record["error_type"] == "CellCrashed"
        assert "exit code 137" in record["message"]
        assert record["attempts"] == 1 and not record["poisoned"]
    assert "cells_failed" not in summary and not summary.get("interrupted")
    assert summary["cells_total"] == 6


def test_a_fanout_result_the_cache_lost_is_a_retryable_failure(tmp_path):
    """Every disk-cache write torn: each child reports success, but no
    result reads back.  Each cell then fails as ``CellResultLost``, spends
    its retry budget and is poisoned, so the run ends instead of re-running
    the same cells for ever."""
    report = _run_campaign("""
        faults.activate(faults.FaultPlan.parse(
            "cache.write:truncate:times=none"))
        summary = scheduler.run()
        print(json.dumps({"summary": summary,
                          "failures": scheduler.store.failures()}))
    """, tmp_path)
    summary, failures = report["summary"], report["failures"]
    assert summary["cells_total"] == 6 and summary["cells_failed"] == 6
    assert len(failures) == 6
    for record in failures.values():
        assert record["error_type"] == "CellResultLost"
        assert record["attempts"] == 3 and record["poisoned"]
