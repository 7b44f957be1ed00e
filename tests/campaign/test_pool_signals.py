"""Worker pools under the campaign loop's shutdown handlers.

A campaign loop routes SIGTERM/SIGINT into ``WorkerShutdown``.  Pool
workers and watchdog children must not inherit that handler: a worker that
raises where ``Pool.terminate()``'s SIGTERM lands can leave a queue lock
taken, and the pool's shutdown then hangs.  Both tests run in a
subprocess under a hard timeout, so a hang fails the test instead of the
suite.
"""

from __future__ import annotations

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
from repro.experiments.parallel import default_signal_dispositions, mp_context

install_shutdown_handlers()
"""


def _run(body: str, timeout: float) -> subprocess.CompletedProcess:
    """Run ``body`` after the prelude in its own process group; on a
    timeout kill the whole group (a hung pool's workers included) and
    fail."""
    env = dict(os.environ, PYTHONPATH=SRC)
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
    """200 pool lifecycles, each forked through the helper while the
    shutdown handlers are installed, finish (a few seconds when healthy).
    Leaving a pool terminates workers that may still be starting up; with
    the raising handler inherited, some lifecycle hangs."""
    done = _run("""
        for _ in range(200):
            with default_signal_dispositions():
                pool = mp_context().Pool(processes=4)
            with pool:
                pass
        assert signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL
        print("lifecycles done")
    """, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "lifecycles done" in done.stdout


def test_worker_shutdown_during_map_ends_the_round_cleanly():
    """A SIGTERM to the parent during ``pool.map`` still raises
    ``WorkerShutdown`` there at once, and leaving the pool reaps every
    worker."""
    done = _run("""
        with default_signal_dispositions():
            pool = mp_context().Pool(processes=2)
        threading.Timer(0.5, os.kill, (os.getpid(), signal.SIGTERM)).start()
        started = time.monotonic()
        try:
            with pool:
                pool.map(time.sleep, [30] * 4)
        except WorkerShutdown:
            pass
        else:
            sys.exit("pool.map finished without the shutdown")
        assert time.monotonic() - started < 20, "shutdown was not prompt"
        assert not multiprocessing.active_children()
        print("round ended")
    """, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "round ended" in done.stdout
