"""Shared state for the benchmark harness.

A single :class:`~repro.experiments.parallel.ParallelExperimentRunner` is
shared by every benchmark so that traces, profiles and already-simulated
configurations are reused across figures (exactly like a real evaluation
campaign would).  Results are keyed by content fingerprint — labels are
cosmetic — and persist in the on-disk cache (``.repro_cache/``, disable with
``REPRO_DISK_CACHE=0``) so repeated campaigns skip finished simulations.

Set the environment variable ``REPRO_FULL_EVAL=1`` to run every workload of
every suite with longer windows (slower, closer to the paper's setup); the
cells of the fig09 campaign (``{BL, DLA, R3-DLA} x {BOP, noPF}``) are then
pre-computed by the parallel runner, fanning (workload, config) simulations
out over child processes.  The default "quick" mode uses a representative
subset so the whole harness completes in well under a minute.

The suite measures nothing: simulator speed is measured by ``perfbench/``
(see the README's "Performance tracking").
"""

from pathlib import Path

import pytest

from repro.experiments.parallel import ParallelExperimentRunner
from repro.experiments.runner import ExperimentRunner

_BENCH_DIR = Path(__file__).resolve().parent
_RUNNER = None
_FULL_SUITE_COLLECTED = False


def _full_mode_requested() -> bool:
    import os

    return os.environ.get("REPRO_FULL_EVAL", "0") not in ("0", "", "false", "no")


def _shared_runner(warm: bool) -> ParallelExperimentRunner:
    global _RUNNER
    if _RUNNER is None:
        full = _full_mode_requested()
        _RUNNER = ParallelExperimentRunner(quick=not full)
        # Pre-compute fig09's cells in parallel when it pays off: the whole
        # campaign is about to run anyway (never for a filtered selection)
        # and either it is the full-eval matrix or more than one process is
        # available.
        if warm and (full or _RUNNER.default_processes() > 1):
            _warm_fig09_cells(_RUNNER, quick=not full)
    return _RUNNER


def _warm_fig09_cells(runner: ParallelExperimentRunner, quick: bool) -> None:
    """Run fig09's campaign cells on ``runner``; fail the session, showing
    the failure payloads, if any cell failed."""
    from repro.campaign.scheduler import CampaignScheduler
    from repro.experiments.fig09_speedup import CAMPAIGN

    cells = CampaignScheduler(CAMPAIGN, quick=quick, runner=runner).cells()
    _executed, failures = runner.warm_isolated(cells)
    if failures:
        pytest.exit(f"{len(failures)} fig09 cell(s) failed to pre-compute: "
                    f"{failures}", returncode=1)


def pytest_collection_finish(session):
    """Detect whether every benchmark module was selected for this run."""
    global _FULL_SUITE_COLLECTED
    selected = {
        Path(item.fspath).name
        for item in session.items
        if Path(item.fspath).parent == _BENCH_DIR
    }
    available = {p.name for p in _BENCH_DIR.glob("test_*.py")}
    _FULL_SUITE_COLLECTED = bool(available) and available <= selected


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    return _shared_runner(warm=_FULL_SUITE_COLLECTED)


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

