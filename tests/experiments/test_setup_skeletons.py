"""One skeleton builder per workload setup.

Every DLA cell of a setup (and fig09's SlipStream and CRE runs) shares the
setup's :class:`~repro.dla.skeleton.SkeletonBuilder`, so the program is
analysed once per setup and each skeleton and risky-branch set is built
once.  The builder is derived state: it is never pickled.
"""

from __future__ import annotations

import pickle

import pytest

from repro.dla.skeleton import SkeletonBuilder
from repro.dla.system import DlaSystem
from repro.experiments import fig09_speedup
from repro.experiments.runner import ExperimentRunner, clear_setup_cache
from repro.isa.analysis import StaticAnalysis

WORKLOAD = "mcf"
WINDOW = dict(warmup_instructions=1500, timed_instructions=1500)


@pytest.fixture()
def runner():
    # A fresh setup memo: a setup another test built may hold a builder.
    clear_setup_cache()
    yield ExperimentRunner(quick=True, workload_names=[WORKLOAD],
                           disk_cache=False, **WINDOW)
    clear_setup_cache()


@pytest.fixture()
def analyses(monkeypatch):
    """The program of every ``StaticAnalysis.analyze`` call."""
    analyze = StaticAnalysis.analyze.__func__
    calls = []

    def counting(cls, program):
        calls.append(program)
        return analyze(cls, program)

    monkeypatch.setattr(StaticAnalysis, "analyze", classmethod(counting))
    return calls


def test_fig09_analyses_each_setup_program_once(runner, analyses):
    """fig09's four DLA cells and its SlipStream and CRE runs for one
    workload analyse the program once, on the setup's builder."""
    fig09_speedup.run(runner)
    setup = runner.setup(WORKLOAD)
    assert runner.stats.simulations == 9
    assert analyses == [setup.program]
    assert setup.skeleton_builder.analysis.program is setup.program


def test_memoised_skeletons_equal_a_fresh_builders(runner):
    fig09_speedup.run(runner)
    setup = runner.setup(WORKLOAD)
    builder = setup.skeleton_builder
    # The default skeletons of DLA and R3-DLA, and SlipStream's A-stream.
    assert len(builder._skeletons) == 3
    fresh = SkeletonBuilder(setup.program, setup.profile)
    for (options, enable_t1), skeleton in builder._skeletons.items():
        assert builder.build(options, enable_t1) is skeleton
        rebuilt = fresh.build(options, enable_t1)
        assert rebuilt == skeleton
        assert builder.risky_branch_pcs(skeleton) == fresh.risky_branch_pcs(rebuilt)


def test_pickled_setup_bytes_do_not_depend_on_its_builder(runner):
    setup = runner.setup(WORKLOAD)
    entry = (setup.program, setup.warmup_trace.columns,
             setup.timed_trace.columns, setup.profile)
    setup_bytes, entry_bytes = pickle.dumps(setup), pickle.dumps(entry)
    assert setup._builder is None
    setup.skeleton_builder.build()
    assert setup._builder is not None
    assert pickle.dumps(setup) == setup_bytes
    assert pickle.dumps(entry) == entry_bytes
    assert pickle.loads(setup_bytes)._builder is None


def test_a_builder_must_be_for_the_systems_program_and_profile(runner):
    setup = runner.setup(WORKLOAD)
    other = ExperimentRunner(quick=True, workload_names=["libquantum"],
                             disk_cache=False, **WINDOW).setup("libquantum")
    system = DlaSystem(setup.program, profile=setup.profile,
                       builder=setup.skeleton_builder)
    assert system.builder is setup.skeleton_builder
    with pytest.raises(ValueError):
        DlaSystem(setup.program, profile=setup.profile,
                  builder=other.skeleton_builder)
