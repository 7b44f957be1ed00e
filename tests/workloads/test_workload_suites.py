"""Tests for the synthetic kernels and suite definitions."""

import pytest

from repro.emulator.machine import Emulator
from repro.util.rng import DeterministicRng
from repro.workloads.kernels import KERNEL_BUILDERS, build_kernel
from repro.workloads.suites import SUITES, all_workloads, get_workload, suite_workloads

#: Small parameters so every kernel runs in well under a second.
SMALL_PARAMS = {
    "stream_sum": dict(elements=64, passes=1),
    "stream_triad": dict(elements=64),
    "stencil": dict(width=16, height=4, iterations=1),
    "pointer_chase": dict(nodes=32, hops=64),
    "hash_probe": dict(table_size=64, probes=64),
    "tree_search": dict(depth=5, searches=32),
    "graph_traverse": dict(nodes=32, avg_degree=3, sweeps=1),
    "sssp_relax": dict(nodes=32, avg_degree=3, rounds=1),
    "branchy_compute": dict(elements=64),
    "state_machine": dict(steps=64, states=4),
    "dense_mm": dict(dim=4),
    "spmv": dict(rows=24, nnz_per_row=3),
    "random_compute": dict(iterations=64),
    "histogram": dict(samples=64, buckets=16),
    "run_length": dict(elements=64),
    "pixel_filter": dict(pixels=64),
    "kmeans_assign": dict(points=32, clusters=4),
    "recursive_calls": dict(depth=5, repeats=2),
    "sort_scan": dict(elements=32, passes=2),
    "string_match": dict(haystack=64, needle=3),
}


@pytest.mark.parametrize("kernel", sorted(KERNEL_BUILDERS))
def test_every_kernel_builds_and_halts(kernel):
    params = SMALL_PARAMS.get(kernel, {})
    program = build_kernel(kernel, rng=DeterministicRng(1), **params)
    trace = Emulator(program).run(max_instructions=100_000)
    assert trace.completed, f"kernel {kernel} did not halt"
    assert len(trace) > 10


@pytest.mark.parametrize("kernel", sorted(KERNEL_BUILDERS))
def test_kernels_are_deterministic(kernel):
    params = SMALL_PARAMS.get(kernel, {})
    a = build_kernel(kernel, rng=DeterministicRng(2), **params)
    b = build_kernel(kernel, rng=DeterministicRng(2), **params)
    assert len(a) == len(b)
    assert a.data == b.data
    assert [i.opcode for i in a] == [i.opcode for i in b]


def test_unknown_kernel_rejected():
    with pytest.raises(KeyError):
        build_kernel("does_not_exist")


def test_suites_cover_the_paper_structure():
    assert set(SUITES) == {"spec2k6", "crono", "starbench", "npb"}
    assert len(SUITES["spec2k6"]) == 10        # the ten Fig. 1 applications
    assert len(all_workloads()) == sum(len(v) for v in SUITES.values())
    names = [w.name for w in all_workloads()]
    assert len(names) == len(set(names)), "workload names must be unique"


def test_get_workload_and_suite_lookup():
    mcf = get_workload("mcf")
    assert mcf.suite == "spec2k6"
    assert mcf.kernel == "pointer_chase"
    assert [w.name for w in suite_workloads("crono")] == [w.name for w in SUITES["crono"]]
    with pytest.raises(KeyError):
        get_workload("not-a-benchmark")


def test_workload_program_is_cached_and_trace_respects_limit():
    workload = get_workload("libquantum")
    assert workload.build_program() is workload.build_program()
    trace = workload.trace(500)
    assert len(trace) <= 500
