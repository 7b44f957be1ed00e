"""Tests for the individual DLA components: profiling, skeleton, queues, T1,
value reuse, and the analytic fetch-buffer model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dla.analytic import FetchBufferModel
from repro.dla.config import DlaConfig
from repro.dla.queues import (
    BranchOutcomeQueue,
    FootnoteKind,
    FootnoteQueue,
    communication_bits_per_instruction,
)
from repro.dla.recycle import LoopConfigTable, RecycleController, build_skeleton_versions
from repro.dla.skeleton import SkeletonBuilder, SkeletonOptions
from repro.dla.t1 import T1Config, T1PrefetchEngine
from repro.dla.value_reuse import ValidationScoreboard
from repro.isa.instructions import OpClass
from repro.memory.hierarchy import CoreMemorySystem, SharedMemorySystem


# ---------------------------------------------------------------------------
# profiling
# ---------------------------------------------------------------------------
def test_profile_identifies_strided_loads(stream_profile, small_stream_program):
    strided = stream_profile.strided_pcs()
    assert strided, "the streaming kernel has an obviously strided load"
    for pc in strided:
        assert small_stream_program[pc].is_load


def test_profile_pointer_chase_is_not_strided(pointer_profile, small_pointer_program):
    pointer_loads = [
        pc for pc in pointer_profile.strided_pcs()
        if small_pointer_program[pc].annotation == "pointer_load"
    ]
    assert pointer_loads == []


def test_profile_finds_loop_branches(stream_profile, small_stream_program):
    assert stream_profile.loop_branch_pcs
    for pc in stream_profile.loop_branch_pcs:
        inst = small_stream_program[pc]
        assert inst.is_branch and inst.target <= pc


def test_profile_miss_statistics_and_counts(pointer_profile, pointer_trace):
    assert pointer_profile.dynamic_instructions == len(pointer_trace)
    assert pointer_profile.l1_miss_pcs(), "pointer chasing must show L1 misses"
    total = sum(pointer_profile.instruction_counts.values())
    assert total == len(pointer_trace)


def test_profile_branch_bias(branchy_profile):
    biases = [stats.bias for stats in branchy_profile.branches.values()]
    assert biases
    assert all(0.5 <= b <= 1.0 for b in biases)


def test_profile_slow_pcs_require_latency_and_dependents(pointer_profile):
    for pc in pointer_profile.slow_pcs(latency_threshold=20.0):
        assert pointer_profile.dispatch_to_execute[pc] >= 20.0
        assert pointer_profile.dependents.get(pc, 0) >= 2


# ---------------------------------------------------------------------------
# skeleton construction
# ---------------------------------------------------------------------------
def test_skeleton_contains_all_control_instructions(stream_profile, small_stream_program):
    builder = SkeletonBuilder(small_stream_program, stream_profile)
    skeleton = builder.build(SkeletonOptions(name="default"))
    for pc in small_stream_program.control_pcs():
        assert skeleton.contains(pc)


def test_skeleton_excludes_payload_computation(stream_profile, small_stream_program, stream_trace):
    builder = SkeletonBuilder(small_stream_program, stream_profile)
    skeleton = builder.build(SkeletonOptions(name="default"))
    fraction = skeleton.dynamic_fraction(stream_trace)
    assert fraction < 0.8, "payload work must be pruned from the skeleton"
    assert skeleton.static_fraction < 1.0


def test_t1_enabled_skeleton_is_smaller(stream_profile, small_stream_program, stream_trace):
    builder = SkeletonBuilder(small_stream_program, stream_profile)
    plain = builder.build(SkeletonOptions(name="plain"), enable_t1=False)
    offloaded = builder.build(SkeletonOptions(name="t1", keep_t1_targets=False), enable_t1=True)
    assert offloaded.t1_pcs
    assert offloaded.dynamic_fraction(stream_trace) <= plain.dynamic_fraction(stream_trace)


def test_biased_branch_pruning_records_branches(branchy_profile, small_branchy_program):
    builder = SkeletonBuilder(small_branchy_program, branchy_profile)
    skeleton = builder.build(SkeletonOptions(name="biased", biased_branch_threshold=0.5))
    # With a threshold of 0.5 every branch qualifies as "biased".
    assert skeleton.biased_branch_pcs
    # Pruned branches remain part of the skeleton (the BOQ still needs them).
    for pc in skeleton.biased_branch_pcs:
        assert skeleton.contains(pc)


def test_skeleton_mask_matches_included_pcs(stream_profile, small_stream_program):
    builder = SkeletonBuilder(small_stream_program, stream_profile)
    skeleton = builder.build(SkeletonOptions(name="default"))
    mask = skeleton.mask()
    assert len(mask) == len(small_stream_program)
    for pc, included in enumerate(mask):
        assert included == skeleton.contains(pc)


def test_skeleton_versions_are_distinct(stream_profile, small_stream_program):
    builder = SkeletonBuilder(small_stream_program, stream_profile)
    versions = build_skeleton_versions(builder, enable_t1=True)
    assert len(versions) == 6
    names = {v.options.name for v in versions}
    assert len(names) == 6


# ---------------------------------------------------------------------------
# queues
# ---------------------------------------------------------------------------
def test_boq_produce_consume_and_flush():
    boq = BranchOutcomeQueue(capacity=4)
    for _ in range(4):
        assert boq.produce()
    assert not boq.produce()
    assert boq.occupancy == 4
    assert boq.consume()
    assert boq.consumed == 1
    assert boq.flush() == 3
    assert boq.occupancy == 0
    assert not boq.consume()
    assert boq.bits_transferred == 4 * BranchOutcomeQueue.ENTRY_BITS


def test_fq_tracks_kinds_and_bits():
    fq = FootnoteQueue(capacity=2)
    assert fq.produce(FootnoteKind.L1_PREFETCH) == 1
    assert fq.produce(FootnoteKind.VALUE_PREDICTION, count=3) == 1
    assert fq.produce(FootnoteKind.L1_PREFETCH) == 0
    assert fq.produced_by_kind[FootnoteKind.L1_PREFETCH] == 1
    assert fq.produced_by_kind[FootnoteKind.VALUE_PREDICTION] == 1
    assert fq.bits_transferred == (
        FootnoteKind.L1_PREFETCH.payload_bits + FootnoteKind.VALUE_PREDICTION.payload_bits
    )
    assert fq.consume()
    assert fq.flush() == 1


def test_communication_bits_per_instruction_small():
    boq = BranchOutcomeQueue()
    fq = FootnoteQueue()
    for _ in range(100):
        boq.produce()
    fq.produce(FootnoteKind.L1_PREFETCH, count=10)
    bits = communication_bits_per_instruction(boq, fq, committed_instructions=1000)
    assert 0 < bits < 10
    assert communication_bits_per_instruction(boq, fq, 0) == 0.0


# ---------------------------------------------------------------------------
# T1
# ---------------------------------------------------------------------------
def _t1(marked, **config):
    shared = SharedMemorySystem()
    memory = CoreMemorySystem(shared, shared.config)
    return T1PrefetchEngine(marked, memory, T1Config(**config)), memory


def test_t1_confirms_stride_and_prefetches():
    engine, memory = _t1({0x10})
    for i in range(8):
        engine.on_commit(0x10, 0x1000 + i * 64, cycle=float(i * 10))
    assert engine.stats.strides_confirmed == 1
    assert engine.stats.prefetches_issued > 0
    assert engine.entry_state(0x10) == "steady"


def test_t1_prefetched_lines_become_hits():
    engine, memory = _t1({0x10})
    addresses = [0x20000 + i * 64 for i in range(40)]
    for i, address in enumerate(addresses[:20]):
        engine.on_commit(0x10, address, cycle=float(i * 50))
    # Lines ahead of the last commit should now be resident (or in flight).
    future = addresses[22]
    assert memory.l1d.probe(future) or memory.l2.probe(future)


def test_t1_ignores_unmarked_pcs_and_resets_on_loop_end():
    engine, _ = _t1({0x10})
    engine.on_commit(0x99, 0x1000, 0.0)
    assert engine.occupancy == 0
    for i in range(4):
        engine.on_commit(0x10, 0x1000 + i * 64, float(i))
    assert engine.occupancy == 1
    engine.on_commit(0x55, None, 100.0, is_loop_branch=True)
    assert engine.occupancy == 0


def test_t1_irregular_stream_never_reaches_steady():
    engine, _ = _t1({0x10})
    addresses = [0x1000, 0x9000, 0x2000, 0x40, 0x7777, 0x100]
    for i, address in enumerate(addresses):
        engine.on_commit(0x10, address, float(i))
    assert engine.entry_state(0x10) != "steady"


def test_t1_table_capacity_is_respected():
    engine, _ = _t1(set(range(100)), entries=4)
    for pc in range(20):
        engine.on_commit(pc, 0x1000 * pc, float(pc))
    assert engine.occupancy <= 4


# ---------------------------------------------------------------------------
# value reuse
# ---------------------------------------------------------------------------
def test_validation_scoreboard_skips_fully_predicted_chains():
    board = ValidationScoreboard()
    # i1, i2 produce predictions; i4 sources only from them -> skip.
    assert not board.process(OpClass.INT_MUL, dst=8, srcs=(11, 5), has_prediction=True)
    assert not board.process(OpClass.INT_ALU, dst=6, srcs=(21, 4), has_prediction=True)
    assert board.process(OpClass.INT_ALU, dst=4, srcs=(8, 6), has_prediction=True)
    assert board.skips == 1


def test_validation_scoreboard_cleared_by_unpredicted_writer():
    board = ValidationScoreboard()
    board.process(OpClass.INT_ALU, dst=5, srcs=(1,), has_prediction=True)
    board.process(OpClass.LOAD, dst=5, srcs=(2,), has_prediction=False)   # clears r5
    assert not board.process(OpClass.INT_ALU, dst=7, srcs=(5,), has_prediction=True)


# ---------------------------------------------------------------------------
# analytic fetch-buffer model
# ---------------------------------------------------------------------------
def test_fetch_buffer_model_steady_state_is_a_distribution():
    model = FetchBufferModel(demand=[0.2, 0.2, 0.2, 0.2, 0.2], supply=[0.5, 0.0, 0.0, 0.0, 0.5])
    for capacity in (4, 8, 16):
        state = model.steady_state(capacity)
        assert len(state) == capacity + 1
        assert abs(sum(state) - 1.0) < 1e-9
        assert all(p >= -1e-12 for p in state)


def test_fetch_buffer_bubbles_decrease_with_capacity():
    model = FetchBufferModel(demand=[0.1, 0.2, 0.2, 0.2, 0.3], supply=[0.4, 0.1, 0.1, 0.1, 0.3])
    curve = model.bubble_curve([4, 8, 16, 32])
    values = list(curve.values())
    # A bigger buffer never adds bubbles.
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    assert curve[32] <= curve[4] + 1e-9


def test_fetch_buffer_rich_supply_means_few_bubbles():
    generous = FetchBufferModel(demand=[0.5, 0.5], supply=[0.0, 0.0, 0.0, 0.0, 1.0])
    starved = FetchBufferModel(demand=[0.0, 0.0, 0.0, 0.0, 1.0], supply=[0.9, 0.1])
    assert generous.expected_fetch_bubbles(16) < starved.expected_fetch_bubbles(16)


def test_fetch_buffer_model_rejects_bad_distributions():
    with pytest.raises(ValueError):
        FetchBufferModel(demand=[], supply=[1.0])
    with pytest.raises(ValueError):
        FetchBufferModel(demand=[-0.5, 1.5], supply=[1.0])
    with pytest.raises(ValueError):
        FetchBufferModel(demand=[0.0, 0.0], supply=[1.0])
    model = FetchBufferModel([0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        model.transition_matrix(0)


@settings(max_examples=30, deadline=None)
@given(
    demand=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=5),
    supply=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=5),
    capacity=st.integers(min_value=2, max_value=24),
)
def test_fetch_buffer_model_properties(demand, supply, capacity):
    if sum(demand) <= 0 or sum(supply) <= 0:
        return
    model = FetchBufferModel(demand, supply)
    matrix = model.transition_matrix(capacity)
    # Column-stochastic: every column sums to 1.
    for column in range(capacity + 1):
        assert abs(sum(matrix[row][column] for row in range(capacity + 1)) - 1.0) < 1e-9
    state = model.steady_state(capacity)
    assert abs(sum(state) - 1.0) < 1e-8
    bubbles = model.expected_fetch_bubbles(capacity)
    assert 0.0 <= bubbles <= len(demand)


# ---------------------------------------------------------------------------
# recycle structures
# ---------------------------------------------------------------------------
def test_loop_config_table_lru_eviction():
    lct = LoopConfigTable(capacity=2)
    lct.insert(0x10, 1)
    lct.insert(0x20, 2)
    assert lct.lookup(0x10) == 1
    lct.insert(0x30, 3)              # evicts 0x20 (least recently used)
    assert 0x20 not in lct
    assert lct.lookup(0x30) == 3
    assert len(lct) == 2


def test_recycle_controller_segments_trace_by_loop(stream_profile, stream_trace,
                                                   small_stream_program):
    builder = SkeletonBuilder(small_stream_program, stream_profile)
    versions = build_skeleton_versions(builder, enable_t1=True)
    config = DlaConfig(loop_unit_min_instructions=500)
    controller = RecycleController(versions, config, stream_profile.loop_branch_pcs)
    units = controller.segment_into_loop_units(stream_trace.window(0, 6000))
    assert units
    assert units[0].start == 0
    assert units[-1].end == 6000
    # Units tile the trace without gaps.
    for previous, current in zip(units, units[1:]):
        assert previous.end == current.start


def test_recycle_controller_requires_versions():
    with pytest.raises(ValueError):
        RecycleController([], DlaConfig(), set())
