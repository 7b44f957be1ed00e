"""Tests for the functional emulator semantics.

Every program runs on both engines: the Python interpreter (the reference,
``REPRO_FAST_PIPELINE=0``) and the compiled kernel's ``emulate`` loop, which
must reproduce it bit for bit.
"""

import pytest

from repro.core.compile import FAST_PIPELINE_ENV, counters, kernel_available
from repro.emulator.machine import Emulator, ExecutionLimitExceeded
from repro.experiments.runner import ExperimentRunner
from repro.isa.builder import WORD_BYTES, ProgramBuilder
from repro.isa.instructions import OpClass
from repro.workloads.suites import all_workloads

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def engines():
    """Yield each engine's name with ``REPRO_FAST_PIPELINE`` selecting it:
    the Python reference always, the native kernel when it builds here."""
    for native in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(FAST_PIPELINE_ENV, "1" if native else "0")
            if native and not kernel_available():
                continue
            yield "native" if native else "python"


def _emulate(program, engine, **kwargs):
    """Run ``program`` on ``engine``, checking that engine really ran it."""
    before = counters()["native_emulated"]
    emulator = Emulator(program)
    trace = emulator.run(**kwargs)
    assert (counters()["native_emulated"] > before) == (engine == "native")
    return emulator, trace


def _build(body):
    b = ProgramBuilder("t")
    body(b)
    b.halt()
    return b.build()


def _run_and_register(body, register):
    """The register's final value; every engine must agree on it."""
    program = _build(body)
    values = {engine: _emulate(program, engine, max_instructions=1000)[0]
              .registers[register] for engine in engines()}
    assert len(set(values.values())) == 1, values
    return values["python"]


def _columns(trace):
    columns = trace.columns
    return (list(columns.pc), list(columns.ea), list(columns.result),
            list(columns.flags), list(columns.next_pc), trace.completed)


def test_arithmetic_semantics():
    assert _run_and_register(lambda b: (b.li(1, 6), b.li(2, 7), b.mul(3, 1, 2)), 3) == 42
    assert _run_and_register(lambda b: (b.li(1, 9), b.li(2, 4), b.sub(3, 1, 2)), 3) == 5
    assert _run_and_register(lambda b: (b.li(1, 9), b.li(2, 4), b.div(3, 1, 2)), 3) == 2
    assert _run_and_register(lambda b: (b.li(1, 9), b.li(2, 4), b.mod(3, 1, 2)), 3) == 1
    assert _run_and_register(lambda b: (b.li(1, 12), b.li(2, 10), b.xor(3, 1, 2)), 3) == 6
    assert _run_and_register(lambda b: (b.li(1, 3), b.li(2, 2), b.shl(3, 1, 2)), 3) == 12
    assert _run_and_register(lambda b: (b.li(1, 12), b.li(2, 2), b.shr(3, 1, 2)), 3) == 3
    assert _run_and_register(lambda b: (b.li(1, 3), b.li(2, 7), b.slt(3, 1, 2)), 3) == 1
    assert _run_and_register(lambda b: (b.li(1, 7), b.li(2, 7), b.seq(3, 1, 2)), 3) == 1
    assert _run_and_register(lambda b: (b.li(1, 5), b.addi(3, 1, -9)), 3) == -4


#: (name, program body, expected r3) for the corners of the 64-bit
#: semantics: floor division, wrap-around, the logical right shift, and the
#: opcodes no workload uses.
EDGE_CASES = [
    ("div-neg-dividend", lambda b: (b.li(1, -7), b.li(2, 2), b.div(3, 1, 2)), -4),
    ("div-neg-divisor", lambda b: (b.li(1, 7), b.li(2, -2), b.div(3, 1, 2)), -4),
    ("div-both-neg", lambda b: (b.li(1, -7), b.li(2, -2), b.div(3, 1, 2)), 3),
    ("div-min-by-minus-one", lambda b: (b.li(1, INT64_MIN), b.li(2, -1),
                                        b.div(3, 1, 2)), INT64_MIN),
    ("fdiv-by-zero", lambda b: (b.li(1, -7), b.fdiv(3, 1, 0)), 0),
    ("mod-neg-dividend", lambda b: (b.li(1, -7), b.li(2, 2), b.mod(3, 1, 2)), 1),
    ("mod-neg-divisor", lambda b: (b.li(1, 7), b.li(2, -2), b.mod(3, 1, 2)), -1),
    ("mod-both-neg", lambda b: (b.li(1, -7), b.li(2, -2), b.mod(3, 1, 2)), -1),
    ("mod-min-by-minus-one", lambda b: (b.li(1, INT64_MIN), b.li(2, -1),
                                        b.mod(3, 1, 2)), 0),
    ("add-wraps", lambda b: (b.li(1, INT64_MAX), b.li(2, 1), b.add(3, 1, 2)), INT64_MIN),
    ("fadd-wraps", lambda b: (b.li(1, INT64_MIN), b.li(2, -1), b.fadd(3, 1, 2)), INT64_MAX),
    ("addi-wraps", lambda b: (b.li(1, INT64_MAX), b.addi(3, 1, 2)), INT64_MIN + 1),
    ("sub-wraps", lambda b: (b.li(1, INT64_MIN), b.li(2, 1), b.sub(3, 1, 2)), INT64_MAX),
    ("mul-wraps", lambda b: (b.li(1, 1 << 62), b.li(2, 6), b.mul(3, 1, 2)), INT64_MIN),
    ("fmul-wraps", lambda b: (b.li(1, 3 ** 39), b.li(2, 3 ** 3), b.fmul(3, 1, 2)),
     (3 ** 42 + (1 << 63)) % (1 << 64) - (1 << 63)),
    ("shl-wraps", lambda b: (b.li(1, 3), b.li(2, 63), b.shl(3, 1, 2)), INT64_MIN),
    ("shl-masks-amount", lambda b: (b.li(1, 5), b.li(2, 65), b.shl(3, 1, 2)), 10),
    ("shr-negative", lambda b: (b.li(1, -8), b.li(2, 1), b.shr(3, 1, 2)),
     (1 << 63) - 4),
    ("shr-negative-by-zero", lambda b: (b.li(1, -8), b.li(2, 64), b.shr(3, 1, 2)), -8),
    ("and", lambda b: (b.li(1, -6), b.li(2, 0xFF), b.and_(3, 1, 2)), 0xFA),
    ("andi", lambda b: (b.li(1, -1), b.andi(3, 1, 0x0F)), 0x0F),
    ("or-xor", lambda b: (b.li(1, 0b1100), b.li(2, 0b1010), b.or_(4, 1, 2),
                          b.xor(3, 4, 2)), 0b0100),
    ("slt-signed", lambda b: (b.li(1, -1), b.li(2, 0), b.slt(3, 1, 2)), 1),
    ("slt-false", lambda b: (b.li(1, 5), b.li(2, -5), b.slt(3, 1, 2)), 0),
    ("seq-false", lambda b: (b.li(1, 5), b.li(2, -5), b.seq(3, 1, 2)), 0),
    ("nop-mov", lambda b: (b.li(1, 17), b.nop(), b.mov(3, 1)), 17),
    ("unmapped-load", lambda b: (b.li(1, -4096), b.load(3, 1, 8)), 0),
]


@pytest.mark.parametrize("body, expected", [case[1:] for case in EDGE_CASES],
                         ids=[case[0] for case in EDGE_CASES])
def test_edge_semantics_on_both_engines(body, expected):
    assert _run_and_register(body, 3) == expected


def test_store_wraps_and_load_reads_back_on_both_engines():
    def body(b):
        addr = b.alloc_words(1, (1 << 64) + 5)   # image values wrap on load
        b.li(10, addr)
        b.load(4, 10, 0)
        b.li(1, INT64_MIN)
        b.store(10, 1, WORD_BYTES)
        b.load(3, 10, WORD_BYTES)
        b.add(3, 3, 4)
    assert _run_and_register(body, 3) == INT64_MIN + 5


def test_division_by_zero_yields_zero():
    assert _run_and_register(lambda b: (b.li(1, 9), b.li(2, 0), b.div(3, 1, 2)), 3) == 0
    assert _run_and_register(lambda b: (b.li(1, 9), b.li(2, 0), b.mod(3, 1, 2)), 3) == 0


def test_zero_register_is_immutable():
    assert _run_and_register(lambda b: (b.li(0, 55), b.addi(3, 0, 1)), 3) == 1


def test_load_store_roundtrip():
    def body(b):
        addr = b.alloc_words(2, 0)
        b.li(10, addr)
        b.li(2, 1234)
        b.store(10, 2, WORD_BYTES)
        b.load(3, 10, WORD_BYTES)
    assert _run_and_register(body, 3) == 1234


def test_uninitialised_memory_reads_zero():
    def body(b):
        b.li(10, 0x9000)
        b.load(3, 10, 0)
    assert _run_and_register(body, 3) == 0


def test_conditional_branches_follow_semantics():
    def body(b):
        b.li(1, 0)
        b.li(3, 0)
        b.beqz(1, "taken")
        b.li(3, 111)
        b.label("taken")
        b.addi(3, 3, 1)
    assert _run_and_register(body, 3) == 1


def test_call_and_ret_use_link_register():
    def body(b):
        b.li(5, 0)
        b.call("func")
        b.addi(5, 5, 100)
        b.jump("end")
        b.label("func")
        b.addi(5, 5, 1)
        b.ret()
        b.label("end")
        b.nop()
    assert _run_and_register(body, 5) == 101


def test_trace_records_branch_outcomes_and_addresses():
    b = ProgramBuilder("trace")
    data = b.alloc_array([1, 2])
    b.li(1, 2)
    b.li(10, data)
    b.label("loop")
    b.load(2, 10, 0)
    b.addi(10, 10, WORD_BYTES)
    b.addi(1, 1, -1)
    b.bnez(1, "loop")
    b.halt()
    program = b.build()
    for _ in engines():
        trace = Emulator(program).run(max_instructions=1_000_000)
        loads = [e for e in trace if e.is_load]
        assert [e.effective_address for e in loads] == [data, data + WORD_BYTES]
        branches = [e for e in trace if e.is_branch]
        assert [e.taken for e in branches] == [True, False]
        assert [e.result for e in loads] == [1, 2]
        assert all(e.taken is None and e.effective_address is None
                   for e in trace if e.op_class is OpClass.INT_ALU)
        assert trace[-1].taken is None and trace[-1].result is None
        assert trace.completed


def test_invalid_pc_raises_on_both_engines():
    def body(b):
        b.li(31, 999)
        b.ret()
    program = _build(body)
    for _ in engines():
        with pytest.raises(RuntimeError,
                           match="control transfer to invalid pc 999 from pc 1"):
            Emulator(program).run(max_instructions=100)


def test_strict_mode_raises_on_instruction_limit():
    b = ProgramBuilder("infinite")
    b.label("spin")
    b.jump("spin")
    b.halt()
    program = b.build()
    for engine in engines():
        with pytest.raises(ExecutionLimitExceeded,
                           match="'infinite' did not halt within 50 instructions"):
            Emulator(program).run(max_instructions=50, strict=True)
        emulator, trace = _emulate(program, engine, max_instructions=50)
        assert not trace.completed and not emulator.halted
        assert len(trace) == 50


def test_reset_restores_initial_state():
    b = ProgramBuilder("reset")
    addr = b.alloc_words(1, 7)
    b.li(10, addr)
    b.load(1, 10, 0)
    b.addi(1, 1, 1)
    b.store(10, 1, 0)
    b.halt()
    program = b.build()
    states = []
    for _ in engines():
        emulator = Emulator(program)
        first = emulator.run()
        second = emulator.run()
        assert [e.result for e in first] == [e.result for e in second]
        states.append((emulator.registers, emulator.memory, emulator.pc,
                       _columns(second)))
    assert states[0][1] == {addr: 8}
    assert all(state == states[0] for state in states)


def test_native_and_python_columns_agree_on_every_workload():
    """All 34 workloads at the quick window (warm-up + timed + tail)."""
    runner = ExperimentRunner(quick=True, disk_cache=False)
    limit = runner.warmup_instructions + runner.timed_instructions + 1000
    available = list(engines())
    if available == ["python"]:
        pytest.skip("no C compiler: the native emulator cannot be built")
    for workload in all_workloads():
        program = workload.build_program()
        runs = {}
        for engine in engines():
            emulator, trace = _emulate(program, engine, max_instructions=limit)
            runs[engine] = (_columns(trace), emulator.registers,
                            emulator.memory, emulator.pc, emulator.halted)
        assert runs["native"] == runs["python"], workload.name


def test_trace_class_mix_and_counts(stream_trace):
    counts = stream_trace.pc_execution_counts()
    assert sum(counts.values()) == len(stream_trace)
    # The column summary agrees with counting the objects, in order of
    # first execution.
    objects = {}
    for entry in stream_trace:
        objects[entry.pc] = objects.get(entry.pc, 0) + 1
    assert list(counts.items()) == list(objects.items())


def test_trace_window_slices_entries(stream_trace):
    window = stream_trace.window(10, 50)
    assert len(window) == 50
    assert window[0].seq == stream_trace[10].seq


def test_filtered_entry_list_keeps_its_seqs(small_stream_program):
    """A selection carries its rows' own seqs (an explicit ``seq``
    column), and builds the filtered entries."""
    trace = Emulator(small_stream_program).run(max_instructions=3000)
    loads = frozenset(inst.pc for inst in small_stream_program if inst.is_load)
    filtered = [entry for entry in trace.entries if entry.static.pc in loads]
    selection = trace.select(loads)
    assert list(selection.columns.seqs()) == [entry.seq for entry in filtered]
    assert selection.entries == filtered
    # A window's consecutive seqs need no column.
    assert trace.window(5, 45).columns.seq is None
    assert trace.window(7, 400).select(loads).entries == [
        entry for entry in trace.entries[7:407] if entry.static.pc in loads]
    # Keys follow content: a selection of a selection keys as the one
    # selection of the common PCs, and so do its rows.
    some = frozenset(sorted(loads)[:1])
    twice = trace.select(loads).select(some)
    assert twice.key == trace.select(some).key
    assert twice.entries == trace.select(some).entries


def test_column_window_builds_the_same_entries(small_stream_program):
    trace = Emulator(small_stream_program).run(max_instructions=3000)
    window = trace.window(1000, 500)          # no objects exist yet
    entries = trace.entries[1000:1500]
    assert window.entries == entries
    assert window.entries is window.entries
    assert [e.seq for e in window.entries] == list(range(1000, 1500))
    assert all(e.static is small_stream_program[e.pc] for e in window.entries)


def test_static_table_wraps_values_beyond_int64_like_the_word_path():
    from array import array

    from repro.emulator.machine import _static_table, _to_signed

    builder = ProgramBuilder()
    base = builder.alloc_words(4, [1, 2 ** 63, -(2 ** 63) - 1, -5])
    builder.halt()
    program = builder.build()
    table = _static_table(program)
    assert table is not None
    addresses, values = table[-2:]
    assert addresses == array("q", [base + i * WORD_BYTES for i in range(4)])
    assert values == array("q", (_to_signed(v) for v in program.data.values()))
    assert list(values) == [1, -(2 ** 63), 2 ** 63 - 1, -5]


def test_alloc_words_keeps_the_data_image_insertion_order():
    builder = ProgramBuilder()
    builder.poke(0x10000 + WORD_BYTES, 1)      # inside the first allocation
    first = builder.alloc_words(3, [7, 8, 9])
    second = builder.alloc_words(2)
    assert first == 0x10000
    # A poked word keeps its place; the rest follow in address order.
    assert list(builder._data.items()) == [
        (first + WORD_BYTES, 8), (first, 7), (first + 2 * WORD_BYTES, 9),
        (second, 0), (second + WORD_BYTES, 0)]
