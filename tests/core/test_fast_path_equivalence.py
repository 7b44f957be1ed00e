"""Equivalence of the decoded fast path with the original object path.

The decoded-trace fast path (plain-attribute instruction metadata, int FU
pool codes, heap-based unit scheduling) is a pure performance change: every
simulation statistic must stay *bit-identical* to what the enum-property
implementation produced.  ``tests/data/golden_equivalence.json`` holds
reference outputs for three small kernels under BL, DLA and R3-DLA
configurations, in three sections:

* ``"default"`` — the stock :class:`SystemConfig` (bounded MSHR files, the
  shipping timing model; no write buffers or DRAM queues);
* ``"unbounded"`` — every MSHR file unbounded, which makes the MSHR model
  inert.  This section's values are the original object-path capture from
  before the MSHR model existed: their continued equality proves the
  contention models are the *only* source of timing divergence;
* ``"contended"`` — the full memory-backend contention machine (tight
  banked MSHRs, victim write buffers, bounded DRAM controller queues),
  pinning the banked-MSHR + write-buffer + DRAM-queue timing paths.

These tests assert exact equality — no tolerances.  The golden file is
regenerated deliberately (never by hand-editing) with
``tools/regen_golden.py``, which reuses :func:`capture_golden` below so the
tool and the tests can never drift.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import SystemConfig
from repro.core.system import simulate_baseline
from repro.dla.config import DlaConfig
from repro.dla.profiling import profile_workload
from repro.dla.system import DlaSystem
from repro.emulator.machine import Emulator
from repro.isa.instructions import (
    _CONDITIONAL_OPCODES,
    _CONTROL_CLASSES,
    _MEMORY_CLASSES,
    _OPCODE_CLASS,
    INSTRUCTION_BYTES,
    LatencyClass,
    OP_CLASS_CODE,
    OPCODE_META,
    Opcode,
    OpClass,
)
from repro.isa.registers import ZERO_REGISTER
from repro.util.rng import DeterministicRng
from repro.workloads.kernels import build_kernel

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_equivalence.json"

#: Kernel constructions must match the golden capture exactly.
KERNELS = {
    "stream": ("stream_sum", dict(elements=384, passes=3, payload=6), 11),
    "chase": ("pointer_chase", dict(nodes=128, hops=600, payload=8), 12),
    "branchy": ("branchy_compute", dict(elements=600, taken_bias=0.5, payload=5), 13),
}
#: Extra kernels captured only by the "contended" section: the stock golden
#: kernels' timed windows contain no stores at all, so without a store-heavy
#: kernel the write-buffer machinery would be pinned in name only.
CONTENDED_KERNELS = {
    "triad": ("stream_triad", dict(elements=1200, payload=4), 14),
}
WARMUP, TIMED = 2000, 4000


def _contended_config() -> SystemConfig:
    """The fully contended memory backend the "contended" section pins.

    Every contention resource is tightened until it demonstrably fires on
    the golden kernels (banked MSHRs down to one entry per bank, depth-1
    victim write buffers, depth-1 DRAM read/write queues), and the
    data-side caches are shrunk so the tiny kernels actually stream dirty
    victims through the write buffers instead of fitting residently.
    """
    from dataclasses import replace

    config = SystemConfig().with_memsys(
        mshr_entries=2, mshr_banks=2, write_buffer_entries=1,
        dram_queue_depth=1,
    )
    memory = replace(
        config.memory,
        l1d=replace(config.memory.l1d, size_bytes=2 * 1024),
        l2=replace(config.memory.l2, size_bytes=8 * 1024),
        l3=replace(config.memory.l3, size_bytes=64 * 1024),
    )
    return replace(config, memory=memory)


#: Golden sections: section name -> simulation SystemConfig factory.  The
#: training profile is always built from the stock config (matching the
#: original capture); only the simulated machine varies.
SYSTEM_PROFILES = {
    "default": lambda: SystemConfig(),
    "unbounded": lambda: SystemConfig().with_mshr_entries(None),
    "contended": _contended_config,
}


def section_kernels(section: str) -> dict:
    """The kernel set one golden section captures."""
    if section == "contended":
        return {**KERNELS, **CONTENDED_KERNELS}
    return KERNELS


#: Every (section, kernel) cell of the golden matrix.
SECTION_KERNEL_PAIRS = [
    (section, kernel)
    for section in sorted(SYSTEM_PROFILES)
    for kernel in sorted(section_kernels(section))
]


def _core_fields(core):
    return {
        "cycles": core.cycles,
        "committed": core.committed,
        "branches": core.branches,
        "branch_mispredicts": core.branch_mispredicts,
        "l1d_accesses": core.l1d_accesses,
        "l1d_misses": core.l1d_misses,
        "l2_misses": core.l2_misses,
        "l1i_misses": core.l1i_misses,
        "dram_accesses": core.dram_accesses,
        "btb_misses": core.btb_misses,
        "decoded": core.decoded,
        "executed": core.executed,
        "fetch_bubbles": core.fetch_bubbles,
    }


def capture_baseline(timed, warmup, config):
    """The compared field-dict of one baseline simulation."""
    outcome = simulate_baseline(timed, config, warmup_entries=warmup)
    return {
        **_core_fields(outcome.core),
        "energy_total": outcome.energy.total,
        "memory_traffic": outcome.memory_traffic,
        "dram_energy": outcome.dram_energy,
    }


def capture_dla(program, timed, warmup, profile, config, dla_config):
    """The compared field-dict of one DLA co-simulation."""
    system = DlaSystem(program, config, dla_config, profile=profile)
    outcome = system.simulate(timed, warmup_entries=warmup)
    return {
        "main": _core_fields(outcome.main),
        "lookahead": _core_fields(outcome.lookahead),
        "skeleton_dynamic_fraction": outcome.skeleton_dynamic_fraction,
        "reboots": outcome.reboots,
        "boq_incorrect": outcome.boq_incorrect,
        "prefetch_hints_installed": outcome.prefetch_hints_installed,
        "communication_bits_per_instruction": outcome.communication_bits_per_instruction,
        "validations_skipped": outcome.validations_skipped,
        "memory_traffic": outcome.memory_traffic,
        "dram_energy": outcome.dram_energy,
        "cpu_energy": outcome.cpu_energy,
    }


def prepare_kernels():
    """Programs, trace windows and profiles, exactly as the golden capture."""
    out = {}
    for name, (kind, kwargs, seed) in {**KERNELS, **CONTENDED_KERNELS}.items():
        program = build_kernel(kind, rng=DeterministicRng(seed),
                               name=f"golden-{name}", **kwargs)
        trace = Emulator(program).run(max_instructions=WARMUP + TIMED + 1000)
        config = SystemConfig()
        profile = profile_workload(program, trace.window(0, WARMUP + 2000),
                                   config, timing_window=2000)
        out[name] = (
            program,
            trace.window(0, WARMUP),
            trace.window(WARMUP, TIMED),
            profile,
            config,
        )
    return out


def capture_golden(prepared=None):
    """The full golden structure ({section: {kernel: {bl, dla, r3}}}).

    ``tools/regen_golden.py`` calls this to regenerate the data file; the
    tests below compare the stored file against the same captures.
    """
    prepared = prepared or prepare_kernels()
    golden = {}
    for section, config_factory in SYSTEM_PROFILES.items():
        config = config_factory()
        by_kernel = {}
        for kernel in section_kernels(section):
            program, warmup, timed, profile, _ = prepared[kernel]
            by_kernel[kernel] = {
                "bl": capture_baseline(timed, warmup, config),
                "dla": capture_dla(program, timed, warmup, profile, config,
                                   DlaConfig().baseline_dla()),
                "r3": capture_dla(program, timed, warmup, profile, config,
                                  DlaConfig().r3()),
            }
        golden[section] = by_kernel
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def prepared():
    """Program, trace windows and profile per kernel (built once)."""
    return prepare_kernels()


# ---------------------------------------------------------------------------
# instruction metadata: decoded attributes == enum-derived classification
# ---------------------------------------------------------------------------
def test_decoded_metadata_matches_enum_path(prepared):
    for program, _, _, _, _ in prepared.values():
        for inst in program:
            op_class = _OPCODE_CLASS[inst.opcode]
            assert inst.op_class is op_class
            assert inst.class_code == OP_CLASS_CODE[op_class]
            assert inst.is_branch == (inst.opcode in _CONDITIONAL_OPCODES)
            assert inst.is_control == (op_class in _CONTROL_CLASSES)
            assert inst.is_memory == (op_class in _MEMORY_CLASSES)
            assert inst.is_load == (op_class is OpClass.LOAD)
            assert inst.is_store == (op_class is OpClass.STORE)
            assert inst.execution_latency == LatencyClass.latency_of(op_class)
            assert inst.latency_cycles == float(inst.execution_latency)
            assert inst.writes_register == (
                inst.dst is not None and inst.dst != ZERO_REGISTER
            )
            assert inst.byte_address == inst.pc * INSTRUCTION_BYTES


def test_opcode_meta_table_is_total():
    assert set(OPCODE_META) == set(Opcode)
    for meta in OPCODE_META.values():
        assert meta.latency_cycles == float(meta.execution_latency)


# ---------------------------------------------------------------------------
# whole-system equivalence against the captured object-path reference
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("section,kernel", SECTION_KERNEL_PAIRS)
def test_baseline_outputs_bit_identical(golden, prepared, section, kernel):
    program, warmup, timed, profile, _ = prepared[kernel]
    config = SYSTEM_PROFILES[section]()
    actual = capture_baseline(timed, warmup, config)
    assert actual == golden[section][kernel]["bl"]


@pytest.mark.parametrize("section,kernel", SECTION_KERNEL_PAIRS)
@pytest.mark.parametrize("config_name", ["dla", "r3"])
def test_dla_outputs_bit_identical(golden, prepared, section, kernel, config_name):
    program, warmup, timed, profile, _ = prepared[kernel]
    config = SYSTEM_PROFILES[section]()
    dla_config = DlaConfig().baseline_dla() if config_name == "dla" else DlaConfig().r3()
    actual = capture_dla(program, timed, warmup, profile, config, dla_config)
    assert actual == golden[section][kernel][config_name]


#: SHA-256 of the canonical-JSON "unbounded" section.  This is the digest of
#: the original pre-MSHR-model object-path capture; because the regen tool
#: rewrites the whole data file, this pinned constant is what actually
#: enforces "unbounded MSHRs reproduce the pre-model machine bit-for-bit".
#: It may only change together with a deliberate change to the capture
#: itself (kernels, windows, compared fields) — never because of the MSHR
#: model's timing.
UNBOUNDED_SECTION_SHA256 = (
    "ce2b5b33f1ea7bd6337f873760be8c8d808c8e7078967cb46eacdb5148ccb42b"
)


def test_unbounded_section_pinned_to_pre_mshr_capture(golden):
    """The unbounded section must equal the pre-MSHR-model object-path
    capture: identical values in both sections would also be fine (the tiny
    golden kernels never fill a 32-entry file), but the *unbounded* section
    is the one contractually pinned — a regen that moves it means the MSHR
    model leaked timing into the unbounded path."""
    import hashlib

    assert set(golden) == set(SYSTEM_PROFILES)
    for section in golden:
        assert set(golden[section]) == set(section_kernels(section))
    digest = hashlib.sha256(
        json.dumps(golden["unbounded"], sort_keys=True).encode()
    ).hexdigest()
    assert digest == UNBOUNDED_SECTION_SHA256
