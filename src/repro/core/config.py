"""Core and system configuration (Table I of the paper)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.memory.hierarchy import MemoryHierarchyConfig
from repro.memory.resources import WriteBufferConfig


@dataclass(frozen=True)
class CoreConfig:
    """Microarchitectural parameters of one core.

    Defaults follow Table I: a 4-wide out-of-order core with a 192-entry
    ROB, a 96-entry LSQ, 4 integer ALUs, 2 memory ports and 4 FP units, a
    4K-entry BTB and a 32-entry RAS.  The direction predictor is always the
    TAGE-lite model.  Physical register files, pipeline depth and issue
    width are not modelled: rename never stalls, the front-end latency and
    the mispredict penalty stand in for depth, and issue is bounded by the
    functional units.
    """

    name: str = "core"
    fetch_width: int = 4
    decode_width: int = 4
    commit_width: int = 4
    rob_entries: int = 192
    lsq_entries: int = 96
    num_int_alus: int = 4
    num_mem_ports: int = 2
    num_fp_units: int = 4
    #: Cycles from fetch redirect to first useful fetch after a misprediction.
    branch_mispredict_penalty: int = 14
    #: Front-end (fetch to dispatch) latency in cycles.
    frontend_latency: int = 5
    #: Capacity of the fetch (decode-decoupling) buffer, in instructions.
    #: 8 is the conventional baseline; the R3-DLA "FB" optimization grows it
    #: to 32 (Table I, R3-DLA support).
    fetch_buffer_entries: int = 8
    btb_entries: int = 4096
    ras_entries: int = 32
    #: Penalty charged when a value prediction turns out wrong (replay).
    value_mispredict_penalty: int = 12

    def scaled(self, factor: float, name: Optional[str] = None) -> "CoreConfig":
        """A copy with widths and window sizes scaled by ``factor``.

        Used to derive the wide SMT core and its half-core of Fig. 11.
        """
        return replace(
            self,
            name=name or f"{self.name}-x{factor:g}",
            fetch_width=max(1, int(self.fetch_width * factor)),
            decode_width=max(1, int(self.decode_width * factor)),
            commit_width=max(1, int(self.commit_width * factor)),
            rob_entries=max(16, int(self.rob_entries * factor)),
            lsq_entries=max(8, int(self.lsq_entries * factor)),
            num_int_alus=max(1, int(self.num_int_alus * factor)),
            num_mem_ports=max(1, int(self.num_mem_ports * factor)),
            num_fp_units=max(1, int(self.num_fp_units * factor)),
        )


@dataclass(frozen=True)
class SystemConfig:
    """A complete single-core (or per-core) system configuration.

    Immutable, like every config it holds: derive a variant with
    :func:`dataclasses.replace` or one of the ``with_*`` helpers below.
    """

    core: CoreConfig = field(default_factory=CoreConfig)
    memory: MemoryHierarchyConfig = field(default_factory=MemoryHierarchyConfig)
    #: L2 prefetcher name ("bop" in the paper's baseline, "none" for noPF).
    l2_prefetcher: str = "bop"
    #: Optional additional L1 prefetcher ("stride" in Sec. IV-C1 comparisons).
    l1_prefetcher: str = "none"

    def with_overrides(self, **core_overrides) -> "SystemConfig":
        """A copy of this config with selected core fields replaced."""
        return replace(self, core=replace(self.core, **core_overrides))

    def without_prefetchers(self) -> "SystemConfig":
        """A copy with every hardware prefetcher disabled (the "noPF" axis).

        Uses ``replace`` so every other field carries over; the campaign
        layer and the runner presets must materialise identical configs or
        their fingerprints diverge.
        """
        return replace(self, l2_prefetcher="none", l1_prefetcher="none")

    def with_l1_stride(self) -> "SystemConfig":
        """A copy with an added L1 stride prefetcher (Sec. IV-C1)."""
        return replace(self, l1_prefetcher="stride")

    def with_mshr_entries(self, entries: Optional[int]) -> "SystemConfig":
        """A copy with every cache level's MSHR file set to ``entries``.

        ``None`` makes every file unbounded (infinite memory-level
        parallelism — the pre-MSHR-model behaviour); an integer caps the
        outstanding misses of each level uniformly, which is the knob the
        ``mshr:*`` sensitivity campaigns sweep.
        """
        memory = replace(
            self.memory,
            l1i=replace(self.memory.l1i, mshr_entries=entries),
            l1d=replace(self.memory.l1d, mshr_entries=entries),
            l2=replace(self.memory.l2, mshr_entries=entries),
            l3=replace(self.memory.l3, mshr_entries=entries),
        )
        return replace(self, memory=memory)

    def with_mshr_banks(self, banks: Optional[int]) -> "SystemConfig":
        """A copy with every cache level's MSHR file split into ``banks``
        address-interleaved banks (``None``/``0``/``1`` = the single file).
        Bank conflict stalls are counted separately from capacity stalls;
        the per-level entry count must divide evenly across the banks.

        The inert spellings normalise to ``None`` so an un-banked machine
        has exactly one content fingerprint (one cache slot) no matter how
        it was written.
        """
        if banks is not None and banks <= 1:
            banks = None
        memory = replace(
            self.memory,
            l1i=replace(self.memory.l1i, mshr_banks=banks),
            l1d=replace(self.memory.l1d, mshr_banks=banks),
            l2=replace(self.memory.l2, mshr_banks=banks),
            l3=replace(self.memory.l3, mshr_banks=banks),
        )
        return replace(self, memory=memory)

    def with_write_buffer(self, entries: Optional[int]) -> "SystemConfig":
        """A copy with an ``entries``-deep victim write buffer on every
        write-allocating level (L1D/L2/L3; the I-cache never holds dirty
        lines).  ``None`` removes the buffers — dirty victims drain
        instantly, the pre-model behaviour.
        """
        buffer = None if entries is None else WriteBufferConfig(entries=entries)
        memory = replace(
            self.memory,
            l1d=replace(self.memory.l1d, write_buffer=buffer),
            l2=replace(self.memory.l2, write_buffer=buffer),
            l3=replace(self.memory.l3, write_buffer=buffer),
        )
        return replace(self, memory=memory)

    def with_dram_queue(self, depth: Optional[int],
                        groups: Optional[int] = None) -> "SystemConfig":
        """A copy with DRAM controller read/write queues of ``depth`` slots
        per bank group (``None`` = unbounded, the pre-model behaviour).
        ``groups`` optionally overrides the bank-group count; it is ignored
        while ``depth`` is ``None`` (the knob would be inert but would
        still split the unbounded machine's content fingerprint).
        """
        dram = replace(self.memory.dram, queue_depth=depth)
        if groups is not None and depth is not None:
            dram = replace(dram, queue_groups=groups)
        return replace(self, memory=replace(self.memory, dram=dram))

    def with_memsys(self, mshr_entries=..., mshr_banks=...,
                    write_buffer_entries=..., dram_queue_depth=...) -> "SystemConfig":
        """A copy with any subset of the memory-backend contention knobs set.

        Unpassed knobs keep their current values; each passed knob accepts
        ``None`` for "unbounded / model off".  This is the single entry
        point the sweeps and campaign variants materialise through, so the
        declarative and imperative spellings fingerprint identically.
        """
        config = self
        if mshr_entries is not ...:
            config = config.with_mshr_entries(mshr_entries)
        if mshr_banks is not ...:
            config = config.with_mshr_banks(mshr_banks)
        if write_buffer_entries is not ...:
            config = config.with_write_buffer(write_buffer_entries)
        if dram_queue_depth is not ...:
            config = config.with_dram_queue(dram_queue_depth)
        return config


def smt_full_core_config() -> CoreConfig:
    """The wide SMT core of Sec. IV-B3 (loosely POWER9 SMT8-like).

    Fetch/decode/commit of 16/12/16 with a 512-entry ROB; it can also
    operate as two independent half-cores.
    """
    return CoreConfig(
        name="smt-full",
        fetch_width=16,
        decode_width=12,
        commit_width=16,
        rob_entries=512,
        lsq_entries=256,
        num_int_alus=8,
        num_mem_ports=4,
        num_fp_units=8,
    )


def sm_half_core_config() -> CoreConfig:
    """One half of the wide SMT core (the normalisation baseline of Fig. 11)."""
    full = smt_full_core_config()
    half = full.scaled(0.5, name="smt-half")
    return half
