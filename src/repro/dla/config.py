"""Configuration of the DLA support structures and R3 optimizations."""

from __future__ import annotations

from dataclasses import dataclass, replace

#: The keywords of :meth:`DlaConfig.with_optimizations`.
OPTIMIZATIONS = ("t1", "value_reuse", "fetch_buffer")


@dataclass(frozen=True)
class DlaConfig:
    """Parameters of the DLA / R3-DLA hardware support (Table I, bottom).

    Three R3 optimizations (T1 offload, value reuse, the big fetch buffer)
    are toggled individually here, which is how the synergy analysis of
    Fig. 13c and the per-technique breakdowns are run.  The fourth,
    recycling, is not a flag: a run recycles skeletons when it is simulated
    as a segmented cell (``ExperimentRunner.dla_segmented``), which reads
    the recycle parameters below.  Immutable: derive a variant with
    :func:`dataclasses.replace` or one of the helpers below.
    """

    # -- queues connecting the two cores ---------------------------------
    boq_entries: int = 512
    fq_entries: int = 128
    #: One-way latency (cycles) for a hint to cross from LT's core to MT's.
    hint_transfer_latency: int = 8

    # -- reboot behaviour -------------------------------------------------
    #: Cycles to copy architectural registers from MT to LT on a reboot.
    reboot_penalty: int = 64

    # -- hint quality ------------------------------------------------------
    #: Per-dynamic-branch probability that the BOQ direction is wrong when the
    #: branch's slice depends on memory state the skeleton may have skipped.
    risky_branch_error_rate: float = 0.002
    #: Per-dynamic-branch error probability for fully-sliced branches.
    safe_branch_error_rate: float = 0.00005
    #: Per-use probability that a reused value differs from the architectural
    #: one (the paper observes >98% of LT results match MT).
    value_error_rate: float = 0.005

    # -- R3 optimization toggles -------------------------------------------
    enable_t1: bool = False
    enable_value_reuse: bool = False
    enable_fetch_buffer: bool = False

    # -- R3 structure sizes (Table I) ---------------------------------------
    t1_entries: int = 16
    #: Main-thread fetch buffer when the FB optimization is enabled.
    fetch_buffer_entries: int = 32
    #: Baseline main-thread fetch buffer (conventional front end).
    baseline_fetch_buffer_entries: int = 8
    lct_entries: int = 16

    # -- value reuse parameters ---------------------------------------------
    #: Dispatch-to-execute latency (cycles) above which an instruction is
    #: considered "slow" and worth a value prediction.
    slow_instruction_threshold: float = 20.0

    # -- recycle parameters ---------------------------------------------------
    #: Minimum dynamic instructions for a loop unit to be tuned independently.
    loop_unit_min_instructions: int = 2000
    #: Dynamic-tuning trial length per version, in instructions.
    recycle_trial_instructions: int = 400

    # -- co-simulation control -------------------------------------------------
    #: Random seed for hint-error sampling (deterministic experiments).
    seed: int = 2019

    def r3(self) -> "DlaConfig":
        """A copy with T1, value reuse and the fetch buffer enabled.

        With recycling, which is the segmented cell kind rather than a
        flag, this is the full R3-DLA.
        """
        return self.with_optimizations(t1=True, value_reuse=True,
                                       fetch_buffer=True)

    def baseline_dla(self) -> "DlaConfig":
        """A copy with every R3 optimization disabled (the baseline DLA)."""
        return self.with_optimizations()

    def with_optimizations(self, *, t1: bool = False, value_reuse: bool = False,
                           fetch_buffer: bool = False) -> "DlaConfig":
        """A copy with exactly the named optimizations enabled.

        The keywords are :data:`OPTIMIZATIONS`; recycling is chosen by the
        segmented cell kind, not here.
        """
        return replace(
            self,
            enable_t1=t1,
            enable_value_reuse=value_reuse,
            enable_fetch_buffer=fetch_buffer,
        )
