"""SlipStream processor model.

SlipStream runs a shortened *A-stream* (advance stream) ahead of the complete
*R-stream* (redundant stream).  The A-stream is built by removing
ineffectual instructions — predicted-dead writes and highly biased branches
together with the computation feeding only them — and forwards its outcomes
to the R-stream as predictions.  It is therefore an ancestor of DLA with two
key differences the paper highlights: the A-stream reduction is driven by
dead-code/bias detection rather than by a back-slice from misses and
branches, and the communication is value/outcome-centric rather than a
purpose-built prefetch/branch-hint channel.

The model reuses the DLA co-simulation machinery with a SlipStream-flavoured
"skeleton": only biased branches and dead code are removed (no miss-driven
seeding), and no T1/value-reuse/fetch-buffer support exists.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.config import SystemConfig
from repro.dla.config import DlaConfig
from repro.dla.profiling import ProgramProfile
from repro.dla.skeleton import Skeleton, SkeletonBuilder, SkeletonOptions
from repro.dla.system import DlaOutcome, DlaSystem
from repro.emulator.trace import Trace
from repro.isa.program import Program


@dataclass
class SlipstreamConfig:
    """Parameters of the A-stream construction."""

    #: Branches at least this biased are removed from the A-stream.
    bias_threshold: float = 0.92
    #: The ineffectual-instruction detector removes stores (and their
    #: exclusive backward slices) whose values are never loaded again within
    #: this many dynamic instructions.
    dead_store_window: int = 2000
    #: A-stream outcome errors are costlier to recover than DLA reboots
    #: because the R-stream must also resynchronise its memory image.
    recovery_penalty: int = 96


def _slipstream_skeleton(builder: SkeletonBuilder, config: SlipstreamConfig) -> Skeleton:
    """An A-stream style skeleton: bias-pruned control slice only."""
    options = SkeletonOptions(
        name="slipstream-a-stream",
        # No miss-driven memory seeding: SlipStream does not profile misses.
        l1_miss_threshold=None,
        l2_miss_threshold=0.05,
        include_value_targets=False,
        keep_t1_targets=True,
        biased_branch_threshold=config.bias_threshold,
        max_store_load_distance=config.dead_store_window,
    )
    return builder.build(options, enable_t1=False)


def simulate_slipstream(
    program: Program,
    window: Trace,
    profile: ProgramProfile,
    config: Optional[SystemConfig] = None,
    slipstream: Optional[SlipstreamConfig] = None,
    warmup_entries: Optional[Trace] = None,
    builder: Optional[SkeletonBuilder] = None,
) -> DlaOutcome:
    """Simulate a SlipStream-style two-stream machine.

    ``builder`` is the program's skeleton builder when the caller keeps one
    (a workload setup's), so the program is not analysed again."""
    config = config or SystemConfig()
    slipstream = slipstream or SlipstreamConfig()
    dla_config = DlaConfig().baseline_dla()
    # The A-stream's bias-based pruning makes its control redirections more
    # frequent than DLA's slice-complete skeleton, and each one costs more.
    dla_config = replace(
        dla_config,
        reboot_penalty=slipstream.recovery_penalty,
        risky_branch_error_rate=0.01,
    )
    system = DlaSystem(program, config, dla_config, profile=profile,
                       builder=builder)
    skeleton = _slipstream_skeleton(system.builder, slipstream)
    return system.simulate(window, skeleton=skeleton,
                           warmup_entries=warmup_entries)
