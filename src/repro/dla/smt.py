"""SMT-core usage scenarios (Sec. IV-B3, Fig. 11).

The paper's final experiment asks: given one wide SMT core (loosely modelled
after an IBM POWER9 SMT8 core that can also operate as two independent
half-cores), what is the best way to spend it on a single program?

* **FC** — use the whole wide core for single-thread execution;
* **DLA** — split it into two half-cores and run the main thread on one and
  the look-ahead thread on the other;
* **R3-DLA** — the same split, with the R3 optimizations enabled;
* **SMT** — run two independent copies of the program, one per hardware
  thread, and report combined throughput (a throughput reference point, not a
  single-thread option).

All results are normalised to a single half-core (HC).

The module exposes each scenario as an independently-simulatable piece
(:func:`smt_configs`, :func:`simulate_smt_pair`, the ordinary baseline/DLA
entry points) plus :func:`comparison_from_outcomes` to assemble the figure:
each piece is a cell kind of :mod:`repro.experiments.runner` (``smt-hc`` to
``smt-pair``), planned by :mod:`repro.experiments.fig11_smt`'s campaign.
:func:`simulate_smt_modes` remains the uncached one-call composition of the
same pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.config import SystemConfig, sm_half_core_config, smt_full_core_config
from repro.core.pipeline import OutOfOrderCore
from repro.core.results import CoreResult
from repro.core.system import simulate_baseline
from repro.dla.config import DlaConfig
from repro.dla.profiling import ProgramProfile
from repro.dla.system import DlaSystem
from repro.emulator.trace import Trace
from repro.isa.program import Program
from repro.memory.hierarchy import CoreMemorySystem, SharedMemorySystem
from repro.prefetch import make_prefetcher


@dataclass
class SmtComparison:
    """Throughput of each usage scenario, normalised to the half-core."""

    half_core_ipc: float
    full_core: float
    dla: float
    r3_dla: float
    smt: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "FC": self.full_core,
            "DLA": self.dla,
            "R3-DLA": self.r3_dla,
            "SMT": self.smt,
        }


@dataclass
class SmtPairOutcome:
    """Two-copy SMT throughput run: per-copy results and combined IPC."""

    copies: List[CoreResult]

    @property
    def ipc(self) -> float:
        total = 0.0
        for copy in self.copies:
            total += copy.ipc
        return total

    @property
    def committed(self) -> int:
        return sum(copy.committed for copy in self.copies)


def smt_configs(base_config: Optional[SystemConfig] = None) -> Tuple[SystemConfig, SystemConfig]:
    """The (half-core, full-core) system configs derived from ``base_config``.

    Only the core changes (sized exactly as Fig. 11); everything else —
    memory hierarchy, prefetchers and any future fields — carries over via
    ``replace`` so the derived configs (and therefore the auxiliary-cache
    fingerprints) track the base config faithfully.
    """
    base_config = base_config or SystemConfig()
    half_cfg = replace(base_config, core=sm_half_core_config())
    full_cfg = replace(base_config, core=smt_full_core_config())
    return half_cfg, full_cfg


def simulate_smt_pair(trace: Trace, config: SystemConfig) -> SmtPairOutcome:
    """Two copies of the benchmark sharing the L3/DRAM (the SMT scenario).

    Each copy gets half of the wide core's resources (the SMT partitioning);
    the copies are simulated back to back against one shared memory system so
    that they contend for L3 capacity and DRAM bandwidth.
    """
    half = config.with_overrides(**vars(sm_half_core_config()))
    shared = SharedMemorySystem(half.memory)
    copies: List[CoreResult] = []
    for copy_index in range(2):
        # Each copy restarts the simulated clock: quiesce the shared MSHR
        # file so the previous copy's in-flight arrival times cannot alias
        # into the new time base (L3 *contents* intentionally carry over).
        shared.drain_mshrs()
        memory = CoreMemorySystem(shared, half.memory)
        l2_pf = (
            make_prefetcher(half.l2_prefetcher)
            if half.l2_prefetcher not in (None, "none")
            else None
        )
        core = OutOfOrderCore(half.core, memory, l2_prefetcher=l2_pf,
                              name=f"smt-copy-{copy_index}")
        copies.append(core.run(trace))
    return SmtPairOutcome(copies=copies)


def comparison_from_outcomes(half_outcome, full_outcome, dla_outcome,
                             r3_outcome, pair_outcome) -> SmtComparison:
    """Assemble the Fig. 11 comparison from the five scenario outcomes."""
    half_ipc = half_outcome.ipc or 1e-9
    return SmtComparison(
        half_core_ipc=half_ipc,
        full_core=full_outcome.ipc / half_ipc,
        dla=dla_outcome.ipc / half_ipc,
        r3_dla=r3_outcome.ipc / half_ipc,
        smt=pair_outcome.ipc / half_ipc,
    )


def simulate_smt_modes(
    program: Program,
    trace: Trace,
    profile: ProgramProfile,
    base_config: Optional[SystemConfig] = None,
    dla_config: Optional[DlaConfig] = None,
) -> SmtComparison:
    """Run the four usage scenarios of Fig. 11 for one workload (uncached)."""
    dla_config = dla_config or DlaConfig()
    half_cfg, full_cfg = smt_configs(base_config)

    half_outcome = simulate_baseline(trace, half_cfg)
    full_outcome = simulate_baseline(trace, full_cfg)

    dla_system = DlaSystem(program, half_cfg, dla_config.baseline_dla(), profile=profile)
    dla_outcome = dla_system.simulate(trace)

    r3_system = DlaSystem(program, half_cfg, dla_config.r3(), profile=profile)
    r3_outcome = r3_system.simulate(trace)

    pair_outcome = simulate_smt_pair(trace, full_cfg)
    return comparison_from_outcomes(
        half_outcome, full_outcome, dla_outcome, r3_outcome, pair_outcome
    )
