"""Decoupled Look-Ahead (DLA) and the R3-DLA optimizations.

This package contains the paper's primary contribution:

* :mod:`repro.dla.profiling` — training-run profiling used by the skeleton
  generator (per-PC miss rates, branch bias, stride detection, slow
  instructions).
* :mod:`repro.dla.skeleton` — skeleton construction (Appendix A): seeds,
  backward dependence chains, mask bits, and the multiple skeleton versions
  used by the recycle optimization.
* :mod:`repro.dla.queues` — the Branch Outcome Queue (BOQ) and Footnote
  Queue (FQ) connecting the look-ahead core to the main core.
* :mod:`repro.dla.t1` — the T1 strided-prefetch offload engine (Reduce).
* :mod:`repro.dla.value_reuse` — the validation-skipping scoreboard (Reuse
  of values).
* :mod:`repro.dla.analytic` — the Markov-chain fetch-buffer model of
  Appendix B (Reuse of control-flow information).  Not imported here: it
  needs numpy, which only the fig05/fig14 experiments load.
* :mod:`repro.dla.recycle` — the skeleton recycling controller and
  Loop-Config Table (Recycle).
* :mod:`repro.dla.system` — the coupled two-core simulation that ties it all
  together, plus the SMT-core operating mode of Sec. IV-B3.
"""

from repro.dla.config import DlaConfig
from repro.dla.profiling import ProgramProfile, profile_workload
from repro.dla.skeleton import Skeleton, SkeletonBuilder, SkeletonOptions
from repro.dla.queues import BranchOutcomeQueue, FootnoteQueue, FootnoteKind
from repro.dla.t1 import T1PrefetchEngine, T1Config
from repro.dla.value_reuse import ValidationScoreboard
from repro.dla.recycle import LoopConfigTable, RecycleController, build_skeleton_versions
from repro.dla.system import DlaOutcome, DlaSystem
from repro.dla.smt import SmtComparison, simulate_smt_modes

__all__ = [
    "DlaConfig",
    "ProgramProfile",
    "profile_workload",
    "Skeleton",
    "SkeletonBuilder",
    "SkeletonOptions",
    "BranchOutcomeQueue",
    "FootnoteQueue",
    "FootnoteKind",
    "T1PrefetchEngine",
    "T1Config",
    "ValidationScoreboard",
    "LoopConfigTable",
    "RecycleController",
    "build_skeleton_versions",
    "DlaSystem",
    "DlaOutcome",
    "SmtComparison",
    "simulate_smt_modes",
]
