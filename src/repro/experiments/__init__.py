"""Experiment harness: one module per table/figure of the paper.

Every experiment module declares its configurations once, as the variants
of its ``CAMPAIGN`` spec, and exposes ``run(runner=None)``: the outcomes of
those planned cells (:func:`~repro.experiments.parallel.run_cells`: per
workload, its setup and its outcomes by variant name), then assembly into
a result object with the raw rows and a ``render()``-style text table.  A module builds no
configuration of its own.  What no variant plans it computes at assembly:
fig09's related approaches, fig11's SMT runs, table03's BL / BL+stride miss
split, fig01's ILP study and the analytic fetch-buffer model of fig05 and
fig14.  The campaign scheduler assembles with the same ``run`` over its
warmed caches, and every module can also be executed as a script
(``python -m repro.experiments.fig09_speedup``).  The shared
:class:`~repro.experiments.runner.ExperimentRunner` caches workload traces,
profiles and simulations so that running the whole benchmark suite does
not repeat work.

Mapping to the paper:

========================  =====================================
Module                    Paper artefact
========================  =====================================
``fig01_ilp``             Fig. 1 (implicit parallelism)
``fig05_fetch_model``     Fig. 5 (analytic fetch-buffer model)
``fig09_speedup``         Fig. 9-a and 9-b (overall speedups)
``table02_activity``      Table II (activity / energy / power)
``fig10_energy``          Fig. 10 (CPU and DRAM energy)
``fig11_smt``             Fig. 11 (SMT-core scenarios)
``table03_mpki``          Table III (strided vs. other L1 MPKI)
``fig12_t1``              Fig. 12 (T1 vs. stride prefetcher)
``fig13_breakdown``       Fig. 13-a/b/c (FB, recycle, synergy)
``fig14_queue_validation`` Fig. 14 (model vs. simulated queue)
``fig15_recycle_dist``    Fig. 15 (skeleton version distribution)
``memsys_sweep``          memory-backend machines (beyond the paper)
``mshr_sweep``            MSHR-capacity axis (beyond the paper)
``wb_sweep``              write-buffer-depth axis (beyond the paper)
``dramq_sweep``           DRAM-queue-depth axis (beyond the paper)
========================  =====================================
"""

from repro.experiments.cache import ResultDiskCache
from repro.experiments.fingerprint import code_salt, fingerprint
from repro.experiments.parallel import ParallelExperimentRunner, SimRequest
from repro.experiments.runner import (
    ExperimentRunner,
    RunnerStats,
    SegmentedOutcome,
    WorkloadSetup,
)

__all__ = [
    "ExperimentRunner",
    "ParallelExperimentRunner",
    "ResultDiskCache",
    "RunnerStats",
    "SegmentedOutcome",
    "SimRequest",
    "WorkloadSetup",
    "code_salt",
    "fingerprint",
]
