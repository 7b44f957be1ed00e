"""Compiled tick pipeline: one native mode, or the reference interpreter.

Setup-time passes replace the interpreted per-instruction loop in
:mod:`repro.core.pipeline` with a compiled kernel that runs the whole
simulation natively:

1. **Plan** (:mod:`repro.core.compile.plan`) — decide once per run whether
   it fits the kernel: stock structures only, and every hook that is set
   covered by a declaration the kernel runs.  A run that does not fit goes
   to the reference interpreter.
2. **Decode** (:mod:`repro.core.compile.decoded`) — gather the program's
   per-PC static rows at the trace window's ``pc`` column into typed
   arrays (natively; no :class:`~repro.emulator.trace.DynamicInst` is
   read), memoized by the window's content key (timing runs over one-shot
   profiling windows decode unmemoized).
3. **Build** (:mod:`repro.core.compile.build`) — compile ``kernel.c`` once
   per interpreter ABI with the system C compiler, cached on disk under
   ``.repro_cache/compiled/``.
4. **Run** (:mod:`repro.core.compile.driver`) — drive the kernel.  The
   branch unit and the whole memory hierarchy (accesses, misses,
   write-backs, MSHRs, write buffers, DRAM, BOP training and wrong-path
   pollution) run natively on the model objects' own arrays, and so do the
   declared hook models: a DLA main thread's hint unit over its columns
   (prefetch-hint installs included; its verdicts are drawn natively too),
   T1, B-Fetch's walker, CRE's table and a look-ahead pass's commit and
   load-miss logs.  The kernel calls no Python while it runs, so dynamic
   state lives exactly where the reference keeps it.  Warm-up replay of a
   stock hierarchy runs on the same kernel (:func:`replay_compiled`).

The reference interpreter carries a run for one of three reasons:
``REPRO_FAST_PIPELINE=0`` is set, the kernel failed to build (no compiler,
compile error: a silent fallback), or the run does not fit the kernel
(the ``interpreted_runs`` entry of :func:`counters`).  The golden
equivalence tests pin both paths to bit-identical results.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.core.results import CoreResult

FAST_PIPELINE_ENV = "REPRO_FAST_PIPELINE"

_FALSEY = {"0", "false", "no", "off"}

#: Process-wide engagement counters of the compiled path, by name.  A new
#: native model adds its counter here; ``counters()`` and perf_smoke's
#: ``--require-compiled`` guard pick it up from the keys.
_COUNTERS: Dict[str, int] = dict.fromkeys((
    "compiled_ticks",         # instructions retired through the kernel
    "native_mem_hits",        # L1/TLB hits it served (tick loops, warm replays)
    "native_mem_misses",      # L1 misses its memory hierarchy served
    "native_hint_branches",   # branch hints its DLA hint unit delivered
    "native_t1_commits",      # committed marked loads its T1 stepped
    "native_verdict_draws",   # hint-verdict draws it made (draw_verdicts)
    "native_bfetch_fetches",  # fetches that stepped its B-Fetch walker
    "native_cre_steps",       # load accesses its CRE table stepped
    "native_emulated",        # instructions its functional emulator executed
    "native_profiled",        # instructions its training-run profiler read
    # Runs the interpreter carried, with the kernel loaded, because they
    # do not fit it.
    "interpreted_runs",
), 0)


def fast_pipeline_enabled() -> bool:
    return os.environ.get(FAST_PIPELINE_ENV, "1").strip().lower() not in _FALSEY


def counters() -> Dict[str, int]:
    """A snapshot of the process-wide engagement counters."""
    return dict(_COUNTERS)


def _count(name: str, count: int) -> None:
    _COUNTERS[name] += count


def compiled_ticks_total() -> int:
    """Process-wide count of instructions retired by the compiled kernel."""
    return _COUNTERS["compiled_ticks"]


def native_kernel():
    """The compiled kernel module, or ``None`` under the kill-switch or
    when it cannot be built."""
    if not fast_pipeline_enabled():
        return None
    from repro.core.compile.build import load_kernel

    return load_kernel()


def kernel_available() -> bool:
    """Whether the compiled kernel can be (or has been) loaded."""
    return native_kernel() is not None


def maybe_run_compiled(core, window, hooks, start_cycle: float,
                       collect_timings: bool) -> Optional[CoreResult]:
    """Run one simulation of ``window`` (a :class:`~repro.emulator.trace.
    Trace`) on the compiled path, or ``None`` to fall back.

    ``None`` means the reference interpreter must carry the run: the
    kill-switch is set, the kernel failed to build, or the run does not fit
    the kernel (:func:`~repro.core.compile.plan.plan_run`).
    """
    kernel = native_kernel()
    if kernel is None:
        return None
    from repro.core.compile.driver import run_compiled
    from repro.core.compile.plan import plan_run

    if not plan_run(core, hooks):
        _count("interpreted_runs", 1)
        return None

    result = run_compiled(kernel, core, window, hooks, start_cycle,
                          collect_timings)
    _count("compiled_ticks", len(window))
    return result


def profile_compiled(memory, window, backward, outputs) -> tuple:
    """The profiling passes over a training ``window`` on the kernel (the
    caller checked :func:`kernel_available`); see
    :func:`repro.dla.profiling.profile_workload`."""
    from repro.core.compile.build import load_kernel
    from repro.core.compile.driver import profile_columns

    return profile_columns(load_kernel(), memory, window, backward, outputs)


def replay_compiled(memory, inputs, cycles_per_access: int) -> None:
    """Warm-up replay of one core's stock hierarchy on the kernel (the
    caller checked :func:`kernel_available` and
    :func:`~repro.core.compile.plan.stock_memory`); ``inputs`` are the
    window's :func:`~repro.core.compile.decoded.replay_inputs`."""
    from repro.core.compile.build import load_kernel
    from repro.core.compile.driver import replay_warmup

    replay_warmup(load_kernel(), memory, inputs, cycles_per_access)
