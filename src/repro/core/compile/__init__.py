"""Compiled tick pipeline: one native mode, or the reference interpreter.

Setup-time passes replace the interpreted per-instruction loop in
:mod:`repro.core.pipeline` with a compiled kernel that runs the whole
simulation natively:

1. **Plan** (:mod:`repro.core.compile.plan`) — decide once per run whether
   it fits the kernel: stock structures only, and every hook that is set
   covered by a declaration the kernel runs.  A run that does not fit goes
   to the reference interpreter.
2. **Decode** (:mod:`repro.core.compile.decoded`) — flatten per-opcode
   attributes of the trace window into typed arrays, memoized per window
   (timing runs over one-shot profiling windows decode unmemoized).
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
(counted by :func:`interpreted_runs_total`).  The golden equivalence tests
pin both paths to bit-identical results.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.core.results import CoreResult

FAST_PIPELINE_ENV = "REPRO_FAST_PIPELINE"

_FALSEY = {"0", "false", "no", "off"}

#: Instructions retired through the compiled kernel in this process.
_compiled_ticks = 0

#: L1 hits the kernel served natively (tick loops and warm replays).
_native_mem_hits = 0

#: L1 misses the kernel's native memory hierarchy served (tick loops and
#: warm replays).
_native_mem_misses = 0

#: Branch hints the kernel's native DLA hint unit delivered.
_native_hint_branches = 0

#: Instructions the kernel's functional emulator executed.
_native_emulated = 0

#: Committed marked loads the kernel's native T1 stepped.
_native_t1_commits = 0

#: Hint-verdict draws the kernel made (``draw_verdicts``).
_native_verdict_draws = 0

#: Instructions whose fetch stepped the kernel's native B-Fetch walker.
_native_bfetch_fetches = 0

#: Load accesses the kernel's native CRE table stepped (eligible PCs).
_native_cre_steps = 0

#: Runs the interpreter carried, with the kernel loaded, because they do
#: not fit it.
_interpreted_runs = 0


def fast_pipeline_enabled() -> bool:
    return os.environ.get(FAST_PIPELINE_ENV, "1").strip().lower() not in _FALSEY


def compiled_ticks_total() -> int:
    """Process-wide count of instructions retired by the compiled kernel."""
    return _compiled_ticks


def native_mem_hits_total() -> int:
    """Process-wide count of L1/TLB hits served natively by the kernel."""
    return _native_mem_hits


def _add_native_mem_hits(count: int) -> None:
    global _native_mem_hits
    _native_mem_hits += count


def native_mem_misses_total() -> int:
    """Process-wide count of L1 misses served natively by the kernel."""
    return _native_mem_misses


def _add_native_mem_misses(count: int) -> None:
    global _native_mem_misses
    _native_mem_misses += count


def native_hint_branches_total() -> int:
    """Process-wide count of branch hints the native hint unit delivered."""
    return _native_hint_branches


def _add_native_hint_branches(count: int) -> None:
    global _native_hint_branches
    _native_hint_branches += count


def native_emulated_total() -> int:
    """Process-wide count of instructions the native emulator executed."""
    return _native_emulated


def _add_native_emulated(count: int) -> None:
    global _native_emulated
    _native_emulated += count


def native_t1_commits_total() -> int:
    """Process-wide count of marked loads the native T1 stepped."""
    return _native_t1_commits


def _add_native_t1_commits(count: int) -> None:
    global _native_t1_commits
    _native_t1_commits += count


def native_verdict_draws_total() -> int:
    """Process-wide count of hint-verdict draws the kernel made."""
    return _native_verdict_draws


def _add_native_verdict_draws(count: int) -> None:
    global _native_verdict_draws
    _native_verdict_draws += count


def native_bfetch_fetches_total() -> int:
    """Process-wide count of fetches the native B-Fetch walker stepped."""
    return _native_bfetch_fetches


def _add_native_bfetch_fetches(count: int) -> None:
    global _native_bfetch_fetches
    _native_bfetch_fetches += count


def native_cre_steps_total() -> int:
    """Process-wide count of load accesses the native CRE table stepped."""
    return _native_cre_steps


def _add_native_cre_steps(count: int) -> None:
    global _native_cre_steps
    _native_cre_steps += count


def interpreted_runs_total() -> int:
    """Process-wide count of runs that did not fit the loaded kernel and
    went to the reference interpreter."""
    return _interpreted_runs


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


def maybe_run_compiled(core, entries: Sequence, hooks, start_cycle: float,
                       collect_timings: bool) -> Optional[CoreResult]:
    """Run one simulation on the compiled path, or ``None`` to fall back.

    ``None`` means the reference interpreter must carry the run: the
    kill-switch is set, the kernel failed to build, or the run does not fit
    the kernel (:func:`~repro.core.compile.plan.plan_run`).
    """
    global _compiled_ticks, _interpreted_runs
    kernel = native_kernel()
    if kernel is None:
        return None
    from repro.core.compile.driver import run_compiled
    from repro.core.compile.plan import plan_run

    if not plan_run(core, hooks):
        _interpreted_runs += 1
        return None

    result = run_compiled(kernel, core, entries, hooks, start_cycle,
                          collect_timings)
    _compiled_ticks += len(entries)
    return result


def classify_compiled(memory, ea, stores, cycles):
    """The info words of data accesses run in order through ``memory`` (a
    freshly built stock hierarchy) on the kernel (the caller checked
    :func:`kernel_available`); see
    :func:`repro.dla.profiling.profile_workload`."""
    from repro.core.compile.build import load_kernel
    from repro.core.compile.driver import classify_accesses

    return classify_accesses(load_kernel(), memory, ea, stores, cycles)


def replay_compiled(memory, inputs, cycles_per_access: int) -> None:
    """Warm-up replay of one core's stock hierarchy on the kernel (the
    caller checked :func:`kernel_available` and
    :func:`~repro.core.compile.plan.stock_memory`); ``inputs`` are the
    window's :func:`~repro.core.compile.decoded.replay_inputs`."""
    from repro.core.compile.build import load_kernel
    from repro.core.compile.driver import replay_warmup

    replay_warmup(load_kernel(), memory, inputs, cycles_per_access)
