#!/usr/bin/env python
"""Run the kernel's test suites against sanitizer builds of the kernel.

Two passes, each with its own temporary ``REPRO_CACHE_DIR``:

* **UBSan**: ``-fsanitize=undefined -fno-sanitize-recover=all``; any
  undefined behaviour aborts the test process.
* **ASan**: ``-fsanitize=address``, with the compiler's ASan runtime
  preloaded (``LD_PRELOAD``; the interpreter itself is not instrumented)
  and ``ASAN_OPTIONS=detect_leaks=0`` (the interpreter keeps objects alive
  at exit).  A kernel read or write outside a structure's arrays aborts.
  Caches reuse the line arrays of collected caches of the same size, so
  a write past a cache's own slots would otherwise land silently in
  memory the allocator still owns.

Each pass compiles ``core/compile/kernel.c`` to the path the loader looks
for (``build._artifact_path()``) under its cache directory, then runs the
suites that drive the kernel with that cache directory, so
``load_kernel()`` loads the sanitized build.  Before the suites run, a
fresh interpreter must load that build, so a sanitized kernel that cannot
load (the suites would fall back to the interpreter) fails the tool
instead of passing it.  The tool exits non-zero when either pass fails.
The simulator has no sanitizer option: only this tool's builds differ.

Usage::

    PYTHONPATH=src python tools/sanitize_kernel.py [extra pytest args]
"""

from __future__ import annotations

import os
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.compile import build  # noqa: E402

#: The suites that run the kernel: compiled-vs-reference A/B tests, the
#: golden sections, warm-up replay, the memory model, the native emulator
#: (with the profiling latency pass's A/B test), the DLA and runner
#: suites, whose cells of every kind drive the column passes (decode
#: gather, look-ahead selection, profiling), and every workload's pinned
#: setup digest.
SUITES = (
    "tests/core/test_compiled_pipeline.py",
    "tests/core/test_fast_path_equivalence.py",
    "tests/core/test_warm_memo.py",
    "tests/memory",
    "tests/emulator",
    "tests/dla",
    "tests/experiments/test_runner_cache_and_parallel.py",
    "tests/workloads/test_materialisation_digests.py",
)

#: Compile flags of each pass, by name, in run order.
SANITIZERS = {
    "UBSan": ("-fsanitize=undefined", "-fno-sanitize-recover=all"),
    "ASan": ("-fsanitize=address", "-fno-omit-frame-pointer"),
}

#: Run in a fresh interpreter with the sanitized cache directory: loads the
#: build at ``argv[1]`` (raising what the loader would swallow) and checks
#: that the suites' loader resolves to it.
LOAD_CHECK = """
import sys
from pathlib import Path
from repro.core.compile import build, native_kernel
assert build._artifact_path() == Path(sys.argv[1]), build._artifact_path()
build._load(build._artifact_path())
assert native_kernel() is not None, "the loader did not load the build"
"""


def build_sanitized(cache_dir: str, compiler: str, flags) -> Path:
    """Compile the kernel with ``flags`` where the loader looks under
    ``cache_dir``; returns its path."""
    os.environ[build.CACHE_DIR_ENV] = cache_dir
    target = build._artifact_path()
    target.parent.mkdir(parents=True, exist_ok=True)
    include = sysconfig.get_paths()["include"]
    command = [compiler, "-O1", "-g", *build.EXACT_FLAGS, *flags,
               "-shared", "-fPIC", f"-I{include}",
               str(build.kernel_source_path()), "-o", str(target)]
    subprocess.run(command, check=True)
    return target


def runtime_env(name: str, compiler: str) -> dict:
    """What the test processes of pass ``name`` add to their environment:
    an ASan build loads into the uninstrumented interpreter only with the
    compiler's ASan runtime preloaded."""
    if name != "ASan":
        return {}
    runtime = subprocess.run(
        [compiler, "-print-file-name=libasan.so"], capture_output=True,
        text=True, check=True).stdout.strip()
    if not os.path.isabs(runtime):
        raise SystemExit(f"sanitize_kernel: {compiler} has no libasan.so")
    return {"LD_PRELOAD": runtime, "ASAN_OPTIONS": "detect_leaks=0"}


def run_pass(name: str, compiler: str, argv) -> int:
    """Build the kernel under sanitizer ``name``, check that it loads and
    run the suites on it; returns the exit code."""
    with tempfile.TemporaryDirectory(prefix=f"repro-{name.lower()}-") as cache_dir:
        target = build_sanitized(cache_dir, compiler, SANITIZERS[name])
        print(f"sanitize_kernel: {name} build at {target}", flush=True)
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
                   **runtime_env(name, compiler))
        env[build.CACHE_DIR_ENV] = cache_dir
        env.pop("REPRO_FAST_PIPELINE", None)
        check = subprocess.run(
            [sys.executable, "-c", LOAD_CHECK, str(target)],
            cwd=REPO_ROOT, env=env)
        if check.returncode != 0:
            print(f"sanitize_kernel: the {name} build does not load",
                  file=sys.stderr)
            return check.returncode
        proc = subprocess.run(
            # --capture=sys leaves fd 2 alone, so a sanitizer report (written
            # by the C runtime just before it aborts) reaches the log.
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--capture=sys", *SUITES, *argv],
            cwd=REPO_ROOT, env=env)
        return proc.returncode


def main(argv) -> int:
    compiler = build._find_compiler()
    if compiler is None:
        raise SystemExit("sanitize_kernel: no C compiler found")
    failed = [name for name in SANITIZERS
              if run_pass(name, compiler, argv) != 0]
    if failed:
        print(f"sanitize_kernel: failed under {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
