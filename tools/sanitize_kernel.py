#!/usr/bin/env python
"""Run the kernel's test suites against an UndefinedBehaviorSanitizer build.

Compiles ``core/compile/kernel.c`` with ``-fsanitize=undefined
-fno-sanitize-recover=all`` to the path the loader looks for
(``build._artifact_path()``) under a temporary ``REPRO_CACHE_DIR``, then runs
the suites that drive the kernel with that cache directory, so
``load_kernel()`` loads the sanitized build.  Before the suites run, a fresh
interpreter must load that build, so a sanitized kernel that cannot load
(the suites would fall back to the interpreter) fails the tool instead of
passing it.  Any undefined behaviour aborts the test process and the tool
exits non-zero.  The simulator has no
sanitizer option: only this tool's build differs.

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
#: golden sections, warm-up replay, the memory model, the native emulator,
#: and the DLA and runner suites, whose cells of every kind drive the
#: column passes (decode gather, look-ahead selection, profiling).
SUITES = (
    "tests/core/test_compiled_pipeline.py",
    "tests/core/test_fast_path_equivalence.py",
    "tests/core/test_warm_memo.py",
    "tests/memory",
    "tests/emulator",
    "tests/dla",
    "tests/experiments/test_runner_cache_and_parallel.py",
)

SANITIZE_FLAGS = ("-fsanitize=undefined", "-fno-sanitize-recover=all")

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


def build_sanitized(cache_dir: str) -> Path:
    """Compile the sanitized kernel where the loader looks under
    ``cache_dir``; returns its path."""
    os.environ[build.CACHE_DIR_ENV] = cache_dir
    target = build._artifact_path()
    target.parent.mkdir(parents=True, exist_ok=True)
    compiler = build._find_compiler()
    if compiler is None:
        raise SystemExit("sanitize_kernel: no C compiler found")
    include = sysconfig.get_paths()["include"]
    command = [compiler, "-O1", "-g", *build.EXACT_FLAGS, *SANITIZE_FLAGS,
               "-shared", "-fPIC", f"-I{include}",
               str(build.kernel_source_path()), "-o", str(target)]
    subprocess.run(command, check=True)
    return target


def main(argv) -> int:
    with tempfile.TemporaryDirectory(prefix="repro-ubsan-") as cache_dir:
        target = build_sanitized(cache_dir)
        print(f"sanitize_kernel: UBSan build at {target}", flush=True)
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        env[build.CACHE_DIR_ENV] = cache_dir
        env.pop("REPRO_FAST_PIPELINE", None)
        check = subprocess.run(
            [sys.executable, "-c", LOAD_CHECK, str(target)],
            cwd=REPO_ROOT, env=env)
        if check.returncode != 0:
            print("sanitize_kernel: the UBSan build does not load",
                  file=sys.stderr)
            return check.returncode
        proc = subprocess.run(
            # --capture=sys leaves fd 2 alone, so a sanitizer report (written
            # by the C runtime just before it aborts) reaches the log.
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--capture=sys", *SUITES, *argv],
            cwd=REPO_ROOT, env=env)
        return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
