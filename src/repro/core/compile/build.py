"""Compile-on-demand of the C tick kernel.

The kernel source (``kernel.c``) ships with the package; the first process
that needs it compiles a shared object with the system C compiler and
caches it under ``.repro_cache/compiled/`` keyed by the source fingerprint
and the interpreter's version/ABI, so every later process (and every later
run in this process) just loads the cached ``.so``.  Anything going wrong —
no compiler, missing headers, a failed compile, a failed import — degrades
silently to ``None`` and the interpreted reference loop in
:mod:`repro.core.pipeline` carries the run.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path
from typing import Optional

#: Same root convention as :class:`repro.experiments.cache.ResultDiskCache`.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro_cache"

_MODULE_NAME = "_repro_fastcore"

#: Flags every kernel build uses: no fused multiply-adds, so floating-point
#: expressions round each operation as Python does, on every target.
EXACT_FLAGS = ("-ffp-contract=off",)

#: Process-wide build outcome: unset / the loaded module / ``None`` (failed).
_kernel_state: dict = {}


def kernel_source_path() -> Path:
    return Path(__file__).resolve().parent / "kernel.c"


def kernel_fingerprint() -> str:
    """Content key for the compiled artifact: source + interpreter ABI."""
    digest = hashlib.sha256()
    digest.update(kernel_source_path().read_bytes())
    digest.update(sys.version.encode("utf-8"))
    digest.update((sysconfig.get_config_var("SOABI") or "").encode("utf-8"))
    return digest.hexdigest()[:24]


def _cache_dir() -> Path:
    root = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
    return Path(root) / "compiled"


def _artifact_path() -> Path:
    return _cache_dir() / f"{_MODULE_NAME}-{kernel_fingerprint()}.so"


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _compile_locked(target: Path) -> bool:
    """Compile ``target``, letting exactly one process in a stampede build.

    Concurrent processes (a parallel campaign on a cold cache) would each
    spend hundreds of milliseconds compiling the identical artifact.  An
    ``O_EXCL`` lock file elects one builder; the others poll for the
    artifact.  The lock is advisory — on timeout (e.g. a killed builder left
    the lock behind) the waiter compiles anyway, which is merely redundant
    because the final ``os.replace`` is atomic.
    """
    import time

    target.parent.mkdir(parents=True, exist_ok=True)
    lock = target.with_suffix(".lock")
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if target.exists():
                return True
            if not lock.exists():
                break
            time.sleep(0.05)
        return target.exists() or _compile(target)
    except OSError:
        return _compile(target)
    try:
        os.close(fd)
        return _compile(target)
    finally:
        try:
            lock.unlink()
        except OSError:
            pass


def _compile(target: Path) -> bool:
    compiler = _find_compiler()
    if compiler is None:
        return False
    include = sysconfig.get_paths().get("include")
    if not include or not (Path(include) / "Python.h").exists():
        return False
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        suffix=".so", prefix=f".{target.stem}-", dir=str(target.parent)
    )
    os.close(fd)
    tmp = Path(tmp_name)
    command = [
        compiler, "-O2", *EXACT_FLAGS, "-shared", "-fPIC", f"-I{include}",
        str(kernel_source_path()), "-o", str(tmp),
    ]
    if sys.platform == "darwin":
        command[1:1] = ["-undefined", "dynamic_lookup"]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            tmp.unlink(missing_ok=True)
            return False
        os.replace(tmp, target)  # atomic: concurrent builders race benignly
        return True
    except (OSError, subprocess.SubprocessError):
        tmp.unlink(missing_ok=True)
        return False


def _load(path: Path):
    import importlib.util

    spec = importlib.util.spec_from_file_location(_MODULE_NAME, path)
    if spec is None or spec.loader is None:
        return None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_kernel():
    """The compiled kernel module, building it on first use (or ``None``)."""
    if "module" in _kernel_state:
        return _kernel_state["module"]
    module = None
    try:
        artifact = _artifact_path()
        if not artifact.exists() and not _compile_locked(artifact):
            artifact = None
        if artifact is not None:
            module = _load(artifact)
    except Exception:
        module = None
    _kernel_state["module"] = module
    return module


def reset_kernel_cache() -> None:
    """Forget the process-wide build outcome (testing hook)."""
    _kernel_state.clear()
