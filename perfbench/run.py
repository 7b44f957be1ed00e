"""Layer-attributed benchmark of the R3-DLA reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 20 --trace 0

One run measures one workload for ``--seconds`` seconds of repeated cold
passes in this single process (``processes=1``) and checks every cell's
simulated statistics against ``perfbench/reference.json``.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics,
a span table and the tracing overhead.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is non-zero when any cell failed or mismatched.

Everything the run writes stays under ``.bench_build/`` in the checkout:
the compiled tick kernel (built once) and a private, temporary
``REPRO_CACHE_DIR`` per run, removed at exit.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC = REPO_ROOT / "src"
BUILD_DIR = REPO_ROOT / ".bench_build"

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("wall_s", "s"), ("inst_per_s", "inst/s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("sim_speedup_r3", "ratio"),
)


def per_layer_units(names) -> dict:
    """Unit of each per-layer metric, from its name."""
    units = {}
    for name in names:
        if name.endswith((".s", "_s")):
            units[name] = "s"
        elif name.endswith(("_ratio", "_share", "_frac")):
            units[name] = "ratio"
        elif name.endswith(".bytes"):
            units[name] = "bytes"
        else:
            units[name] = "count"
    return units


def host_fingerprint(source_digest: str) -> dict:
    """CPU model, core count, Python, C compiler and code identity."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def first_line(command):
        try:
            # The ceiling keeps git from reporting an enclosing repository.
            env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO_ROOT.parent))
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=30, cwd=REPO_ROOT, env=env)
        except (OSError, subprocess.SubprocessError):
            return None
        lines = proc.stdout.strip().splitlines()
        return lines[0] if proc.returncode == 0 and lines else None

    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cc": first_line(["cc", "--version"]),
        "commit": first_line(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest,
    }


def isolate_environment() -> None:
    """Drop every ``REPRO_*`` override so runs measure the defaults, and
    keep temporary files (the C compiler's too) inside the checkout."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD_DIR / "tmp")


def load_kernel() -> bool:
    """Build (once per checkout) and load the compiled tick kernel."""
    from repro.core.compile import kernel_available

    os.environ["REPRO_CACHE_DIR"] = str(BUILD_DIR / "kernel")
    return kernel_available()


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name (see README.md)")
    parser.add_argument("--seed", type=int, default=1,
                        help="permutes the order of workloads and cells")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time budget of the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from traced passes")
    parser.add_argument("--size", default="full",
                        help="trace-window preset (the self-test uses 'tiny')")
    parser.add_argument("--write-reference", action="store_true",
                        help="record every workload's cell digests in "
                             "reference.json instead of measuring")
    parser.add_argument("--prepare-resume", metavar="DIR",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(name: str, passes, trace: bool, host: dict, kernel_ok: bool) -> dict:
    """Print the human-readable report; return the result object."""
    import harness

    plain = [p for p in passes if not p.traced]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed_count for p in passes)
    if not kernel_ok:
        failed = attempted
    print(f"perfbench {name}: {len(passes)} passes "
          f"({len(plain)} untraced), host {json.dumps(host, sort_keys=True)}")
    for record in passes:
        for error in record.pass_errors:
            print(f"  FAILED pass: {error}")
        for cell in record.failed:
            print(f"  FAILED cell: {cell}")
    if not kernel_ok:
        print("  FAILED: the compiled tick kernel could not be built or loaded")

    # The highest percentile with ten samples above it, once that is a tail
    # percentile (p50 or above); the maximum before that.
    walls = sorted(p.wall_s for p in plain)
    if len(walls) >= 20:
        percentile = 100.0 * (1 - 10 / len(walls))
        tail = (f"p{percentile:.0f} "
                f"{_fmt(walls[len(walls) - 11])} s")
    else:
        tail = f"max {_fmt(walls[-1])} s (fewer than 20 passes)"
    e2e = harness.end_to_end(passes)
    print(f"  wall_s median {_fmt(e2e['wall_s'])} s, {tail}, n={len(walls)} "
          f"(reference seconds)")
    host = statistics.median(p.host_wall_s for p in plain)
    print(f"  host wall median {_fmt(host)} s; host slower than reference by "
          f"{_fmt(statistics.median(1 / p.reference_scale for p in plain))}x "
          f"(median; range {_fmt(min(1 / p.reference_scale for p in passes))}"
          f"-{_fmt(max(1 / p.reference_scale for p in passes))}x)")
    for metric, unit in END_TO_END[1:]:
        print(f"  {metric} {_fmt(e2e[metric])} {unit}")
    print(f"  failed_frac {_fmt(failed / attempted if attempted else 1.0)} "
          f"({failed} of {attempted} cells)")

    if trace:
        layers, not_applicable = harness.per_layer(passes)
        units = per_layer_units(layers)
        metrics = {key: {"value": value, "unit": units[key]}
                   for key, value in sorted(layers.items())}
        print("  spans (median over traced passes, reference seconds): "
              "name, calls, total s, self s")
        for span, calls, total, own in harness.span_table(passes):
            print(f"    {span:40s} {calls:10.0f} {total:10.4f} {own:10.4f}")
        print(f"  tracing overhead {_fmt(layers['trace.overhead_frac'])} of "
              f"untraced wall; unattributed root self time "
              f"{_fmt(layers['trace.root_self_frac'])} of traced wall")
        if not_applicable:
            print(f"  not applicable here (reported as 0): "
                  f"{', '.join(sorted(not_applicable))}")
    else:
        metrics = {metric: {"value": e2e[metric], "unit": unit}
                   for metric, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def write_reference(size) -> int:
    import random

    import harness

    reference = {}
    with tempfile.TemporaryDirectory(dir=BUILD_DIR) as run_dir:
        for name in ("sweep_cold", "dla_depth", "memsys_contended"):
            workload = harness.WORKLOADS[name](size, Path(run_dir))
            workload.prepare()
            record = harness.run_one_pass(workload, random.Random(0), False, None)
            if record.failed or record.pass_errors:
                print(f"{name}: {record.failed} {record.pass_errors}", file=sys.stderr)
                return 1
            reference[workload.reference] = {
                "sim_speedup_r3": record.speedup_r3,
                "artifacts": record.artifacts,
                "cells": dict(sorted(record.digests.items())),
            }
            print(f"{name}: {len(record.digests)} cells")
    harness.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}; run from "
              f"a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    isolate_environment()
    kernel_ok = load_kernel()

    import harness

    size = harness.SIZES.get(args.size)
    if size is None:
        print(f"perfbench: unknown size {args.size!r}; known: {sorted(harness.SIZES)}",
              file=sys.stderr)
        return 2
    if args.prepare_resume:
        print(harness.prepare_resume(Path(args.prepare_resume), size))
        return 0
    if args.write_reference:
        return write_reference(size)
    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    from repro.experiments.fingerprint import code_salt

    host = host_fingerprint(code_salt())
    expected = None
    if size.name == "full":
        reference = harness.load_reference()
        workload_class = harness.WORKLOADS[args.workload]
        expected = reference.get(workload_class.reference)
        if expected is None:
            print(f"perfbench: no reference digests for {args.workload} in "
                  f"{harness.REFERENCE_PATH}", file=sys.stderr)
            return 2
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR))
    try:
        os.environ["REPRO_CACHE_DIR"] = str(run_dir)
        workload = harness.WORKLOADS[args.workload](size, run_dir)
        passes = harness.measure(workload, args.seed, args.seconds,
                                 bool(args.trace), expected)
        result = report(args.workload, passes, bool(args.trace), host, kernel_ok)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
