"""Self-test of the benchmark at a tiny size (about a minute on 2 cores).

Run from the repository root::

    python3 perfbench/selftest.py

Checks that

* every run emits exactly the metrics ``BENCHMARK.json`` names, each with
  its unit (``--trace 0`` the end-to-end set, ``--trace 1`` the per-layer
  set), and exits 0 with ``correct: true``;
* a perturbed cycle count, or a reference digest that does not match, is
  caught by the digest check and counted as a failed cell;
* traced and untraced passes produce bit-identical simulated outputs and
  rendered artifacts (observability is read-only).

Exits non-zero and lists the failed checks otherwise.
"""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

failures = []


def check(condition: bool, message: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {message}", flush=True)
    if not condition:
        failures.append(message)


def cli_run(workload: str, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "0", "--trace", str(trace),
               "--size", "tiny"]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=170,
                          cwd=REPO_ROOT)
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0, f"{workload} --trace {trace} exits 0 "
                                f"(got {proc.returncode}: {proc.stderr[-500:]})")
    return json.loads(lines[-1]) if lines else {}


def check_metric_sets(spec: dict) -> None:
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = cli_run(name, trace)
            expected = {metric["name"]: metric["unit"] for metric in spec[key]}
            got = {metric: value.get("unit")
                   for metric, value in result.get("metrics", {}).items()}
            check(got == expected,
                  f"{name} --trace {trace} emits every {key} metric with its unit"
                  + ("" if got == expected else
                     f" (missing {sorted(set(expected) - set(got))}, extra "
                     f"{sorted(set(got) - set(expected))}, units "
                     f"{sorted(k for k in expected if k in got and got[k] != expected[k])})"))
            check(result.get("correct") is True and result.get("failed") == 0
                  and result.get("attempted", 0) >= 1,
                  f"{name} --trace {trace} reports correct with no failed cells")
            if trace == 0:
                zero = [m for m, v in result.get("metrics", {}).items()
                        if not v["value"] > 0]
                check(not zero, f"{name} end-to-end metrics are all positive {zero}")


def check_digest_guard(harness, size, run_dir: Path) -> None:
    workload = harness.DlaDepth(size, run_dir)
    output = workload.run_pass(random.Random(3), lambda fn: fn())
    digests = {cell: harness.outcome_digest(outcome)
               for cell, outcome in output.outcomes.items()}
    cell = sorted(digests)[0]
    perturbed = copy.deepcopy(output.outcomes[cell])
    target = getattr(perturbed, "core", None) or perturbed.main
    target.cycles += 1
    mismatched = harness.check_digests(
        {**digests, cell: harness.outcome_digest(perturbed)}, digests)
    check(mismatched == [cell], f"a perturbed cycle count of {cell} is caught")

    expected = {"cells": {**digests, cell: "0" * 20},
                "sim_speedup_r3": workload.speedup(output.outcomes)}
    record = harness.run_one_pass(workload, random.Random(3), False, expected)
    check(record.failed == [cell] and record.failed_count == 1,
          f"a pass against a wrong reference digest fails exactly {cell}")


def check_trace_is_read_only(harness, size, run_dir: Path) -> None:
    for name, cls in harness.WORKLOADS.items():
        workload = cls(size, run_dir / name)
        (run_dir / name).mkdir()
        workload.prepare()
        plain = harness.run_one_pass(workload, random.Random(5), False, None)
        traced = harness.run_one_pass(workload, random.Random(5), True, None)
        check(plain.digests == traced.digests and not plain.failed
              and not traced.failed,
              f"{name}: traced and untraced passes give identical cell digests")
        check(plain.artifacts == traced.artifacts,
              f"{name}: traced and untraced passes render identical artifacts")
        check(traced.tracer.calls("pass") == 1 and plain.tracer is None,
              f"{name}: only the traced pass carries spans")


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    check_metric_sets(spec)

    import run

    run.isolate_environment()
    check(run.load_kernel(), "the compiled tick kernel loads")
    import harness

    size = harness.SIZES["tiny"]
    with tempfile.TemporaryDirectory(dir=run.BUILD_DIR) as scratch:
        check_digest_guard(harness, size, Path(scratch))
        check_trace_is_read_only(harness, size, Path(scratch))
    print(f"{len(failures)} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
