#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Run from the repository root::

    python3 perfbench/smoke.py [--seed N] [workload ...]

Runs every workload (or the named ones) at minimum length: once
untraced and twice traced, one after the other.  Checks that each run
exits 0 and ends with the result line, that it prints exactly the
metrics ``BENCHMARK.json`` declares for its mode, that no operation
failed, that every deterministic per-layer figure (units ``count``,
``frac`` and ``sim_ms``) repeats exactly across the two traced runs,
and that layer spans cover at least 90% of the traced pass.  Prints the
tracing overhead: traced ``trace.wall_s`` minus untraced ``wall_s``.
Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DETERMINISTIC_UNITS = ("count", "frac", "sim_ms")
MIN_COVERAGE = 0.9


def run(workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(command[1:])} exited {done.returncode}:\n"
            f"{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(workload: str, seed: int, spec: dict) -> list:
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    untraced = run(workload, seed, 0)
    traced = [run(workload, seed, 1), run(workload, seed, 1)]
    problems = []
    for mode, result in ((0, untraced), (1, traced[0]), (1, traced[1])):
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"trace {mode}: result keys {sorted(result)}")
        if set(result["metrics"]) != set(declared[mode]):
            problems.append(
                f"trace {mode}: metrics differ from BENCHMARK.json: "
                f"{sorted(set(result['metrics']) ^ set(declared[mode]))}"
            )
        if result["failed"] or not result["correct"]:
            problems.append(
                f"trace {mode}: {result['failed']} of "
                f"{result['attempted']} operations failed"
            )
    first, second = (r["metrics"] for r in traced)
    if first["failed_frac"]["value"] != 0:
        problems.append("failed_frac is not 0")
    for name, unit in declared[1].items():
        if unit in DETERMINISTIC_UNITS:
            a, b = first[name]["value"], second[name]["value"]
            if a != b:
                problems.append(f"{name} differs across repeats: {a} vs {b}")
    coverage = first["trace.coverage"]["value"]
    if coverage < MIN_COVERAGE:
        problems.append(f"layer spans cover only {coverage:.1%} of the pass")
    wall = untraced["metrics"]["wall_s"]["value"]
    traced_wall = first["trace.wall_s"]["value"]
    print(
        f"{workload}: {untraced['attempted']} ops untraced, "
        f"{traced[0]['attempted']} traced; wall {wall:.3f} s, traced "
        f"{traced_wall:.3f} s (overhead {traced_wall - wall:+.3f} s), "
        f"coverage {coverage:.1%}"
    )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    failures = 0
    for name in names:
        for problem in check(name, args.seed, spec):
            print(f"  FAIL {problem}")
            failures += 1
    print("smoke: ok" if not failures else f"smoke: {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
