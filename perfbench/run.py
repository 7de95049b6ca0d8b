#!/usr/bin/env python3
"""Host-time benchmark of the ScaleDeep reproduction, timed from outside.

Run from the repository root::

    python3 perfbench/run.py --workload validate-engine --seed 1 \\
        --seconds 10 --trace 0

Every timing measures how long the simulators take on the host, never
simulated time, in reference-speed seconds: wall time scaled to a fixed
reference CPU speed (see ``clock.py``).  A run times the program's
import and sets the workload up several times (``setup_s`` is the import
time plus the median set-up), then repeats the workload's timed pass while ``--seconds`` last — at least
once, and never starting a pass its predecessors say will end past the
budget — then checks every output.

The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  Host
metadata and the per-operation record go to
``perfbench/out/<workload>-seed<n>-trace<t>.json``; a traced run also
writes a Chrome trace beside it.  The program must be importable from
``src/``; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = (
    "validate-engine", "engine-stream", "serve-steady", "serve-chaos",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git;
    ``unknown`` outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def host_metadata(args: argparse.Namespace) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args: argparse.Namespace, clock) -> dict:
    """Set up, run timed passes, check.  Times are read from ``clock``
    (reference-speed seconds); the ``--seconds`` budget is wall time."""
    start = clock()
    import workloads  # the program's modules load here
    from tracer import Tracer

    import_s = clock() - start

    tracer = Tracer(enabled=bool(args.trace), clock=clock)
    workload = workloads.WORKLOADS[args.workload](args.seed, tracer)
    setups = []
    for _ in range(1 if args.trace else workload.setup_repeats):
        gc.collect()
        began = clock()
        workload.setup()
        setups.append(clock() - began)

    tracer.phase = "pass"
    ops = []
    pass_seconds = []
    wall_seconds = []
    began = time.perf_counter()
    while True:
        gc.collect()
        wall = time.perf_counter()
        with tracer.span("bench.pass") as timed:
            ops.extend(workload.run_pass(len(pass_seconds)))
        pass_seconds.append(timed.seconds)
        wall_seconds.append(time.perf_counter() - wall)
        elapsed = time.perf_counter() - began
        if elapsed + statistics.median(wall_seconds) > args.seconds:
            break

    tracer.phase = "check"
    ops.extend(workload.check())
    failed = [op for op in ops if not op.ok]

    wall_s = statistics.median(pass_seconds)
    if args.trace:
        metrics = workload.layer_metrics(pass_seconds)
        metrics["trace.wall_s"] = wall_s
        metrics["trace.coverage"] = tracer.coverage("bench.pass")
        metrics["failed_frac"] = len(failed) / len(ops)
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb(),
            "compile_s": workload.compile_s(),
        }
    return {
        "tracer": tracer,
        "ops": ops,
        "failed": failed,
        "metrics": metrics,
        "record": {
            "import_s": import_s,
            "setup_s": setups,
            "pass_s": pass_seconds,
            "pass_wall_s": wall_seconds,
            "samples": workload.samples(),
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The compile cache must stay in memory: an inherited on-disk cache
    # would make compiles warm and write outside the checkout.
    os.environ.pop("REPRO_CACHE_DIR", None)

    declared = declared_metrics()[args.trace]
    from clock import SteadyClock

    with SteadyClock() as clock:
        result = measure(args, clock)
    undeclared = sorted(set(result["metrics"]) - set(declared))
    if undeclared:
        print(f"perfbench: metrics missing from BENCHMARK.json: "
              f"{', '.join(undeclared)}", file=sys.stderr)
        return 3
    if not args.trace:
        missing = sorted(set(declared) - set(result["metrics"]))
        if missing:
            print(f"perfbench: end-to-end metrics not measured: "
                  f"{', '.join(missing)}", file=sys.stderr)
            return 3
    # Per-layer metrics of layers this workload never calls read 0.
    metrics = {
        name: {"value": result["metrics"].get(name, 0), "unit": unit}
        for name, unit in declared.items()
    }
    meta = host_metadata(args)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(
        meta=meta, metrics=metrics, **result["record"],
        ops=[vars(op) for op in result["ops"]],
    )
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        result["tracer"].write(str(OUT / f"{stem}.trace.json"))
    for op in result["failed"]:
        print(f"FAILED {op.name}: {op.detail}")
    print("# host " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": not result["failed"],
        "attempted": len(result["ops"]),
        "failed": len(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
