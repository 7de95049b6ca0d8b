"""Frozen engine counts: an independent oracle for the engine's reports.

``tests/data/engine_counts.json`` holds, for every row
:func:`repro.sim.validation.validate_zoo` engine-executes (rows=2,
seed 0), the unfused run's ``RunReport`` counts, the fused run's
makespan and the SHA-256 of the output bytes.  Any engine change that
moves a count or an output bit fails against it, whatever the engine's
other paths say.

    python -m tests.engine_counts --check          # every row
    python -m tests.engine_counts --check LeNet-5  # selected rows
    python -m tests.engine_counts --write          # regenerate the file

Regenerate only when a count is meant to change, and say why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence
from unittest import mock

from repro.compiler.codegen import CompiledForward
from repro.sim.validation import validate_zoo

DATA = Path(__file__).parent / "data" / "engine_counts.json"

#: Unfused ``RunReport`` fields frozen per row.
REPORT_FIELDS = (
    "cycles", "instructions", "rounds", "blocked_reads", "blocked_writes",
    "busy_cycles",
)


def collect(
    names: Optional[Sequence[str]] = None, rows: int = 2, seed: int = 0
) -> Dict[str, Dict[str, object]]:
    """Run ``validate_zoo`` and record every engine-executed row's
    counts, keyed by row name.  ``validate_zoo`` runs each network
    fused, then unfused; both runs are captured."""
    runs = []
    run = CompiledForward.run

    def recording(compiled, image, *, fused=True):
        out, report = run(compiled, image, fused=fused)
        runs.append((fused, out, report))
        return out, report

    with mock.patch.object(CompiledForward, "run", recording):
        report = validate_zoo(names, rows=rows, seed=seed, speedup=False)
    ok = [row for row in report.rows if row.status == "ok"]
    if len(runs) != 2 * len(ok):
        raise AssertionError(
            f"{len(runs)} engine runs for {len(ok)} executed rows"
        )
    counts: Dict[str, Dict[str, object]] = {}
    for k, row in enumerate(ok):
        (fused, _, fused_report), (unfused, out, unfused_report) = (
            runs[2 * k], runs[2 * k + 1]
        )
        assert fused and not unfused, row.network
        entry = {f: getattr(unfused_report, f) for f in REPORT_FIELDS}
        entry["fused_cycles"] = fused_report.cycles
        entry["output_sha256"] = hashlib.sha256(out.tobytes()).hexdigest()
        counts[row.network] = entry
    return counts


def load() -> Dict[str, Dict[str, object]]:
    return json.loads(DATA.read_text())["rows"]


def mismatches(
    actual: Dict[str, Dict[str, object]],
    expected: Dict[str, Dict[str, object]],
) -> list:
    """One line per row whose counts differ from the frozen ones."""
    lines = []
    for name, counts in actual.items():
        frozen = expected.get(name)
        if frozen is None:
            lines.append(f"{name}: no frozen counts")
        elif counts != frozen:
            diff = {
                key: (frozen.get(key), value)
                for key, value in counts.items() if frozen.get(key) != value
            }
            lines.append(f"{name}: frozen -> now {diff}")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    parser.add_argument("names", nargs="*", help="rows (default: all)")
    args = parser.parse_args(argv)
    if args.write:
        if args.names:
            parser.error("--write regenerates every row")
        counts = collect()
        DATA.write_text(json.dumps(
            {"validate_zoo": {"rows": 2, "seed": 0}, "rows": counts},
            indent=2, sort_keys=True,
        ) + "\n")
        print(f"wrote {len(counts)} rows to {DATA}")
        return 0
    expected = load()
    counts = collect(args.names or None)
    if not args.names and set(counts) != set(expected):
        print(f"rows {sorted(counts)} != frozen {sorted(expected)}")
        return 1
    problems = mismatches(counts, expected)
    for line in problems:
        print(line)
    if problems:
        return 1
    print(f"{len(counts)} rows match the frozen engine counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
