"""Static access analysis and tracker calibration.

The MEMTRACK scheme works because "the data access sequence to each
location in memory can be ascertained at compile time" (Sec 3.2.4).
This module makes that claim executable: :func:`instruction_accesses`
enumerates the gated reads and writes of any data instruction — the
single source of truth shared with the engine's gating logic — and
:func:`calibrate_trackers` scans a set of compiled programs, counts the
accesses landing in every armed range, and rewrites each MEMTRACK /
DMA_MEMTRACK with the exact update/read counts.

Compilers can therefore emit trackers with placeholder counts and let
the calibration pass finish the job; a miscounted tracker becomes
impossible by construction.

Armed ranges are looked up through a :class:`RangeIndex`: per port,
the ranges sorted by start address next to the running maximum of
their end addresses.  One ``bisect`` over those ends finds the first
range that can overlap an access, and one over the starts finds the
first range past it.  With ``A`` accesses and ``T`` armed ranges,
calibration costs O((A + T) log T) instead of O(A·T), and the overlap
check is one sort-and-sweep per port instead of O(T²) pairs.  The fusion
pass's tracker-externality analysis shares the same index.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ProgramError
from repro.isa.instructions import Opcode, make
from repro.isa.program import Program
from repro.sim.machine import instruction_accesses


class RangeIndex:
    """Armed ranges grouped by port, queryable by overlap.

    Items are any objects with ``port``, ``addr`` and ``size``.  A range
    overlaps the access ``(port, addr, count)`` when both sit on the same
    port and ``addr < range_end`` and ``range_addr < addr + count``, so a
    zero-size range is hit only by an access that strictly contains its
    address.
    """

    def __init__(self, items: Iterable) -> None:
        by_port: Dict[int, list] = {}
        for item in items:
            by_port.setdefault(item.port, []).append(item)
        # port -> (starts, reach, ends, items), sorted by (start, end);
        # reach[i] is the largest end among the first i + 1 ranges, and
        # ends is None when it equals reach (ends never decrease, as for
        # any set of non-overlapping ranges).
        self._ports: Dict[int, Tuple[list, list, Optional[list], list]] = {}
        for port, group in by_port.items():
            group.sort(key=lambda r: (r.addr, r.addr + r.size))
            starts = [r.addr for r in group]
            ends = [r.addr + r.size for r in group]
            reach = list(accumulate(ends, max))
            self._ports[port] = (
                starts, reach, None if reach == ends else ends, group,
            )

    def hits(self, port: int, addr: int, count: int) -> list:
        """Every indexed range overlapping ``count`` words at ``addr``."""
        entry = self._ports.get(port)
        if entry is None:
            return []
        starts, reach, ends, items = entry
        # Ranges before lo all end at or before addr; ranges from hi on
        # start at or after addr + count.
        lo = bisect_right(reach, addr)
        hi = bisect_left(starts, addr + count, lo)
        if ends is None:
            return items[lo:hi]
        return [items[i] for i in range(lo, hi) if ends[i] > addr]

    def has_overlap(self) -> bool:
        """Whether any two ranges on one port overlap.  For an
        overlapping pair, the later in sorted order starts before the
        earlier one ends, so comparing each start with the reach of the
        ranges before it finds every overlap."""
        return any(
            reach[i - 1] > starts[i]
            for starts, reach, _, _ in self._ports.values()
            for i in range(1, len(starts))
        )


@dataclass
class _ArmedRange:
    """One tracker instruction found during the scan."""

    program: Program
    pc: int
    port: int
    addr: int
    size: int
    updates: int = 0
    reads: int = 0

    def overlaps(self, port: int, addr: int, count: int) -> bool:
        return (
            port == self.port
            and addr < self.addr + self.size
            and self.addr < addr + count
        )


def calibrate_trackers(
    programs: Sequence[Program],
    external_updates: Optional[Dict[Tuple[int, int], int]] = None,
    external_reads: Optional[Dict[Tuple[int, int], int]] = None,
) -> int:
    """Rewrite every MEMTRACK / DMA_MEMTRACK with statically counted
    accesses.

    ``external_updates`` / ``external_reads`` add host-side accesses the
    programs cannot see (e.g. the injected loss gradient), keyed by
    ``(port, addr)`` of the armed range.

    Returns the number of trackers calibrated.  Raises
    :class:`ProgramError` if two armed ranges overlap (the hardware
    cannot disambiguate them) or an armed range receives no accesses at
    all (a dead tracker is a compiler bug).
    """
    external_updates = external_updates or {}
    external_reads = external_reads or {}

    armed: List[_ArmedRange] = []
    for program in programs:
        for pc, instr in enumerate(program):
            if instr.opcode in (Opcode.MEMTRACK, Opcode.DMA_MEMTRACK):
                o = instr.named_operands()
                port = (
                    o["target"]
                    if instr.opcode is Opcode.DMA_MEMTRACK
                    else o["port"]
                )
                armed.append(_ArmedRange(
                    program=program, pc=pc, port=port,
                    addr=o["addr"], size=o["size"],
                ))

    index = RangeIndex(armed)
    if index.has_overlap():
        # Name the first overlapping pair in program order.
        for i, a in enumerate(armed):
            for b in armed[i + 1:]:
                if a.overlaps(b.port, b.addr, b.size):
                    raise ProgramError(
                        f"overlapping trackers: {a.program.tile}@{a.pc} "
                        f"and {b.program.tile}@{b.pc} "
                        f"(port {a.port}, [{a.addr}, {a.addr + a.size}) "
                        f"vs [{b.addr}, {b.addr + b.size}))"
                    )

    # Count every planned access against the armed ranges.
    hits = index.hits
    for program in programs:
        for instr in program:
            reads, writes = instruction_accesses(instr)
            for port, addr, count in reads:
                for tracked in hits(port, addr, count):
                    tracked.reads += 1
            for port, addr, count in writes:
                for tracked in hits(port, addr, count):
                    tracked.updates += 1

    for tracked in armed:
        key = (tracked.port, tracked.addr)
        tracked.updates += external_updates.get(key, 0)
        tracked.reads += external_reads.get(key, 0)
        if tracked.updates == 0:
            raise ProgramError(
                f"dead tracker (never written): {tracked.program.tile}"
                f"@{tracked.pc} port {tracked.port} addr {tracked.addr}"
            )
        old = tracked.program[tracked.pc]
        o = old.named_operands()
        o["num_updates"] = tracked.updates
        o["num_reads"] = tracked.reads
        tracked.program.instructions[tracked.pc] = make(
            old.opcode, comment=old.comment, **o
        )
    return len(armed)


def audit_trackers(
    programs: Sequence[Program],
    external_updates: Optional[Dict[Tuple[int, int], int]] = None,
    external_reads: Optional[Dict[Tuple[int, int], int]] = None,
) -> Dict[str, int]:
    """Count declared vs statically-observed accesses without rewriting.

    Returns a summary; used in tests to cross-check hand-emitted
    tracker counts against the static analysis.
    """
    # Instructions are frozen and calibration only replaces list slots,
    # so a fresh instruction list per program isolates the rewrite.
    clones = [
        Program(p.tile, list(p.instructions), p.superops) for p in programs
    ]
    declared = [
        (instr.operand("num_updates"), instr.operand("num_reads"))
        for p in programs
        for instr in p
        if instr.opcode in (Opcode.MEMTRACK, Opcode.DMA_MEMTRACK)
    ]
    calibrate_trackers(clones, external_updates, external_reads)
    observed = [
        (instr.operand("num_updates"), instr.operand("num_reads"))
        for p in clones
        for instr in p
        if instr.opcode in (Opcode.MEMTRACK, Opcode.DMA_MEMTRACK)
    ]
    mismatches = sum(1 for d, o in zip(declared, observed) if d != o)
    return {
        "trackers": len(declared),
        "mismatches": mismatches,
    }
