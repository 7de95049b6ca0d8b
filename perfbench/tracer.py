"""Host-time spans recorded from outside the program.

A :class:`Tracer` times named spans around calls into the program's
public functions and keeps, per span name, the total and the *self*
time (duration minus the part its child spans cover).  It reads the
clock it is given; the benchmark passes a :class:`~clock.SteadyClock`.
With tracing on it also appends every span to a private
``repro.telemetry.Telemetry`` capture that is never installed globally,
so the program's own instrumentation stays off; :meth:`Tracer.write`
exports it as a Chrome trace.  With tracing off only the totals are
kept.

:func:`spy` wraps one module attribute in a span for the length of a
``with`` block, for public functions the program calls internally
(``compile_dag_forward`` inside ``validate_zoo``, ``generate_requests``
inside ``simulate_serving``).
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional

#: Track every span lands on in the exported trace.
TRACK = ("perfbench", "host")

#: Phases of one benchmark run, in order.  Span totals are kept per
#: phase so a per-layer figure can be "per set-up plus per pass".
PHASES = ("setup", "pass", "check")


class Span:
    """A finished (or running) span; ``seconds`` is set on exit."""

    __slots__ = ("name", "seconds", "covered")

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0
        self.covered = 0.0  # seconds spent in child spans


class Tracer:
    """Nested host-time spans with per-phase, per-name total and self
    seconds."""

    def __init__(self, enabled: bool, clock=perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.phase = "setup"
        self.total_s: Dict[str, Dict[str, float]] = {
            phase: defaultdict(float) for phase in PHASES
        }
        self.self_s: Dict[str, Dict[str, float]] = {
            phase: defaultdict(float) for phase in PHASES
        }
        self._stack: List[Span] = []
        self._origin = clock()
        self.telemetry = None
        if enabled:
            from repro.telemetry import Telemetry

            self.telemetry = Telemetry()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        start = self.clock()
        current = Span(name)
        parent: Optional[Span] = self._stack[-1] if self._stack else None
        self._stack.append(current)
        try:
            yield current
        finally:
            current.seconds = self.clock() - start
            self._stack.pop()
            if parent is not None:
                parent.covered += current.seconds
            self.total_s[self.phase][name] += current.seconds
            self.self_s[self.phase][name] += (
                current.seconds - current.covered
            )
            if self.telemetry is not None:
                self.telemetry.span(
                    name, "perfbench", TRACK,
                    (start - self._origin) * 1e6, current.seconds * 1e6,
                    phase=self.phase,
                    parent=parent.name if parent is not None else "",
                )

    def seconds(self, name: str, passes: int, own: bool = False) -> float:
        """Host seconds of span ``name`` per run: its set-up and check
        time plus its timed-phase time divided by ``passes``.  ``own``
        selects self time instead of total time."""
        table = self.self_s if own else self.total_s
        return (
            table["setup"].get(name, 0.0)
            + table["pass"].get(name, 0.0) / max(passes, 1)
            + table["check"].get(name, 0.0)
        )

    def coverage(self, root: str) -> float:
        """Share of the timed phase's ``root`` span time that layer
        spans (every name outside ``bench.``) account for."""
        wall = self.total_s["pass"].get(root, 0.0)
        covered = sum(
            seconds for name, seconds in self.self_s["pass"].items()
            if not name.startswith("bench.")
        )
        return covered / wall if wall > 0 else 0.0

    def write(self, path: str) -> str:
        from repro.telemetry.export import write_chrome_trace

        return write_chrome_trace(self.telemetry, path)


@contextmanager
def spy(tracer: Tracer, module, attr: str, name: str) -> Iterator[Span]:
    """Time every call of ``module.attr`` as span ``name`` inside the
    block, then restore the original attribute.  Yields a :class:`Span`
    whose ``seconds`` sums the wrapped calls."""
    original = getattr(module, attr)
    calls = Span(name)

    @functools.wraps(original, updated=())
    def timed(*args, **kwargs):
        try:
            with tracer.span(name) as current:
                return original(*args, **kwargs)
        finally:
            calls.seconds += current.seconds

    setattr(module, attr, timed)
    try:
        yield calls
    finally:
        setattr(module, attr, original)
