"""Measurement plumbing shared by the workloads: per-operation deadlines,
the memory cap, in-memory spans and percentile helpers.

Nothing here imports the package under test, so importing this module costs
nothing that set-up time should count.
"""

from __future__ import annotations

import math
import os
import resource
import signal
from contextlib import contextmanager
from time import perf_counter

# Percentiles the tail metric may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


class Deadline(BaseException):
    """Raised from the SIGALRM handler when an operation overruns.

    It derives from BaseException so that no ``except Exception`` inside the
    program under test can swallow it.
    """


class OpFailure(Exception):
    """An operation ended without a usable result; ``kind`` names why."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


def _on_alarm(signum, frame):
    raise Deadline()


def install_deadline_handler() -> None:
    signal.signal(signal.SIGALRM, _on_alarm)


def failure_kind(exc: BaseException) -> str:
    if isinstance(exc, Deadline):
        return "deadline"
    if isinstance(exc, MemoryError):
        return "memory"
    if isinstance(exc, OpFailure):
        return exc.kind
    return f"exception:{type(exc).__name__}"


def call_with_deadline(fn, deadline_s: float):
    """Run ``fn()`` under a wall-clock deadline.

    Returns ``(value, kind, elapsed_s)``; ``kind`` is None on success and the
    failure kind otherwise.  Only the failures an operation can meet are
    caught; KeyboardInterrupt and SystemExit pass through.
    """
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - start
    except (Deadline, Exception) as exc:
        return None, failure_kind(exc), perf_counter() - start
    return value, None, elapsed


def _address_space_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")


@contextmanager
def memory_cap(headroom_mib: int):
    """Cap the process address space at its current size plus a headroom.

    Allocations beyond the cap raise MemoryError inside the program, which
    the caller records as a failed operation.  Yields the cap in bytes.
    """
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = _address_space_bytes() + (headroom_mib << 20)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield cap
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def peak_rss_mib() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(samples) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value)`` by the nearest-rank rule.  With fewer
    than twenty samples no ladder percentile qualifies and the maximum is
    returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    chosen = None
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            chosen = (p, ordered[rank - 1])
    return chosen if chosen is not None else (100.0, ordered[-1])


class Span:
    __slots__ = ("name", "frame", "parent", "start", "end", "error", "_recorder")

    def __init__(self, recorder: "SpanRecorder", name: str, frame: str):
        self.name = name
        self.frame = frame
        self.parent = None
        self.start = 0.0
        self.end = 0.0
        self.error = None
        self._recorder = recorder

    def __enter__(self) -> "Span":
        stack = self._recorder.stack
        self.parent = stack[-1] if stack else None
        self._recorder.spans.append(self)
        stack.append(len(self._recorder.spans) - 1)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = perf_counter()
        self._recorder.stack.pop()
        if exc is not None:
            self.error = failure_kind(exc)
        return False


class SpanRecorder:
    """Spans of one run, kept in memory and written out when the run ends.

    A span records its name, start, end, the index of the span that
    encloses it, the operation (frame or job) it belongs to, and the failure
    kind when the call inside it raised.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []

    def span(self, name: str, frame: str) -> Span:
        return Span(self, name, frame)

    def rows(self, origin: float):
        for i, s in enumerate(self.spans):
            yield {
                "id": i, "name": s.name, "frame": s.frame, "parent": s.parent,
                "start_ms": (s.start - origin) * 1e3, "end_ms": (s.end - origin) * 1e3,
                "error": s.error,
            }
