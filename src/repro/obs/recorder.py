"""Event model and recorders for structured runtime tracing.

Three event kinds, all stamped in the executor's *virtual* time (so a
trace of the same seeded workload is reproducible byte for byte):

* :class:`Span` — a named interval ``[start, end]`` on a *track* (a
  blade, the scheduler, the pending queue).  Spans may nest via
  ``parent_id``, which is how kernel-level cycle traces attach under
  the runtime job that launched them (:mod:`repro.obs.bridge`).
* :class:`Instant` — a point event (a reconfiguration load, an LRU
  eviction, a batch forming, a placement decision).
* :class:`CounterSample` — one sample of a named time-series (queue
  depth, per-blade busy state).  Sampled on every change, not just
  aggregated to max/mean.

:class:`TraceRecorder` stores events append-only by default, or as a
bounded ring with a dropped-events counter (``max_events=``); exporters
(:mod:`repro.obs.export`) render them as Chrome trace-event JSON or
JSON lines.  :class:`NullRecorder` is the disabled path: its methods
drop every event.  Instrumentation sites call the recorder unguarded,
so tracing off still builds each event's arguments and drops them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

__all__ = [
    "Span",
    "Instant",
    "CounterSample",
    "TraceRecorder",
    "NullRecorder",
    "NULL_RECORDER",
]


@dataclass
class Span:
    """A named interval on a track; ``parent_id`` nests child spans."""

    span_id: int
    name: str
    cat: str
    track: str
    start: float
    end: float
    args: Dict[str, Any] = field(default_factory=dict)
    parent_id: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Instant:
    """A point event on a track."""

    name: str
    cat: str
    track: str
    ts: float
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass
class CounterSample:
    """One sample of a named time-series."""

    name: str
    track: str
    ts: float
    value: float


class TraceRecorder:
    """Store of spans, instants and counter samples.

    Deterministic by construction: span ids are a simple counter,
    events keep insertion order, and all timestamps come from the
    caller (the executor's virtual clock) — nothing reads wall time.

    The default is the append-only unbounded store (exporters are
    byte-identical run to run).  ``max_events`` turns on *ring mode*
    for long-lived services: only the newest ``max_events`` events
    (across all three kinds, global insertion order) are kept, older
    ones are evicted oldest-first, and ``dropped_events`` counts the
    evictions — exposed by the exporters so a truncated trace is
    never mistaken for a complete one.
    """

    def __init__(self, max_events: Optional[int] = None) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be >= 1 (or None)")
        self.max_events = max_events
        # Ring mode needs O(1) eviction at the left end; the default
        # keeps plain lists so existing append-only consumers (and
        # their equality checks) see exactly the PR 2 behavior.
        store = list if max_events is None else deque
        self.spans: List[Span] = store()  # type: ignore[assignment]
        self.instants: List[Instant] = store()  # type: ignore[assignment]
        self.counters: List[CounterSample] = store()  # type: ignore[assignment]
        #: Insertion-order kinds ("s"/"i"/"c") driving ring eviction.
        self._order: Deque[str] = deque()
        self.dropped_events = 0
        self._next_span_id = 1

    def _admit(self, kind: str) -> None:
        if self.max_events is None:
            return
        self._order.append(kind)
        if len(self._order) > self.max_events:
            oldest = self._order.popleft()
            if oldest == "s":
                self.spans.popleft()  # type: ignore[attr-defined]
            elif oldest == "i":
                self.instants.popleft()  # type: ignore[attr-defined]
            else:
                self.counters.popleft()  # type: ignore[attr-defined]
            self.dropped_events += 1

    # -- recording -------------------------------------------------------
    def span(self, name: str, cat: str, track: str,
             start: float, end: float,
             args: Optional[Dict[str, Any]] = None,
             parent_id: Optional[int] = None) -> int:
        """Record a completed interval; returns its span id."""
        if end < start:
            raise ValueError(
                f"span {name!r} ends before it starts "
                f"({end} < {start})")
        span_id = self._next_span_id
        self._next_span_id += 1
        self.spans.append(Span(span_id=span_id, name=name, cat=cat,
                               track=track, start=start, end=end,
                               args=dict(args) if args else {},
                               parent_id=parent_id))
        self._admit("s")
        return span_id

    def instant(self, name: str, cat: str, track: str, ts: float,
                args: Optional[Dict[str, Any]] = None) -> None:
        """Record a point event."""
        self.instants.append(Instant(name=name, cat=cat, track=track,
                                     ts=ts,
                                     args=dict(args) if args else {}))
        self._admit("i")

    def counter(self, name: str, track: str, ts: float,
                value: float) -> None:
        """Record one time-series sample."""
        self.counters.append(CounterSample(name=name, track=track,
                                           ts=ts, value=float(value)))
        self._admit("c")

    # -- queries ---------------------------------------------------------
    def tracks(self) -> List[str]:
        """Every track name, in first-appearance order (spans, then
        instants, then counters) — the exporter's thread layout."""
        seen: Dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.track)
        for instant in self.instants:
            seen.setdefault(instant.track)
        for sample in self.counters:
            seen.setdefault(sample.track)
        return list(seen)

    def series(self, name: str) -> List[CounterSample]:
        """All samples of one counter, in recording order."""
        samples = [s for s in self.counters if s.name == name]
        if not samples:
            available = sorted({s.name for s in self.counters})
            raise ValueError(
                f"unknown counter {name!r}; available counters: "
                f"{available}")
        return samples

    def find_spans(self, *, cat: Optional[str] = None,
                   name_prefix: Optional[str] = None) -> List[Span]:
        """Spans filtered by category and/or name prefix."""
        found = self.spans
        if cat is not None:
            found = [s for s in found if s.cat == cat]
        if name_prefix is not None:
            found = [s for s in found if s.name.startswith(name_prefix)]
        return list(found)

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.counters)


class NullRecorder:
    """Disabled tracing: no storage, and every method drops its event.

    ``span`` returns the id −1, which no recorded span has;
    :func:`repro.obs.attach_kernel_trace` treats it as no parent.
    """

    def span(self, name: str, cat: str, track: str,
             start: float, end: float,
             args: Optional[Dict[str, Any]] = None,
             parent_id: Optional[int] = None) -> int:
        return -1

    def instant(self, name: str, cat: str, track: str, ts: float,
                args: Optional[Dict[str, Any]] = None) -> None:
        return None

    def counter(self, name: str, track: str, ts: float,
                value: float) -> None:
        return None


#: Shared no-op recorder; the executor's default.
NULL_RECORDER = NullRecorder()
