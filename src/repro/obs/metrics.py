"""Streaming metrics: counters, gauges, log-bucket histograms.

The end-of-run aggregates in :mod:`repro.runtime.metrics` keep every
latency of one finite run in a Python list.  A long-lived ``repro
serve`` cannot: its one cross-epoch ledger is a
:class:`MetricsRegistry` of typed instruments whose state size is
fixed no matter how many observations flow through.  The registry
keeps the repo's determinism contract: nothing reads wall time, and
``json.dumps(snapshot(), sort_keys=True)`` is byte-identical for
byte-identical observation streams.

* :class:`Counter` — monotone float total.
* :class:`Gauge` — last-write-wins level.
* :class:`Histogram` — fixed-boundary log-bucket histogram.  With the
  default boundaries (:func:`log_boundaries`, 30 buckets per decade
  over [1e-7 s, 1e2 s]) any quantile that falls in a regular bucket is
  reconstructed to within :attr:`Histogram.error_bound` relative error
  (≈ 3.9 %): the estimate is the geometric midpoint of the bucket
  holding the nearest-rank order statistic, clamped into the exact
  observed ``[min, max]``.
* :class:`RateWindow` — per-slot sums over a sliding window of
  virtual time (the SLO monitor's burn-rate rings).
* Prometheus-style text exposition (:func:`to_prom_text`) rendered
  from a snapshot — so both a live server and a saved
  ``--metrics-out`` file can serve the same format — plus
  :func:`parse_prom_text` so tests and CI can assert the exposition
  is well formed without a Prometheus client.

This module must import nothing outside the standard library: the
runtime executor imports ``repro.obs``, which must stay importable
from the runtime package without a cycle.
"""

from __future__ import annotations

import bisect
import math
import re
from collections import deque
from typing import (Any, Deque, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

__all__ = [
    "log_boundaries",
    "Histogram",
    "Counter",
    "Gauge",
    "RateWindow",
    "MetricsRegistry",
    "metric_id",
    "to_prom_text",
    "parse_prom_text",
]

#: Default histogram range: 100 ns .. 100 s of virtual time covers
#: every latency the simulated XD1 produces (single dot products run
#: microseconds; a 100k-request epoch's tail sits well under a second).
DEFAULT_LO = 1e-7
DEFAULT_HI = 1e2
DEFAULT_PER_DECADE = 30


def log_boundaries(lo: float = DEFAULT_LO, hi: float = DEFAULT_HI,
                   per_decade: int = DEFAULT_PER_DECADE
                   ) -> Tuple[float, ...]:
    """Logarithmically spaced bucket boundaries ``lo · r^i`` with
    ``r = 10^(1/per_decade)``, ending at the first boundary ≥ ``hi``."""
    if lo <= 0.0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    decades = math.log10(hi / lo)
    steps = math.ceil(decades * per_decade - 1e-9)
    return tuple(lo * 10.0 ** (i / per_decade) for i in range(steps + 1))


_DEFAULT_BOUNDARIES = log_boundaries()


class Histogram:
    """Fixed-boundary histogram with bounded-error quantiles.

    Values ≤ 0 land in a dedicated zero bucket (virtual-time waits are
    often exactly 0.0 and must reconstruct exactly); values below the
    first boundary land in an underflow bucket reported as the exact
    observed minimum; values past the last boundary report the exact
    observed maximum.  Everything in between is within
    :attr:`error_bound` relative error of the true nearest-rank order
    statistic.  State size is fixed: ``len(boundaries) + O(1)`` ints.
    """

    def __init__(self,
                 boundaries: Optional[Sequence[float]] = None) -> None:
        bounds = (_DEFAULT_BOUNDARIES if boundaries is None
                  else tuple(float(b) for b in boundaries))
        if len(bounds) < 2:
            raise ValueError("need at least two boundaries")
        for lo, hi in zip(bounds, bounds[1:]):
            if not lo < hi:
                raise ValueError(
                    "boundaries must be strictly increasing")
        if bounds[0] <= 0.0:
            raise ValueError("boundaries must be positive "
                             "(<= 0 has its own zero bucket)")
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) - 1)
        self.zero_count = 0
        self.underflow = 0
        self.overflow = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    @property
    def error_bound(self) -> float:
        """Worst-case relative error of a quantile that falls in a
        regular bucket: geometric-midpoint reporting gives
        ``sqrt(hi/lo) − 1`` of the widest bucket."""
        worst = max(hi / lo for lo, hi
                    in zip(self.boundaries, self.boundaries[1:]))
        return math.sqrt(worst) - 1.0

    # -- recording -------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot observe NaN")
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero_count += 1
        elif value < self.boundaries[0]:
            self.underflow += 1
        elif value >= self.boundaries[-1]:
            self.overflow += 1
        else:
            self.counts[bisect.bisect_right(self.boundaries,
                                            value) - 1] += 1

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    # -- reconstruction --------------------------------------------------
    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate, ``q`` in [0, 1].

        Exact for the zero bucket and at the extremes (rank 1 clamps
        to ``min``, rank ``count`` to ``max``); elsewhere within
        :attr:`error_bound` relative error.  Returns 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cum = self.zero_count
        if rank <= cum:
            return self.min if self.min < 0.0 else 0.0
        cum += self.underflow
        if rank <= cum:
            return self._clamp(self.boundaries[0])
        for index, bucket in enumerate(self.counts):
            cum += bucket
            if rank <= cum:
                lo = self.boundaries[index]
                hi = self.boundaries[index + 1]
                return self._clamp(math.sqrt(lo * hi))
        return self.max

    def _clamp(self, estimate: float) -> float:
        return min(max(estimate, self.min), self.max)

    # -- export ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-stable state: sparse non-empty buckets as
        ``[upper_boundary, count]`` pairs plus p50/p90/p99."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "zero": self.zero_count,
            "underflow": self.underflow,
            "overflow": self.overflow,
            "buckets": [[self.boundaries[i + 1], c]
                        for i, c in enumerate(self.counts) if c],
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class RateWindow:
    """Per-bucket sums over a sliding window of virtual time.

    The window is a ring of ``buckets`` fixed-resolution slots; adding
    at timestamp ``ts`` accumulates into slot ``ts // resolution`` and
    querying at ``now`` sums the slots inside ``(now − window, now]``.
    Memory is O(buckets) regardless of event count.  Timestamps must
    come from the deterministic clock; an out-of-order add older than
    the window is dropped (counted in ``late_drops``), so a replayed
    stream always reproduces the same sums.
    """

    def __init__(self, window: float, buckets: int = 20) -> None:
        if window <= 0.0:
            raise ValueError("window must be positive")
        if buckets < 1:
            raise ValueError("buckets must be >= 1")
        self.window = float(window)
        self.buckets = buckets
        self.resolution = self.window / buckets
        #: (slot index, accumulated amount), slot-ascending.
        self._slots: Deque[List[float]] = deque()
        self.late_drops = 0

    def _slot(self, ts: float) -> int:
        return int(ts // self.resolution)

    def add(self, ts: float, amount: float = 1.0) -> None:
        slot = self._slot(ts)
        if not self._slots or slot > self._slots[-1][0]:
            self._slots.append([slot, amount])
            self._evict(slot)
            return
        if slot <= self._slots[-1][0] - self.buckets:
            self.late_drops += 1
            return
        for held in self._slots:
            if held[0] == slot:
                held[1] += amount
                return
        # In-range slot with no entry yet: insert keeping slot order.
        index = 0
        for index, held in enumerate(self._slots):
            if held[0] > slot:
                break
        self._slots.insert(index, [slot, amount])

    def _evict(self, newest_slot: int) -> None:
        oldest_kept = newest_slot - self.buckets + 1
        while self._slots and self._slots[0][0] < oldest_kept:
            self._slots.popleft()

    def sum(self, now: float) -> float:
        oldest_kept = self._slot(now) - self.buckets + 1
        return math.fsum(amount for slot, amount in self._slots
                         if slot >= oldest_kept)


class Counter:
    """Monotone total."""

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0.0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """Last-write-wins level (queue depth, pending count)."""

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> Dict[str, Any]:
        return {"value": self.value}


def metric_id(name: str, labels: Optional[Mapping[str, str]] = None
              ) -> str:
    """Canonical identity string: ``name`` or ``name{k="v",…}`` with
    label keys sorted — the snapshot key and exposition identity."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{labels[key]}"'
                     for key in sorted(labels))
    return f"{name}{{{inner}}}"


_TYPES = ("counter", "gauge", "histogram")


class MetricsRegistry:
    """Get-or-create home of every instrument, one per (name, labels).

    Registration is idempotent; asking for an existing name with a
    different type raises.  ``snapshot()`` is a plain dict sorted by
    identity — two registries fed the same observation stream
    serialize byte-identically, which is the replay contract ``repro
    serve --metrics-out`` pins in CI.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._types: Dict[str, str] = {}

    def _get(self, kind: str, name: str,
             labels: Optional[Mapping[str, str]], factory: Any) -> Any:
        if not name:
            raise ValueError("metric name must be non-empty")
        family_type = self._types.get(name)
        if family_type is not None and family_type != kind:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{family_type}, not {kind}")
        ident = metric_id(name, labels)
        metric = self._metrics.get(ident)
        if metric is None:
            metric = factory()
            self._metrics[ident] = metric
            self._types[name] = kind
        return metric

    def counter(self, name: str, *,
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, *,
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        return self._get("gauge", name, labels, Gauge)

    def histogram(self, name: str, *,
                  labels: Optional[Mapping[str, str]] = None,
                  boundaries: Optional[Sequence[float]] = None
                  ) -> Histogram:
        return self._get("histogram", name, labels,
                         lambda: Histogram(boundaries=boundaries))

    def __len__(self) -> int:
        return len(self._metrics)

    # -- export ----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        metrics = {}
        for ident in sorted(self._metrics):
            name = ident.split("{", 1)[0]
            entry = {"type": self._types[name]}
            entry.update(self._metrics[ident].snapshot())
            metrics[ident] = entry
        return {"metrics": metrics}


# -- Prometheus-style exposition -----------------------------------------
_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"          # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""  # first label
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (\S+)$")


def _prom_name(name: str) -> str:
    return _NAME_SANITIZE.sub("_", name)


def _split_ident(ident: str) -> Tuple[str, str]:
    """``name{labels}`` → (prom name, ``{labels}`` or empty)."""
    if "{" in ident:
        name, labels = ident.split("{", 1)
        return _prom_name(name), "{" + labels
    return _prom_name(ident), ""


def _fmt(value: float) -> str:
    if value != value or value in (math.inf, -math.inf):
        return "NaN" if value != value else (
            "+Inf" if value > 0 else "-Inf")
    return repr(float(value))


def to_prom_text(snapshot: Mapping[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as Prometheus text.

    Counters and gauges become one sample each; histograms become
    cumulative ``_bucket{le=…}`` samples (non-empty buckets plus the
    mandatory ``+Inf``), ``_sum`` and ``_count``.  Deterministic:
    identities are already sorted in the snapshot."""
    lines: List[str] = []
    typed: Dict[str, str] = {}
    for ident, entry in snapshot.get("metrics", {}).items():
        name, labels = _split_ident(ident)
        kind = entry["type"]
        if name not in typed:
            typed[name] = kind
            lines.append(f"# TYPE {name} {kind}")
        if kind in ("counter", "gauge"):
            lines.append(f"{name}{labels} {_fmt(entry['value'])}")
            continue
        base = labels[1:-1] + "," if labels else ""
        cum = entry["zero"] + entry["underflow"]
        for le, bucket_count in entry["buckets"]:
            cum += bucket_count
            lines.append(f'{name}_bucket{{{base}le="{_fmt(le)}"}} '
                         f"{cum}")
        lines.append(f'{name}_bucket{{{base}le="+Inf"}} '
                     f"{entry['count']}")
        lines.append(f"{name}_sum{labels} {_fmt(entry['sum'])}")
        lines.append(f"{name}_count{labels} {entry['count']}")
    return "\n".join(lines) + "\n" if lines else ""


def parse_prom_text(text: str) -> Dict[str, float]:
    """Parse exposition text back into ``{identity: value}``.

    Strict enough for CI to catch a malformed exposition: every
    non-comment line must match the sample grammar, and histogram
    ``_bucket`` series must be cumulative (non-decreasing toward
    ``+Inf``).  Raises :class:`ValueError` otherwise."""
    samples: Dict[str, float] = {}
    last_bucket: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(
                f"line {lineno} is not a valid sample: {line!r}")
        name, labels, raw = match.groups()
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"line {lineno} has a non-numeric value: "
                f"{raw!r}") from None
        ident = f"{name}{labels or ''}"
        if ident in samples:
            raise ValueError(f"duplicate sample {ident!r}")
        samples[ident] = value
        if name.endswith("_bucket"):
            series = name + re.sub(r',?le="[^"]*"', "", labels or "")
            floor = last_bucket.get(series)
            if floor is not None and value < floor:
                raise ValueError(
                    f"line {lineno}: bucket series {series!r} is not "
                    f"cumulative ({value} < {floor})")
            last_bucket[series] = value
    return samples
