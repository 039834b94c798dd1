"""Layer attribution for the traced run.

The benchmark never edits ``src/``: it wraps each layer's public entry
points from here, records one span per call, and restores the
originals afterwards.  A span holds its layer, the wrapped entry, its
start and end (``time.perf_counter``), its *self* time (duration minus
the child spans on the same thread), the entry of its parent span, the
thread, the epoch and, where the wrapped call receives one, the
request id.  Stacks are thread-local, so spans nest per thread and the
self times of one thread never overlap; the serve workload records
only on the server thread, which keeps the sum of self times within
the traced wall time.

Spans stay in memory while the workload runs and are written out once
it has finished (:meth:`SpanLog.write`).  Counts that only the layer
boundary sees (protocol bytes, fast-kernel fallbacks, coalesced
requests, executor metrics) are recorded by per-entry hooks on the
same calls.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
import types
from collections import Counter
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Tuple)


class Span(NamedTuple):
    layer: str
    entry: str
    start: float
    end: float
    self_s: float
    parent: Optional[str]
    thread: int
    epoch: int
    request: Optional[Any]


class SpanLog:
    """In-memory store of one traced run's spans and boundary counts."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: ``RuntimeMetrics`` returned by every traced ``BlasRuntime.run``.
        self.run_metrics: List[Any] = []
        #: Recording is on only between :meth:`start` and :meth:`stop`.
        self.active = False
        #: Serve: the drain the work belongs to; runtime: the episode.
        self.epoch = 1
        #: Threads whose calls into server-only layers are not recorded
        #: (the benchmark's own client thread).
        self.client_threads: set = set()
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict(),
                                        separators=(",", ":")) + "\n")


Hook = Callable[[SpanLog, tuple, Any], None]


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point."""

    layer: str
    owner: Any  # a class, or the module defining the function
    name: str
    #: Record only on server threads (see ``SpanLog.client_threads``).
    server_only: bool = False
    hook: Optional[Hook] = None
    #: Extracts the request id from the call's positional arguments.
    request_of: Optional[Callable[[tuple], Any]] = None

    @property
    def label(self) -> str:
        owner = self.owner.__name__.rsplit(".", 1)[-1]
        return f"{owner}.{self.name}"


# -- boundary counts ------------------------------------------------------
def _count_encoded(log: SpanLog, args: tuple, result: Any) -> None:
    log.counts["serve.protocol.bytes"] += len(result)


def _count_decoded(log: SpanLog, args: tuple, result: Any) -> None:
    log.counts["serve.protocol.bytes"] += len(args[0])


def _next_epoch(log: SpanLog, args: tuple, result: Any) -> None:
    log.epoch += 1


def _count_coalesced(log: SpanLog, args: tuple, result: Any) -> None:
    log.counts["coalesce.entries"] += len(args[0])
    log.counts["coalesce.coalesced"] += result[1].coalesced_requests


def _keep_run_metrics(log: SpanLog, args: tuple, result: Any) -> None:
    log.run_metrics.append(result)


def _count_cycles(log: SpanLog, args: tuple, result: Any) -> None:
    log.counts["blas.api.execute.cycles"] += result.report.total_cycles


def _count_fallback(log: SpanLog, args: tuple, result: Any) -> None:
    if result is None:
        log.counts["sim.fast.fallbacks"] += 1


def _count_trace_events(log: SpanLog, args: tuple, result: Any) -> None:
    log.counts["obs.trace.events"] += len(args[0])


def _submit_id(args: tuple) -> Any:
    message = args[1] if len(args) > 1 else None
    return message.get("id") if isinstance(message, dict) else None


def _public_methods(cls: type) -> List[str]:
    return sorted(name for name, value in vars(cls).items()
                  if not name.startswith("_")
                  and isinstance(value, types.FunctionType))


def entry_points() -> List[Entry]:
    """Every wrapped entry point, grouped by layer (module) name."""
    from repro.analyze import program as analyze_program
    from repro.blas import api
    from repro.blas.level1 import DotProductDesign
    from repro.blas.level2 import ColumnMajorMvmDesign, TreeMvmDesign
    from repro.blas.level3 import MatrixMultiplyDesign
    from repro.blas.multi_fpga import MultiFpgaMatrixMultiply
    from repro.blas.program import BlasProgram
    from repro.obs import drift, export
    from repro.obs.metrics import (Counter as MetricCounter, Gauge,
                                   Histogram, MetricsRegistry)
    from repro.obs.recorder import TraceRecorder
    from repro.obs.sampling import FlightRecorder
    from repro.obs.slo import SloMonitor
    from repro.runtime.executor import BlasRuntime
    from repro.runtime.scheduler import SchedulingPolicy
    from repro.serve import coalescer, protocol, server, tenant
    from repro.sim import fast
    from repro.sparse.spmxv import SpmxvDesign

    entries = [
        Entry("serve.protocol", protocol, "encode", server_only=True,
              hook=_count_encoded),
        Entry("serve.protocol", protocol, "decode", server_only=True,
              hook=_count_decoded),
        Entry("serve.server.submit", server.BlasService, "submit",
              request_of=_submit_id),
        Entry("serve.server.drain", server.BlasService, "drain",
              hook=_next_epoch),
        Entry("serve.server.materialize", server, "materialize"),
        Entry("serve.coalescer", coalescer, "coalesce",
              hook=_count_coalesced),
        Entry("serve.tenant", tenant, "weighted_deficit_order"),
        Entry("analyze.program", analyze_program, "check_program_spec"),
        Entry("analyze.program", BlasProgram, "check"),
        Entry("blas.program", BlasProgram, "plan"),
        Entry("blas.program", BlasProgram, "execute"),
        Entry("runtime.executor.submit", BlasRuntime, "submit"),
        Entry("runtime.executor.run", BlasRuntime, "run",
              hook=_keep_run_metrics),
        Entry("runtime.scheduler", SchedulingPolicy, "select"),
        Entry("blas.api.plan", api.BlasCall, "plan"),
        Entry("blas.api.execute", api.BlasCall, "execute",
              hook=_count_cycles),
        Entry("blas.level1", DotProductDesign, "run"),
        Entry("blas.level3", MatrixMultiplyDesign, "run"),
        Entry("sparse.spmxv", SpmxvDesign, "run"),
        Entry("obs.trace", export, "write_chrome_trace",
              hook=_count_trace_events),
        Entry("obs.trace", drift, "drift_report"),
    ]
    for name in ("fast_dot", "fast_mvm", "fast_spmxv",
                 "fast_multi_fpga_mm"):
        entries.append(Entry("sim.fast", fast, name,
                             hook=_count_fallback))
    for design in (TreeMvmDesign, ColumnMajorMvmDesign):
        for name in ("run", "run_blocked"):
            entries.append(Entry("blas.level2", design, name))
    # The fast gang tier replaces the array's run(): on that path the
    # layer's work is building the design and its closed forms.
    for name in ["__init__"] + _public_methods(MultiFpgaMatrixMultiply):
        entries.append(Entry("blas.multi_fpga", MultiFpgaMatrixMultiply,
                             name))
    # Admission is the rest of the tenant layer's work per submit.
    for name in _public_methods(tenant.AdmissionController):
        entries.append(Entry("serve.tenant", tenant.AdmissionController,
                             name))
    for cls in (MetricsRegistry, MetricCounter, Gauge, Histogram,
                FlightRecorder, SloMonitor):
        for name in _public_methods(cls):
            entries.append(Entry("obs.live", cls, name))
    for name in ("span", "instant", "counter"):
        entries.append(Entry("obs.trace", TraceRecorder, name))
    return entries


def _wrap(log: SpanLog, entry: Entry, fn: Callable) -> Callable:
    layer, label = entry.layer, entry.label
    hook, request_of = entry.hook, entry.request_of
    server_only = entry.server_only
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        thread = threading.get_ident()
        if not log.active or (server_only
                              and thread in log.client_threads):
            return fn(*args, **kwargs)
        stack = log.stack()
        parent = stack[-1][0] if stack else None
        frame = [label, 0.0]
        stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            log.spans.append(Span(
                layer, label, start, end, duration - frame[1], parent,
                thread, log.epoch,
                request_of(args) if request_of is not None else None))
        if hook is not None:
            hook(log, args, result)
        return result

    return traced


def _repro_modules() -> Iterator[types.ModuleType]:
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro"
                                   or name.startswith("repro.")):
            yield module


class Tracer:
    """Installs the wrappers for one traced run; a context manager.

    A class attribute is replaced on its class.  A module-level
    function is replaced on every ``repro`` module that binds it, so
    callers that imported it by name see the wrapper too."""

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self.entries = entry_points()
        self._undo: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        for entry in self.entries:
            if isinstance(entry.owner, type):
                original = vars(entry.owner)[entry.name]
                setattr(entry.owner, entry.name,
                        _wrap(self.log, entry, original))
                self._undo.append((entry.owner, entry.name, original))
                continue
            original = getattr(entry.owner, entry.name)
            wrapper = _wrap(self.log, entry, original)
            for module in _repro_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


# -- per-layer metrics ----------------------------------------------------
#: Layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
_CALL_LAYERS = (
    "serve.protocol", "serve.server.submit", "serve.server.drain",
    "serve.server.materialize", "analyze.program", "obs.live",
    "runtime.executor.submit", "runtime.scheduler", "blas.api.plan",
    "blas.api.execute", "blas.program", "sim.fast", "blas.level1",
    "blas.level2", "sparse.spmxv", "blas.level3", "blas.multi_fpga",
)
#: Layers reported by self time alone.
_SELF_LAYERS = ("serve.tenant", "serve.coalescer", "obs.trace",
                "runtime.executor.run")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(log: SpanLog, traced_wall: float,
                  overhead_share: float, schedule_misses: int,
                  program_requests: int) -> Dict[str, float]:
    """Per-layer metrics of one traced round.

    ``traced_wall`` is the host seconds of the round; ``overhead_share``
    is the tracing overhead, traced over untraced host seconds of the
    same round, less one; ``program_requests`` is the number of program
    (``cg``) submissions in the round."""
    from repro.runtime.metrics import percentile

    calls: Counter = Counter()
    self_s: Counter = Counter()
    top_level_plans = 0
    execute_seconds = 0.0
    for span in log.spans:
        calls[span.layer] += 1
        self_s[span.layer] += span.self_s
        if span.entry == "BlasProgram.plan" or (
                span.entry == "BlasCall.plan"
                and span.parent != "BlasProgram.plan"):
            top_level_plans += 1
        if span.entry == "BlasCall.execute":
            execute_seconds += span.end - span.start
    out: Dict[str, float] = {}
    for layer in _CALL_LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    for layer in _SELF_LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    counts = log.counts
    out["serve.protocol.bytes"] = counts["serve.protocol.bytes"]
    out["serve.coalescer.coalesced_share"] = _ratio(
        counts["coalesce.coalesced"], counts["coalesce.entries"])
    out["analyze.program.per_program"] = _ratio(
        calls["analyze.program"], program_requests)
    out["obs.trace.events"] = counts["obs.trace.events"]
    runs = log.run_metrics
    jobs = sum(m.jobs_submitted for m in runs)
    waits = [w for m in runs for w in m.wait_seconds]
    out["runtime.executor.jobs"] = jobs
    out["runtime.executor.batches"] = sum(m.batches for m in runs)
    out["runtime.executor.gangs"] = sum(m.gangs_formed for m in runs)
    out["runtime.executor.gangs_multichassis"] = sum(
        m.gangs_multichassis for m in runs)
    out["runtime.executor.reconfigurations"] = sum(
        d.reconfigurations for m in runs for d in m.devices)
    out["runtime.executor.queue_wait_p99_ms"] = (
        percentile(waits, 99) * 1e3 if waits else 0.0)
    out["blas.api.plan.per_job"] = _ratio(top_level_plans, jobs)
    out["blas.api.execute.cycles_per_s"] = _ratio(
        counts["blas.api.execute.cycles"], execute_seconds)
    out["sim.fast.fallbacks"] = counts["sim.fast.fallbacks"]
    out["sim.fast.schedule_misses"] = schedule_misses
    out["unattributed.self_s"] = traced_wall - sum(self_s.values())
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_share"] = overhead_share
    out["trace.spans"] = len(log.spans)
    return out
