"""The benchmark's workloads: inputs, one timed round, correctness gate.

Each workload builds its inputs from the seed alone (the program only
ever sees generated specs and operands), runs *rounds* — identical,
deterministic repetitions of the same inputs — and checks the results
of a round against NumPy before any timing is published.

* ``serve_tcp`` replays a multi-tenant request stream over one TCP
  loopback connection to a ``BlasServer`` running on a thread of this
  process.  The loop is closed: the client sends submits in pipelined
  chunks, reads their acknowledgements before sending the next chunk,
  and sends a drain every ``drain_every`` submits.  Each round runs
  against a fresh service, so its responses replay byte for byte; the
  process-wide schedule caches stay warm, as on a live server.
* ``runtime_cycle`` is the ``repro trace`` path: a closed batch on one
  six-blade chassis in cycle mode with the trace recorder on, ending
  with the Chrome-trace export and the drift report.
* ``gang_scaleout`` is a burst of distinct large gemms on the
  12-chassis, 72-blade XD1 in fast mode, ganged across chassis.

The two runtime workloads run cold: every round first clears the
program's ``lru_cache`` memo tables, because a command-line user pays
those fills on every invocation.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.blas import api
from repro.obs.slo import SloObjective, SloSpec
from repro.runtime import BlasRuntime
from repro.runtime.job import BlasRequest, JobState
from repro.runtime.metrics import percentile
from repro.serve import protocol
from repro.serve import server as serve
from repro.sim import fast as fastsim
from repro.workloads import blas_request_mix, multi_tenant_mix

#: Largest accepted residual max|result − reference| / (max|reference|
#: + 1) against the NumPy reference, for every kernel and size here.
RESIDUAL_BOUND = 1e-9
#: The documented plan-vs-executed cycle band of spmxv (every other
#: kernel, and programs without spmxv, must match exactly).
SPMXV_DRIFT_BOUND = 0.10


def clear_caches() -> None:
    """Empty every ``lru_cache`` bound in a loaded ``repro`` module, so
    the next round pays each cold fill."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for value in vars(module).values():
            if (callable(getattr(value, "cache_clear", None))
                    and hasattr(value, "cache_info")
                    and id(value) not in seen):
                seen.add(id(value))
                value.cache_clear()


def schedule_misses() -> int:
    """Reduction-schedule recordings so far (the fast tier's cache)."""
    return fastsim.reduction_program.cache_info().misses


def tail_mean(values: Sequence[float]) -> float:
    """Mean of the values at or beyond their p99: unlike the p99
    itself, it does not sit on one quantized service time."""
    if not values:
        return 0.0
    cut = percentile(values, 99)
    tail = [v for v in values if v >= cut]
    return sum(tail) / len(tail)


def matches(value: Any, reference: Any) -> bool:
    """max|value − reference| / (max|reference| + 1) within
    ``RESIDUAL_BOUND``; a NaN anywhere fails."""
    result = np.atleast_1d(np.asarray(value, dtype=np.float64))
    expected = np.atleast_1d(np.asarray(reference, dtype=np.float64))
    if result.shape != expected.shape:
        return False
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    error = float(np.max(np.abs(result - expected))) / (scale + 1.0)
    return error <= RESIDUAL_BOUND


def numpy_reference(operation: str, operands: Tuple[Any, Any]) -> Any:
    a, b = operands
    if operation == "dot":
        return float(np.dot(a, b))
    if operation in ("gemv", "gemm"):
        return np.asarray(a) @ np.asarray(b)
    return a.to_dense() @ np.asarray(b)  # spmxv


@dataclass
class Round:
    """What one timed round measured, plus what its gate needs."""

    #: Host seconds of the timed window.
    seconds: float
    attempted: int
    #: Requests that came back DONE.
    completed: int
    #: Host seconds from submit to result, one per completed request.
    latencies: List[float]
    #: Result digest sequence: identical on every round of a run.
    digests: List[str]
    virtual_makespan_s: float
    #: Mean virtual latency of the slowest 1% (at or beyond the p99).
    virtual_tail_latency_s: float
    #: Reduction-schedule recordings during the round.
    schedule_misses: int
    #: Requests that were rejected or did not finish DONE.
    failures: List[str] = field(default_factory=list)
    #: Program (``cg``) submissions in the round.
    program_requests: int = 0
    results: Any = None


# ----------------------------------------------------------------------
# serve_tcp
# ----------------------------------------------------------------------
#: Shape grid of serve_tcp and runtime_cycle: the default grids of
#: ``repro.workloads`` (spmxv sizes are Poisson grid widths), fixed here
#: so the benchmark's inputs cannot drift with the library's defaults.
SIZES = {
    "dot": (256, 512, 1024, 2048, 4096),
    "gemv": (32, 48, 64, 96, 128, 192, 256),
    "gemm": (16, 24, 32, 48, 64, 96, 128),
    "spmxv": (8, 10, 12, 16, 20),
}
#: Poisson grid widths of the ``cg`` program submissions, and their
#: share of the serve_tcp stream.
CG_GRIDS = (8, 10, 12, 16)
CG_SHARE = 0.10


@dataclass(frozen=True)
class ServeShape:
    """Size of the serve_tcp stream and of its closed loop."""

    requests: int
    warmup_requests: int
    #: Submits written per pipelined chunk before reading their acks.
    chunk: int
    #: Submits between drains (a multiple of ``chunk``).
    drain_every: int


SERVE_SHAPES = {
    "full": ServeShape(requests=4000, warmup_requests=600, chunk=50,
                       drain_every=250),
    "tiny": ServeShape(requests=60, warmup_requests=20, chunk=10,
                       drain_every=20),
}


def serve_stream(rng: np.random.Generator,
                 count: int) -> List[Tuple[float, str, Dict]]:
    """``multi_tenant_mix`` (three tenants, 1000 requests per virtual
    second) with about ``CG_SHARE`` of the requests replaced by ``cg``
    program submissions."""
    stream = multi_tenant_mix(count, rng, arrival_rate=1000.0,
                              sizes=SIZES)
    out = []
    for at, tenant, spec in stream:
        if rng.random() < CG_SHARE:
            spec = {"operation": "cg",
                    "n": int(rng.choice(CG_GRIDS)),
                    "seed": int(rng.integers(0, 2**31)),
                    "priority": int(rng.integers(0, 3))}
        out.append((at, tenant, spec))
    return out


def every_shape(start: float) -> List[Tuple[float, str, Dict]]:
    """One request per shape the serve stream can draw, so the warm-up
    records every reduction schedule before the timed rounds."""
    specs = [{"operation": op, "n": n, "seed": 0}
             for op, sizes in SIZES.items() for n in sizes]
    specs += [{"operation": "cg", "n": grid, "seed": 0}
              for grid in CG_GRIDS]
    return [(start + 1e-3 * (i + 1), "astro", spec)
            for i, spec in enumerate(specs)]


def _submit_lines(stream: Sequence[Tuple[float, str, Dict]]
                  ) -> List[bytes]:
    return [protocol.encode({"op": "submit", "id": i, "tenant": tenant,
                             "at": at, "call": spec})
            for i, (at, tenant, spec) in enumerate(stream)]


def serve_config() -> serve.ServeConfig:
    """The served chassis: ``ServeConfig`` defaults plus an SLO spec, so
    the live SLO monitor runs beside the registry and flight recorder."""
    slo = SloSpec(objectives=(
        SloObjective(name="latency-p99", kind="latency",
                     threshold=0.05),
        SloObjective(name="errors", kind="error_ratio", budget=0.01),
    ))
    return serve.ServeConfig(slo=slo)


class ServerThread:
    """``repro.serve.server.run_server`` on a thread of this process."""

    def __init__(self, service: serve.BlasService) -> None:
        self.port: Optional[int] = None
        self.error: Optional[BaseException] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._main, args=(service,), name="blas-server",
            daemon=True)

    def _main(self, service: serve.BlasService) -> None:
        try:
            serve.run_server(service, port=0, ready=self._bound)
        except BaseException as exc:  # reported by start()/stop()
            self.error = exc
            self._ready.set()

    def _bound(self, port: int) -> None:
        self.port = port
        self._ready.set()

    def start(self) -> int:
        self._thread.start()
        if not self._ready.wait(60.0) or self.port is None:
            raise RuntimeError(f"server did not start: {self.error!r}")
        return self.port

    def join(self) -> None:
        self._thread.join(60.0)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not stop")
        if self.error is not None:
            raise RuntimeError(f"server failed: {self.error!r}")


class Connection:
    """One blocking client connection speaking the wire protocol."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=120.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def read(self) -> Dict[str, Any]:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return protocol.decode(line)

    def ask(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.send(protocol.encode(message))
        return self.read()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class ServeTcp:
    """Closed-loop replay over one TCP connection (see module doc)."""

    name = "serve_tcp"

    def __init__(self, seed: int, scale: str, out_dir: str) -> None:
        self.seed = seed
        self.shape = SERVE_SHAPES[scale]
        self.stream: List[Tuple[float, str, Dict]] = []
        self.lines: List[bytes] = []

    def setup(self) -> None:
        """Generate the timed and warm-up streams, then warm a server:
        the warm-up replays a stream from a disjoint seed followed by
        every shape once, paying each schedule-cache fill."""
        shape = self.shape
        self.stream = serve_stream(np.random.default_rng([self.seed, 0]),
                                   shape.requests)
        self.lines = _submit_lines(self.stream)
        warmup = serve_stream(np.random.default_rng([self.seed, 1]),
                              shape.warmup_requests)
        warmup += every_shape(warmup[-1][0])
        self._replay(_submit_lines(warmup))

    def round(self, log: Any = None) -> Round:
        rnd = self._replay(self.lines, log)
        rnd.program_requests = sum(
            1 for _, _, spec in self.stream if spec["operation"] == "cg")
        return rnd

    def _replay(self, lines: List[bytes], log: Any = None) -> Round:
        shape = self.shape
        count = len(lines)
        server = ServerThread(serve.BlasService(serve_config()))
        conn = Connection(server.start())
        try:
            sent_at = [0.0] * count
            entries: List[Optional[Dict]] = [None] * count
            latencies: List[float] = []
            failures: List[str] = []
            drain_line = protocol.encode({"op": "drain"})
            misses = schedule_misses()
            if log is not None:
                log.start()
            start = time.perf_counter()
            since_drain = 0
            for first in range(0, count, shape.chunk):
                chunk = lines[first:first + shape.chunk]
                now = time.perf_counter()
                conn.send(b"".join(chunk))
                for i in range(first, first + len(chunk)):
                    sent_at[i] = now
                for _ in chunk:
                    ack = conn.read()
                    if ack.get("type") != "accepted":
                        failures.append(f"request {ack.get('id')}: "
                                        f"{ack.get('reason', ack)}")
                since_drain += len(chunk)
                if (since_drain >= shape.drain_every
                        or first + shape.chunk >= count):
                    conn.send(drain_line)
                    drained = conn.read()
                    now = time.perf_counter()
                    for entry in drained["results"]:
                        entries[entry["id"]] = entry
                        latencies.append(now - sent_at[entry["id"]])
                    since_drain = 0
            seconds = time.perf_counter() - start
            if log is not None:
                log.stop()
            misses = schedule_misses() - misses
            makespan = conn.ask({"op": "metrics"})["metrics"][
                "makespan_seconds"]
            conn.ask({"op": "shutdown"})
        finally:
            conn.close()
        server.join()
        digests = []
        virtual_latencies = []
        for i, entry in enumerate(entries):
            if entry is not None and entry["state"] == "done":
                digests.append(entry["digest"])
                virtual_latencies.append(entry["latency_seconds"])
            else:
                digests.append("")
                if entry is not None:
                    failures.append(f"request {i}: {entry['state']}")
        return Round(
            seconds=seconds, attempted=count,
            completed=len(virtual_latencies), latencies=latencies,
            digests=digests,
            virtual_makespan_s=makespan,
            virtual_tail_latency_s=tail_mean(virtual_latencies),
            schedule_misses=misses, failures=failures, results=entries)

    def gate(self, rnd: Round) -> List[str]:
        """Rebuild every result from its spec: its digest must equal the
        wire digest and its value must match NumPy.  Cycle counts on the
        wire must match the plan: exactly for dot and gemv; for gemm
        exactly, or less the fixed overhead a coalesced batch follower
        shares; within the documented band for spmxv and programs
        (which contain one)."""
        failures = []
        for i, ((_, _, spec), entry) in enumerate(
                zip(self.stream, rnd.results)):
            if entry is None or entry["state"] != "done":
                continue
            request = serve.materialize(spec)
            if request.operation == "program":
                program = request.operands[0]
                value = program.execute(sim_mode="fast").value
                reference = program.reference()
                plan = program.plan()
            else:
                call = api.BlasCall(
                    request.operation, operands=request.operands,
                    k=request.k, m=request.m,
                    architecture=request.architecture, sim_mode="fast")
                value = call.execute().value
                reference = numpy_reference(request.operation,
                                            request.operands)
                plan = call.plan()
            predicted = plan.predicted_cycles
            charged = entry["charged_cycles"]
            if serve.result_digest(value) != entry["digest"]:
                failures.append(f"request {i}: digest differs on rebuild")
            if not matches(value, reference):
                failures.append(f"request {i}: result differs from NumPy")
            if spec["operation"] in ("dot", "gemv"):
                cycles_ok = charged == predicted
            elif spec["operation"] == "gemm":
                follower = max(1, predicted - api.gemm_fixed_overhead_cycles(
                    plan.k, plan.m))
                cycles_ok = charged in (predicted, follower)
            else:
                cycles_ok = (abs(charged - predicted)
                             <= SPMXV_DRIFT_BOUND * charged)
            if not cycles_ok:
                failures.append(f"request {i}: charged {charged} cycles, "
                                f"planned {predicted}")
        return failures


# ----------------------------------------------------------------------
# runtime workloads (shared gate)
# ----------------------------------------------------------------------
def gate_jobs(jobs: Sequence[Any]) -> List[str]:
    """Every job DONE, bit-identical to a direct ``repro.blas.api`` call
    on the same number of blades and matching NumPy; executed cycles
    equal to the plan (spmxv within its band); charged cycles equal to
    executed, less the shared fixed overhead for the followers of a
    gemm batch."""
    failures = []
    batch_sizes: Dict[int, int] = {}
    for job in jobs:
        batch_sizes[job.batch_id] = batch_sizes.get(job.batch_id, 0) + 1
    for job in jobs:
        request = job.request
        label = f"job {job.job_id} ({request.operation})"
        if job.state is not JobState.DONE:
            failures.append(f"{label}: {job.state.value} {job.error}")
            continue
        direct = api.BlasCall(
            request.operation, operands=request.operands, k=request.k,
            m=request.m, architecture=request.architecture,
            blades=job.gang_size or 1, sim_mode="fast").execute()
        if (serve.result_digest(direct.value)
                != serve.result_digest(job.result)):
            failures.append(f"{label}: differs from the direct call")
        reference = numpy_reference(request.operation, request.operands)
        if not matches(job.result, reference):
            failures.append(f"{label}: result differs from NumPy")
        executed = job.report.total_cycles
        predicted = job.plan.predicted_cycles
        if request.operation == "spmxv":
            planned_ok = (abs(executed - predicted)
                          <= SPMXV_DRIFT_BOUND * executed)
        else:
            planned_ok = executed == predicted
        if not planned_ok:
            failures.append(f"{label}: executed {executed} cycles, "
                            f"planned {predicted}")
        charged_ok = job.charged_cycles == executed
        if (not charged_ok and request.operation == "gemm"
                and batch_sizes[job.batch_id] > 1):
            overhead = api.gemm_fixed_overhead_cycles(job.plan.k,
                                                      job.plan.m)
            charged_ok = job.charged_cycles == max(1, executed - overhead)
        if not charged_ok:
            failures.append(f"{label}: charged {job.charged_cycles} "
                            f"cycles, executed {executed}")
    return failures


def _batch_round(seconds: float, results_at: float, jobs: Sequence[Any],
                 metrics: Any, misses: int) -> Round:
    done = [job for job in jobs if job.state is JobState.DONE]
    return Round(
        seconds=seconds, attempted=len(jobs), completed=len(done),
        # Results reach the caller together, when run() returns.
        latencies=[results_at] * len(done),
        digests=[serve.result_digest(job.result)
                 if job.state is JobState.DONE else "" for job in jobs],
        virtual_makespan_s=metrics.makespan_seconds,
        virtual_tail_latency_s=tail_mean(
            [job.latency_seconds for job in done]),
        schedule_misses=misses,
        failures=[f"job {job.job_id}: {job.state.value}"
                  for job in jobs if job.state is not JobState.DONE],
        results=jobs)


#: Requests per size of the runtime_cycle batch: 202 jobs over ``SIZES``
#: in the proportions of ``repro.workloads.DEFAULT_REQUEST_MIX``.
RUNTIME_COUNTS = {
    "full": {"dot": 12, "gemv": 9, "gemm": 7, "spmxv": 6},
    "tiny": {"dot": 1, "gemv": 1, "gemm": 1, "spmxv": 1},
}


class RuntimeCycle:
    """The ``repro trace`` path on one chassis (see module doc).

    The batch has a fixed number of requests per (operation, size),
    submitted in a fixed order, so every seed carries the same work and
    nearly the same schedule; the seed draws the operands and the
    priorities."""

    name = "runtime_cycle"

    def __init__(self, seed: int, scale: str, out_dir: str) -> None:
        self.seed = seed
        self.counts = RUNTIME_COUNTS[scale]
        self.stream: List[Tuple[float, BlasRequest]] = []
        self.trace_path = os.path.join(out_dir, f"{self.name}-trace.json")

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.stream = []
        for op, sizes in SIZES.items():
            for size in sizes:
                self.stream += blas_request_mix(
                    self.counts[op], rng, mix={op: 1.0},
                    sizes={op: (size,)})

    def round(self, log: Any = None) -> Round:
        clear_caches()
        misses = schedule_misses()
        if log is not None:
            log.start()
        start = time.perf_counter()
        recorder = obs.TraceRecorder()
        runtime = BlasRuntime(chassis=1, blades=6, sim_mode="cycle",
                              recorder=recorder)
        jobs = [runtime.submit(request, at=at)
                for at, request in self.stream]
        metrics = runtime.run()
        results_at = time.perf_counter() - start
        obs.write_chrome_trace(recorder, self.trace_path)
        drift = obs.drift_report(runtime.jobs)
        seconds = time.perf_counter() - start
        if log is not None:
            log.stop()
        rnd = _batch_round(seconds, results_at, jobs, metrics,
                           schedule_misses() - misses)
        if not drift.ok:
            rnd.failures.append(
                f"{len(drift.flagged)} job(s) outside their drift bound")
        return rnd

    def gate(self, rnd: Round) -> List[str]:
        return gate_jobs(rnd.results)


#: Gemm orders of the gang_scaleout burst (all distinct), m = 32.
GANG_SIZES = {
    "full": (512, 640, 768, 896, 1024, 1152, 1280, 1536, 1792, 2048),
    "tiny": (256, 384),
}


class GangScaleout:
    """A burst of distinct large gemms on the full XD1 (module doc).

    The gemms are submitted smallest first; the seed draws the operands
    and each request's priority (0-2, as ``blas_request_mix`` does),
    which decides the order the scheduler seats the gangs in."""

    name = "gang_scaleout"

    def __init__(self, seed: int, scale: str, out_dir: str) -> None:
        self.seed = seed
        self.sizes = GANG_SIZES[scale]
        self.requests: List[BlasRequest] = []

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.requests = [
            BlasRequest("gemm", (rng.standard_normal((n, n)),
                                 rng.standard_normal((n, n))),
                        m=32, priority=int(rng.integers(0, 3)))
            for n in self.sizes]

    def round(self, log: Any = None) -> Round:
        clear_caches()
        misses = schedule_misses()
        if log is not None:
            log.start()
        start = time.perf_counter()
        runtime = BlasRuntime(chassis=12, blades=6, max_gang=72,
                              sim_mode="fast")
        jobs = [runtime.submit(request) for request in self.requests]
        metrics = runtime.run()
        seconds = time.perf_counter() - start
        if log is not None:
            log.stop()
        return _batch_round(seconds, seconds, jobs, metrics,
                            schedule_misses() - misses)

    def gate(self, rnd: Round) -> List[str]:
        return gate_jobs(rnd.results)


WORKLOADS = {cls.name: cls for cls in (ServeTcp, RuntimeCycle,
                                       GangScaleout)}
