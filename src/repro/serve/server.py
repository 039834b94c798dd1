"""The BLAS service: deterministic core + asyncio TCP front-end.

:class:`BlasService` is a *synchronous, deterministic* state machine:
``hello``/``submit``/``drain``/``metrics`` messages in, response
objects out.  All policy lives here — admission quotas
(:mod:`repro.serve.tenant`), gemm coalescing
(:mod:`repro.serve.coalescer`), fair-share ordering, epoch execution
on a fresh :class:`~repro.runtime.executor.BlasRuntime` — so the whole
service can be driven and replayed in tests without a socket in
sight.  Same seed, same message stream → byte-identical responses.

:class:`BlasServer` is the thin asyncio wrapper: newline-delimited
JSON over TCP (:mod:`repro.serve.protocol`), one response line per
request line, connections multiplexed onto the single service.
Requests are applied in arrival order on the event loop, so a
single-connection replay is exactly as deterministic as driving the
service directly.

Epoch model
-----------
Submissions carry *virtual* arrival times and accumulate until a
``drain``.  Each drain is one epoch: admitted calls are coalesced and
submitted to a fresh runtime, which plans each call once; they are
ranked by weighted deficit round robin (cost = each call's planned
virtual seconds, known before execution), the rank is mapped onto the
executor's ``priority`` field, and the runtime runs with a clock that
is either a :class:`~repro.runtime.clock.VirtualClock` (instant,
byte-identical) or a :class:`~repro.runtime.clock.HybridClock`
(virtual seconds pace wall sleeps — live-service mode).  Operands are
synthesized from each call's ``seed``, so results and digests replay
bit-for-bit.

Telemetry
---------
The service's :class:`~repro.obs.metrics.MetricsRegistry` is its only
ledger that lives across epochs: each drain folds its runtime's
counts, per-tenant outcomes and per-request waits and latencies into
it.  ``metrics()`` reads every count and every p50/p99 from one
registry snapshot; only the admission-side counts (submitted,
admitted, throttled) come from the admission controller.  Percentiles
are therefore log-bucket histogram estimates, within ≈3.9 % of the
exact order statistic, while each drained result still carries its
exact ``wait_seconds`` and ``latency_seconds``.
"""

from __future__ import annotations

import asyncio
import hashlib
import logging
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.blas.api import DEFAULT_K
from repro.faults.plan import FaultPlan
from repro.obs.drift import base_operation, drift_report
from repro.obs.metrics import Histogram, MetricsRegistry, metric_id
from repro.obs.recorder import TraceRecorder
from repro.obs.sampling import FlightRecorder
from repro.obs.slo import SloMonitor, SloSpec
from repro.runtime.clock import make_clock
from repro.runtime.executor import BlasRuntime
from repro.runtime.job import BlasRequest, Job, JobState
from repro.serve import protocol
from repro.serve.coalescer import CoalesceStats, coalesce
from repro.serve.tenant import (AdmissionController, TenantQuota,
                                weighted_deficit_order)
from repro.sim.fast import check_sim_mode
from repro.workloads import poisson_2d

#: Stream buffer limit for the TCP layer: a drain response carries one
#: result object per admitted call on a single line, so the default
#: 64 KiB readline limit is far too small for 10k-request epochs.
STREAM_LIMIT = 1 << 24

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServeConfig:
    """Service-level knobs (the runtime's own knobs ride along)."""

    chassis: int = 1
    blades: int = 6
    policy: str = "fifo"
    queue_capacity: Optional[int] = None
    batching: bool = True
    max_gang: int = 1
    #: Hold window (virtual seconds) for same-shape gemm coalescing;
    #: 0 disables the coalescer.
    coalesce_window: float = 5e-5
    clock_mode: str = "virtual"
    time_scale: float = 1.0
    fault_plan: Optional[FaultPlan] = None
    #: Declarative objectives the service is evaluated against after
    #: every epoch (``repro serve --slo-spec``); None disables the
    #: monitor.
    slo: Optional[SloSpec] = None
    #: Service trace ring size (epoch spans + slo.breach instants);
    #: the serve trace is always bounded.
    trace_max_events: int = 4096
    #: Flight-recorder knobs (see :mod:`repro.obs.sampling`).
    flight_capacity: int = 256
    flight_head_probability: float = 0.01
    flight_tail_latency: Optional[float] = None
    flight_seed: int = 0
    #: Execution substrate for every epoch runtime (``--sim-mode``).
    #: Serve defaults to ``fast`` — throughput is this layer's whole
    #: point and the fast paths are proven byte-identical, so replay
    #: determinism ("same seed in, byte-identical results out") holds
    #: in every mode.
    sim_mode: str = "fast"

    def __post_init__(self) -> None:
        if self.coalesce_window < 0.0:
            raise ValueError("coalesce_window must be non-negative")
        if self.clock_mode not in ("virtual", "hybrid"):
            raise ValueError(
                "clock_mode must be 'virtual' or 'hybrid'")
        check_sim_mode(self.sim_mode)


@dataclass
class AdmittedCall:
    """One accepted submission waiting for the next epoch."""

    seq: int
    client_id: Optional[Any]
    tenant: str
    at: float
    spec: Dict[str, Any]


def _arrival_time(value: Any) -> Optional[float]:
    """A submit's ``at`` as a float, or ``None`` unless it is a
    non-negative finite number; an integer past the float range is not
    one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        at = float(value)
    except OverflowError:
        return None
    return at if math.isfinite(at) and at >= 0.0 else None


def materialize(spec: Mapping[str, Any]) -> BlasRequest:
    """Build the executable request a call spec describes.

    Operands are synthesized from ``spec["seed"]`` with a dedicated
    generator, so the same spec always produces the same numbers —
    the wire carries shapes and seeds, never matrices.  For ``spmxv``
    and ``cg`` the spec's ``n`` is the Poisson grid width; ``cg``
    builds one conjugate-gradient descent step as a streaming
    :class:`repro.blas.program.BlasProgram` and submits it as a
    ``"program"`` request.
    """
    operation = spec["operation"]
    n = spec["n"]
    k = spec.get("k", DEFAULT_K.get(operation, DEFAULT_K["spmxv"]))
    rng = np.random.default_rng(spec.get("seed", 0))
    if operation == "cg":
        from repro.solvers.cg import cg_iteration_program

        matrix = poisson_2d(n)
        program = cg_iteration_program(
            matrix, k_spmxv=k, k_dot=DEFAULT_K["dot"])
        program.feed(p=rng.standard_normal(matrix.ncols))
        return BlasRequest(
            "program", (program, None), k=k,
            priority=spec.get("priority", 0))
    if operation == "dot":
        operands: Tuple[Any, Any] = (rng.standard_normal(n),
                                     rng.standard_normal(n))
    elif operation == "gemv":
        operands = (rng.standard_normal((n, n)), rng.standard_normal(n))
    elif operation == "gemm":
        operands = (rng.standard_normal((n, n)),
                    rng.standard_normal((n, n)))
    else:  # spmxv
        matrix = poisson_2d(n)
        operands = (matrix, rng.standard_normal(matrix.ncols))
    return BlasRequest(
        operation, operands, k=k, m=spec.get("m"),
        architecture=spec.get("architecture", "tree"),
        priority=spec.get("priority", 0),
        max_blades=spec.get("blades"))


def _build(spec: Mapping[str, Any]) -> Tuple[BlasRequest, Optional[str]]:
    """The request ``spec`` describes and None, or, when NumPy refuses
    to build its operands (a size past its limit), a request without
    operands and the error text: that call then fails on its own, like
    an unplannable one, and the rest of its epoch still runs."""
    try:
        return materialize(spec), None
    except (ValueError, MemoryError) as exc:
        operation = spec["operation"]
        unbuilt = BlasRequest("program" if operation == "cg" else operation,
                              (None, None), priority=spec.get("priority", 0))
        return unbuilt, f"operands could not be built: {exc}"


def result_digest(value: Any) -> str:
    """Short stable digest of a result's float64 bytes — lets clients
    compare replays without shipping whole matrices back."""
    data = np.ascontiguousarray(
        np.atleast_1d(np.asarray(value, dtype=np.float64)))
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


class BlasService:
    """Deterministic multi-tenant service over one simulated chassis."""

    def __init__(self, config: Optional[ServeConfig] = None,
                 quotas: Optional[Mapping[str, TenantQuota]] = None,
                 default_quota: Optional[TenantQuota] = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.admission = AdmissionController(
            quotas, default_quota=default_quota)
        self._pending: List[AdmittedCall] = []
        self._seq = 0
        self._epochs = 0
        self._makespan_total = 0.0
        #: High-water virtual time across submissions and epochs —
        #: the service-absolute clock SLO windows evaluate against.
        self._now = 0.0
        # -- live telemetry (repro.obs.live) -----------------------------
        config = self.config
        self.registry = MetricsRegistry()
        self.recorder = TraceRecorder(
            max_events=config.trace_max_events)
        self.flight = FlightRecorder(
            capacity=config.flight_capacity,
            head_probability=config.flight_head_probability,
            tail_latency_seconds=config.flight_tail_latency,
            seed=config.flight_seed)
        self.slo: Optional[SloMonitor] = (
            SloMonitor(config.slo, recorder=self.recorder,
                       flight=self.flight)
            if config.slo is not None else None)
        registry = self.registry
        self._c_submitted = registry.counter("serve.submitted")
        self._c_admitted = registry.counter("serve.admitted")
        self._c_epochs = registry.counter("serve.epochs")
        self._g_pending = registry.gauge("serve.pending")
        self._h_wait = registry.histogram("serve.wait_seconds")
        self._h_latency = registry.histogram("serve.latency_seconds")
        self._c_coalesce_groups = registry.counter("serve.coalesce.groups")
        self._c_coalesce_requests = registry.counter("serve.coalesce.requests")
        self._g_coalesce_max_group = registry.gauge("serve.coalesce.max_group")
        self._c_jobs_completed = registry.counter("runtime.jobs.completed")
        self._c_jobs_failed = registry.counter("runtime.jobs.failed")
        self._c_jobs_rejected = registry.counter("runtime.jobs.rejected")
        self._c_batches = registry.counter("runtime.batches")
        self._c_reconfigs = registry.counter("runtime.reconfigurations")
        self._c_retries = registry.counter("runtime.retries")
        self._c_faults = registry.counter("runtime.faults")
        self._c_gangs = registry.counter("runtime.gangs")
        self._c_flops = registry.counter("runtime.flops")

    # -- message dispatch ------------------------------------------------
    def handle(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        """Apply one protocol message; returns its response object."""
        op = message.get("op")
        if op == "hello":
            tenant = message.get("tenant")
            try:
                self.admission.register(tenant)
            except ValueError as exc:
                return protocol.error(str(exc))
            return protocol.hello_ok(tenant)
        if op == "submit":
            return self.submit(message)
        if op == "drain":
            return self.drain()
        if op == "metrics":
            return protocol.metrics_reply(self.metrics())
        if op == "slo":
            return protocol.slo_reply(
                self.slo.verdict() if self.slo is not None else None)
        if op == "shutdown":
            return protocol.shutdown_ok()
        return protocol.error(f"unknown op {op!r}")

    # -- admission -------------------------------------------------------
    def _reject(self, ts: float, tenant: Optional[str],
                reason: str) -> None:
        """Instrument one admission reject (typed counter + SLO)."""
        self.registry.counter("serve.rejected",
                              labels={"reason": reason}).inc()
        if self.slo is not None:
            self.slo.observe_submit(ts, tenant, rejected=True)

    @staticmethod
    def _verify_program(spec: Mapping[str, Any],
                        ) -> Optional[Dict[str, str]]:
        """Statically verify a program submission (PRG001-007) before
        admission; returns the first error as ``{"rule", "message"}``,
        or ``None`` for a clean program / non-program call.  Runs on
        the spec alone — no matrix is built."""
        if spec.get("operation") != "cg":
            return None
        from repro.analyze.program import check_program_spec
        from repro.solvers.cg import cg_iteration_spec

        n = spec["n"]
        program_spec = cg_iteration_spec(
            n * n, k_spmxv=spec.get("k", DEFAULT_K["spmxv"]),
            k_dot=DEFAULT_K["dot"])
        report = check_program_spec(program_spec)
        if report.ok:
            return None
        first = report.errors[0]
        return {"rule": first.rule, "message": first.message}

    def submit(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        client_id = message.get("id")
        tenant = message.get("tenant")
        if not tenant or not isinstance(tenant, str):
            self._c_submitted.inc()
            self._reject(self._now, None, protocol.REJECT_INVALID)
            return protocol.rejected(
                client_id, protocol.REJECT_INVALID,
                "submit needs a tenant (or a prior hello)")
        at = _arrival_time(message.get("at", 0.0))
        if at is None:
            self._c_submitted.inc()
            self._reject(self._now, tenant, protocol.REJECT_INVALID)
            return protocol.rejected(
                client_id, protocol.REJECT_INVALID,
                "at must be a non-negative finite number")
        self._now = max(self._now, at)
        self._c_submitted.inc()
        try:
            spec = protocol.validate_call(message.get("call"))
        except protocol.ProtocolError as exc:
            state = self.admission.register(tenant)
            state.submitted += 1
            state.invalid_rejects += 1
            self._reject(at, tenant, protocol.REJECT_INVALID)
            return protocol.rejected(client_id,
                                     protocol.REJECT_INVALID, str(exc))
        diagnostic = self._verify_program(spec)
        if diagnostic is not None:
            state = self.admission.register(tenant)
            state.submitted += 1
            state.invalid_rejects += 1
            self._reject(at, tenant, protocol.REJECT_PROGRAM)
            return protocol.rejected(
                client_id, protocol.REJECT_PROGRAM,
                f"program failed static verification: "
                f"{diagnostic['rule']}: {diagnostic['message']}",
                diagnostic=diagnostic)
        _state, reason = self.admission.admit(tenant, at)
        if reason is not None:
            detail = ("admission token bucket empty"
                      if reason == protocol.REJECT_QUOTA
                      else "per-tenant pending cap reached")
            self._reject(at, tenant, reason)
            return protocol.rejected(client_id, reason, detail)
        call = AdmittedCall(seq=self._seq, client_id=client_id,
                            tenant=tenant, at=at, spec=spec)
        self._seq += 1
        self._pending.append(call)
        self._c_admitted.inc()
        self._g_pending.set(len(self._pending))
        if self.slo is not None:
            self.slo.observe_submit(at, tenant, rejected=False)
        return protocol.accepted(client_id, call.seq)

    # -- epoch execution -------------------------------------------------
    def drain(self) -> Dict[str, Any]:
        """Run everything admitted since the last drain as one epoch."""
        self._epochs += 1
        calls = self._pending
        self._pending = []
        self.admission.release_all()
        self._c_epochs.inc()
        self._g_pending.set(0)
        if not calls:
            if self.slo is not None:
                self.slo.evaluate(self._now)
            return protocol.drained(self._epochs, 0.0, [])
        # Arrival order, client priority breaking same-instant ties
        # within a tenant; the fair-share rank below owns cross-tenant
        # order.
        calls.sort(key=lambda c: (c.at, -c.spec.get("priority", 0),
                                  c.seq))
        release, stats = coalesce(
            [(c.at, c.spec) for c in calls],
            self.config.coalesce_window)
        built = [_build(c.spec) for c in calls]
        runtime = BlasRuntime(
            chassis=self.config.chassis,
            blades=self.config.blades,
            policy=self.config.policy,
            queue_capacity=self.config.queue_capacity,
            batching=self.config.batching,
            max_gang=self.config.max_gang,
            fault_plan=self.config.fault_plan,
            sim_mode=self.config.sim_mode,
            clock=make_clock(self.config.clock_mode,
                             self.config.time_scale))
        epoch_start = min(release)
        jobs = [runtime.submit(request, at=at - epoch_start)
                if error is None
                else runtime.submit_failed(request, error, at - epoch_start)
                for (request, error), at in zip(built, release)]
        # Submission plans each job once; a job whose planning failed
        # costs nothing.  The scheduler reads priorities only inside
        # run(), so ranking after submission changes no order.
        costs = [(call.tenant, 0.0 if job.plan is None
                  else job.plan.predicted_seconds)
                 for call, job in zip(calls, jobs)]
        order = weighted_deficit_order(costs, self.admission.weights)
        # rank 0 serves first; the executor orders by priority
        # descending, so rank maps to priority = -rank.
        for rank, index in enumerate(order):
            jobs[index].request.priority = -rank
        metrics = runtime.run()
        self._makespan_total += metrics.makespan_seconds
        self._observe_epoch(calls, jobs, runtime, metrics, stats,
                            epoch_start)
        results = [self._result_entry(call, job)
                   for call, job in zip(calls, jobs)]
        return protocol.drained(self._epochs, metrics.makespan_seconds,
                                results)

    def _observe_epoch(self, calls: List[AdmittedCall],
                       jobs: List[Job], runtime: BlasRuntime,
                       metrics: Any, stats: CoalesceStats,
                       epoch_start: float) -> None:
        """Feed one epoch into the live telemetry plane.

        Each job's service-absolute timestamp is the epoch's virtual
        start plus the job's virtual finish time, so SLO windows see
        one monotone service clock across epochs.  Each tenant's
        instruments are looked up once per epoch."""
        epoch_end = epoch_start + metrics.makespan_seconds
        self._now = max(self._now, epoch_end)
        self.recorder.span(
            "epoch", cat="serve", track="serve",
            start=epoch_start, end=epoch_end,
            args={"epoch": self._epochs, "requests": len(calls),
                  "completed": metrics.jobs_completed,
                  "failed": metrics.jobs_failed,
                  "rejected": metrics.jobs_rejected})
        self._c_jobs_completed.inc(metrics.jobs_completed)
        self._c_jobs_failed.inc(metrics.jobs_failed)
        self._c_jobs_rejected.inc(metrics.jobs_rejected)
        self._c_batches.inc(metrics.batches)
        self._c_reconfigs.inc(
            sum(d.reconfigurations for d in metrics.devices))
        self._c_retries.inc(metrics.retries_total)
        self._c_faults.inc(metrics.faults_injected)
        self._c_gangs.inc(metrics.gangs_formed)
        self._c_flops.inc(metrics.total_flops)
        self._c_coalesce_groups.inc(stats.groups)
        self._c_coalesce_requests.inc(stats.coalesced_requests)
        if stats.max_group > self._g_coalesce_max_group.value:
            self._g_coalesce_max_group.set(stats.max_group)
        slo = self.slo
        tenant_hists: Dict[str, Tuple[Histogram, Histogram]] = {}
        outcomes: Dict[Tuple[str, str], int] = {}
        for call, job in zip(calls, jobs):
            finished = (job.finished_at if job.finished_at is not None
                        else metrics.makespan_seconds)
            ts = epoch_start + finished
            done = job.state is JobState.DONE
            rejected = job.state is JobState.REJECTED
            failed = job.state is JobState.FAILED
            latency = job.latency_seconds if done else None
            outcome = (call.tenant, job.state.value)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
            if done:
                self._h_wait.observe(job.waiting_seconds)
                self._h_latency.observe(job.latency_seconds)
                hists = tenant_hists.get(call.tenant)
                if hists is None:
                    labels = {"tenant": call.tenant}
                    hists = tenant_hists[call.tenant] = (
                        self.registry.histogram(
                            "serve.wait_seconds.tenant", labels=labels),
                        self.registry.histogram(
                            "serve.latency_seconds.tenant",
                            labels=labels))
                hists[0].observe(job.waiting_seconds)
                hists[1].observe(job.latency_seconds)
            if slo is not None:
                slo.observe_result(ts, call.tenant,
                                   latency_seconds=latency,
                                   failed=failed, rejected=rejected)
            self.flight.record(
                ts, tenant=call.tenant, latency_seconds=latency,
                ok=done, seq=call.seq, job=job.job_id,
                state=job.state.value,
                operation=call.spec["operation"], n=call.spec["n"])
        for (tenant, state), count in outcomes.items():
            self.registry.counter(
                "serve.results.tenant",
                labels={"state": state, "tenant": tenant}).inc(count)
        if slo is not None:
            if any(o.kind == "drift" for o in slo.spec.objectives):
                for entry in drift_report(runtime.jobs).entries:
                    slo.observe_drift(
                        epoch_end, base_operation(entry.operation),
                        entry.rel_error)
            slo.evaluate(epoch_end)

    @staticmethod
    def _result_entry(call: AdmittedCall, job: Job) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "id": call.client_id,
            "seq": call.seq,
            "tenant": call.tenant,
            "job": job.job_id,
            "state": job.state.value,
        }
        if job.state is JobState.DONE:
            entry["latency_seconds"] = job.latency_seconds
            entry["wait_seconds"] = job.waiting_seconds
            entry["charged_cycles"] = job.charged_cycles
            entry["digest"] = result_digest(job.result)
        else:
            entry["error"] = job.error
            if job.reject_reason is not None:
                entry["reason"] = job.reject_reason.value
        return entry

    # -- reporting -------------------------------------------------------
    def metrics(self) -> Dict[str, Any]:
        """Cumulative service metrics across every epoch so far.

        Counts and p50/p99 come from one registry snapshot, looked up
        by identity so reading creates no instrument; the
        submitted/admitted/throttled counts come from admission."""
        snapshot = self.registry.snapshot()
        entries = snapshot["metrics"]

        def count(name: str, **labels: str) -> int:
            entry = entries.get(metric_id(name, labels))
            return 0 if entry is None else int(entry["value"])

        def quantiles(name: str, **labels: str) -> Dict[str, float]:
            entry = entries.get(metric_id(name, labels))
            if entry is None:
                return {"p50": 0.0, "p99": 0.0}
            return {"p50": entry["p50"], "p99": entry["p99"]}

        tenants: Dict[str, Dict[str, Any]] = {}
        starved: List[str] = []
        for name in sorted(self.admission.tenants):
            state = self.admission.tenants[name]
            completed = count("serve.results.tenant", state="done",
                              tenant=name)
            tenants[name] = {
                "name": name,
                "jobs": {
                    "submitted": state.submitted,
                    "admitted": state.admitted,
                    "completed": completed,
                    "failed": count("serve.results.tenant",
                                    state="failed", tenant=name),
                    "rejected": (count("serve.results.tenant",
                                       state="rejected", tenant=name)
                                 + state.pending_rejects
                                 + state.invalid_rejects),
                    "quota_throttles": state.quota_throttles,
                },
                "wait_seconds": quantiles("serve.wait_seconds.tenant",
                                          tenant=name),
                "latency_seconds": quantiles(
                    "serve.latency_seconds.tenant", tenant=name),
                "weight": state.quota.weight,
            }
            if state.admitted and not completed:
                starved.append(name)
        admission = self.admission.tenants.values()
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "epochs": self._epochs,
            "clock": {"mode": self.config.clock_mode,
                      "time_scale": self.config.time_scale},
            "makespan_seconds": self._makespan_total,
            "jobs": {
                "submitted": sum(t.submitted for t in admission),
                "admitted": sum(t.admitted for t in admission),
                "completed": count("runtime.jobs.completed"),
                "failed": count("runtime.jobs.failed"),
                "rejected": count("runtime.jobs.rejected"),
                "quota_throttles": sum(t.quota_throttles
                                       for t in admission),
                "pending": len(self._pending),
            },
            "wait_seconds": quantiles("serve.wait_seconds"),
            "latency_seconds": quantiles("serve.latency_seconds"),
            "coalescing": {
                "groups": count("serve.coalesce.groups"),
                "coalesced_requests": count("serve.coalesce.requests"),
                "max_group": count("serve.coalesce.max_group"),
            },
            "tenants": tenants,
            "starved_tenants": starved,
            "registry": snapshot,
            "slo": (self.slo.verdict() if self.slo is not None
                    else None),
            "flight": self.flight.stats(),
            "trace": {"events": len(self.recorder),
                      "dropped_events": self.recorder.dropped_events},
        }

    def observability_snapshot(self) -> Dict[str, Any]:
        """Everything ``--metrics-out`` persists: the registry
        snapshot, the SLO verdict, the flight-recorder dump and the
        service metrics — canonical-JSON-stable, byte-identical
        across same-seed runs."""
        service = self.metrics()
        return {
            "registry": service["registry"],
            "slo": service["slo"],
            "flight": self.flight.dump(),
            "service": service,
        }


class BlasServer:
    """Asyncio TCP front-end around one :class:`BlasService`."""

    def __init__(self, service: BlasService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        #: Each open connection's handler task and its writer.
        self._clients: Dict[asyncio.Task[None], asyncio.StreamWriter] = {}

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port,
            limit=STREAM_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Run until a client sends ``shutdown`` (or cancellation).

        On shutdown the server stops listening, closes every other
        connection and waits for its handler: idle peers read EOF, and
        no handler is left for the event loop to cancel."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._shutdown.wait()
            self._server.close()
            while self._clients:
                for writer in self._clients.values():
                    writer.close()
                await asyncio.wait(list(self._clients))

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._clients[task] = writer
            task.add_done_callback(self._clients.pop)
        default_tenant: Optional[str] = None
        try:
            while not reader.at_eof():
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over the limit: the rest of the line may still be
                    # in flight, so the stream is no longer at a line
                    # boundary and the connection cannot continue.
                    writer.write(protocol.encode(protocol.error(
                        f"line longer than the {STREAM_LIMIT}-byte "
                        "limit; closing the connection")))
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = protocol.decode(line)
                except protocol.ProtocolError as exc:
                    writer.write(protocol.encode(
                        protocol.error(str(exc))))
                    await writer.drain()
                    continue
                if (message.get("op") == "submit"
                        and "tenant" not in message
                        and default_tenant is not None):
                    message = dict(message)
                    message["tenant"] = default_tenant
                try:
                    response = self.service.handle(message)
                except Exception as exc:
                    # A fault in one message must not cost the client
                    # its connection: log it, answer it, keep serving.
                    _log.exception("serve: %r failed", message.get("op"))
                    response = protocol.error(
                        f"{message.get('op')!r} failed: "
                        f"{type(exc).__name__}: {exc}")
                if (message.get("op") == "hello"
                        and response.get("ok")):
                    default_tenant = response["tenant"]
                writer.write(protocol.encode(response))
                await writer.drain()
                if message.get("op") == "shutdown":
                    self._shutdown.set()
                    break
        except ConnectionError:
            # The peer went away (a reset, a broken pipe): end this
            # connection quietly; the service serves the others.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def run_server(service: BlasService, host: str = "127.0.0.1",
               port: int = 0,
               ready: Optional[Any] = None) -> None:
    """Blocking entry point: serve until a client sends ``shutdown``.

    ``ready``, when given, is called with the bound port once the
    socket is listening (the CLI prints it; tests grab it).
    """

    async def _main() -> None:
        server = BlasServer(service, host=host, port=port)
        await server.start()
        if ready is not None:
            ready(server.port)
        await server.serve_until_shutdown()

    asyncio.run(_main())
