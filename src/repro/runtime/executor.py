"""Virtual-time executor: multiplexes BLAS jobs over simulated blades.

:class:`BlasRuntime` owns a pool of :class:`DeviceSlot` (one per XD1
blade), a bounded pending queue and a scheduling policy.  ``run()`` is
a discrete-event loop over *virtual* time: placing a job advances that
blade's clock by the job's simulated cycle count at the design's
achievable clock rate — so a six-blade chassis genuinely overlaps six
jobs even though the underlying simulators execute sequentially on the
host.

Placement pass
--------------
Every placement runs as one pass of members × blades.  A *batch* is
one blade with followers: the placed job plus the same-shape gemm jobs
waiting behind it.  A *gang* is one job on the ``l`` blades of the
Section 5.2 linear array, of which a single blade is the ``l = 1``
case.  Both follow the same sequence:

1. **configure** — every blade loads the pass's bitstream unless it is
   resident; the pass starts when the slowest blade is ready;
2. **run** — the members run back to back, and stalls, crashes and
   bit flips may strike any blade of the pass;
3. **charge or abort** — a finished member is charged on every blade;
   a crash on any blade aborts the pass: the victim goes down, the
   other blades free, and every unfinished member retries (a gang at
   half its width, degrading toward ``l = 1``).

Cost model
----------
* **Reconfiguration.** A blade holds the set of designs configured on
  it while their combined area fits the usable slice budget
  (:data:`repro.device.area.USABLE_SLICE_FRACTION` of the device).
  Running a job whose bitstream is not resident charges a full
  configuration load — :data:`RECONFIG_BITSTREAM_BYTES` over the
  blade's measured FPGA↔DRAM path — and evicts least-recently-used
  designs if the new one does not fit beside the residents.
* **Batching.** Every follower is charged the compute cycles of its
  standalone run minus the pass-fixed overhead (array startup, drain
  and final C-block output), which the pass pays once.  Results stay
  bit-for-bit identical to standalone calls because each job's
  numerics are still produced by its own ``repro.blas.api`` call.
* **Backpressure.** Arrivals beyond ``queue_capacity`` pending jobs are
  rejected with :attr:`repro.runtime.job.RejectReason.QUEUE_FULL`.
* **Gangs.** With ``max_gang > 1`` a large gemm plans onto the linear
  array: ``l`` co-located blades are acquired atomically (see
  :mod:`repro.runtime.scheduler`), each is busy for the
  n³/(k·l)-model duration, and useful flops split evenly across them
  (remainder to the lead, which alone counts the completion).
* **Multi-chassis gangs.** A width no single chassis can reach seats
  across chassis (Section 6.4's full 12-chassis/72-blade XD1): the
  plan and the executed report both include the RapidArray
  boundary-crossing cycles
  (:func:`repro.device.interconnect.inter_chassis_transfer_cycles`),
  itemized per job in the trace spans and summed in the metrics'
  gang block — plan-vs-actual drift stays exact.
* **Programs.** A ``"program"`` request carries a whole
  :class:`repro.blas.program.BlasProgram` (streamed kernel DAG); the
  runtime plans, places and charges it as one unit, with streamed
  edges riding the intra-chassis fabric instead of DRAM.
* **Work stealing.** Requests with a ``home_chassis`` affinity place
  there while blades are free; a chassis whose queue drained steals
  them otherwise (placement reason ``"work-steal"``, counted in the
  metrics).

Faults and resilience
---------------------
Pass ``fault_plan=repro.faults.FaultPlan(...)`` to subject the run to
a deterministic schedule of blade crashes, transient bitstream-load
failures, memory/interconnect stalls and output-word bit flips (see
:mod:`repro.faults`).  The runtime answers with:

* **Retry with backoff.**  A job aborted by a crash (or failing result
  verification) re-enters the queue after an exponential backoff in
  virtual time — ``retry_backoff_seconds · 2^(attempt-1)`` with
  deterministic jitter from the plan seed — up to ``max_retries``
  attempts, then fails permanently.
* **Quarantine.**  A blade accumulating ``quarantine_after`` faults is
  drained and removed from service; its waiting work re-places through
  the normal policies.
* **Verification.**  With ``verify_results`` (default: on exactly when
  the plan contains bit-flip events; can be forced on even without a
  plan), every completing job's result is checked against the NumPy
  reference; a residual above ``verify_tolerance`` — or a non-finite
  one, as produced by a NaN/Inf-corrupted result — triggers a retry
  instead of returning the corrupted answer.
* **Degradation.**  A job whose design no longer fits any in-service
  blade is re-planned at successively halved ``k`` (smaller, slower
  design); if nothing fits, it is REJECTED with the typed reason
  :class:`repro.runtime.job.RejectReason.CAPACITY_LOST`.

With no plan (or an empty one) every fault path is dormant and the
executor behaves exactly as before.

Tracing
-------
Pass ``recorder=repro.obs.TraceRecorder()`` to record the run as
structured events in virtual time: job lifecycle spans, placement /
affinity-wait / reconfiguration / eviction / batch-formation instants,
fault-plane instants (``fault.injected``, ``job.retry``,
``blade.quarantined``, ``job.degraded``), and queue-depth plus
per-blade busy counter time-series.  Export with
:mod:`repro.obs.export` (Chrome trace JSON, JSON lines) and audit the
``BlasCall.plan`` predictors with :mod:`repro.obs.drift`.  Every site
calls the recorder unguarded; the default
:data:`repro.obs.NULL_RECORDER` drops each event, so an untraced run
still builds the events' arguments (a few microseconds per job).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.blas import api
from repro.device.area import USABLE_SLICE_FRACTION
from repro.device.node import ComputeNode, NodeHealth
from repro.device.system import (
    Chassis,
    ReconfigurableSystem,
    make_xd1_system,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.obs.recorder import NULL_RECORDER, NullRecorder, TraceRecorder
from repro.runtime.clock import VirtualClock
from repro.runtime.job import BlasRequest, Job, JobState, RejectReason
from repro.runtime.metrics import DeviceMetrics, RuntimeMetrics
from repro.runtime.scheduler import (
    Placement,
    SchedulingPolicy,
    make_policy,
)
from repro.sim import fast as fastsim
from repro.sim.engine import SimulationError

#: Full configuration bitstream of the XC2VP50 (~19 Mbit).  Loading it
#: through the RapidArray fabric is what a kernel switch costs.
RECONFIG_BITSTREAM_BYTES = 2_377_741


class DeviceSlot:
    """Runtime state of one blade: its virtual clock, the designs
    currently configured on its FPGA, and its health.  ``chassis`` is
    the index of the chassis the blade sits in — gangs only form
    across blades of one chassis (the linear array streams over
    intra-chassis RapidArray links)."""

    def __init__(self, node: ComputeNode, index: int,
                 chassis: int = 0) -> None:
        self.node = node
        self.index = index
        self.chassis = chassis
        self.name = node.name
        self.usable_slices = int(node.fpga.slices * USABLE_SLICE_FRACTION)
        self.free_at = 0.0
        self.resident: Dict[str, int] = {}
        self._last_used: Dict[str, int] = {}
        self._use_clock = 0
        self.metrics = DeviceMetrics(name=node.name)
        #: Crash/quarantine state (the fault plane's device hook).
        self.health = NodeHealth(node.name)

    @property
    def spare_slices(self) -> int:
        return self.usable_slices - sum(self.resident.values())

    def has_resident(self, key: str) -> bool:
        return key in self.resident

    def can_ever_hold(self, slices: int) -> bool:
        return slices <= self.usable_slices

    def configure(self, key: str, slices: int) -> Optional[List[str]]:
        """Make ``key`` resident, evicting LRU designs as required.

        Returns the evicted designs when a (re)configuration load was
        needed, ``None`` when ``key`` was already resident."""
        self._use_clock += 1
        if key in self.resident:
            self._last_used[key] = self._use_clock
            return None
        if not self.can_ever_hold(slices):
            raise ValueError(
                f"{key} ({slices} slices) exceeds the usable area of "
                f"{self.name} ({self.usable_slices} slices)")
        evicted = []
        while self.spare_slices < slices:
            lru = min(self.resident, key=lambda k: self._last_used[k])
            del self.resident[lru]
            del self._last_used[lru]
            evicted.append(lru)
        self.resident[key] = slices
        self._last_used[key] = self._use_clock
        return evicted


class BlasRuntime:
    """Concurrent BLAS job scheduler over a simulated XD1 system."""

    def __init__(self,
                 system: Union[ReconfigurableSystem, Chassis, None] = None,
                 *,
                 chassis: int = 1,
                 blades: int = 6,
                 policy: Union[str, SchedulingPolicy] = "area",
                 queue_capacity: Optional[int] = None,
                 batching: bool = True,
                 batch_limit: int = 8,
                 reconfig_seconds: Optional[float] = None,
                 on_xd1: bool = True,
                 recorder: Union[TraceRecorder, NullRecorder,
                                 None] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 max_retries: int = 3,
                 retry_backoff_seconds: float = 1e-3,
                 quarantine_after: Optional[int] = 3,
                 verify_results: Optional[bool] = None,
                 verify_tolerance: float = 1e-6,
                 degrade: bool = True,
                 max_gang: int = 1,
                 clock: Optional[VirtualClock] = None,
                 sim_mode: str = "cycle") -> None:
        if system is None:
            system = make_xd1_system(chassis, blades=blades)
        self.system = system
        if max_gang < 1:
            raise ValueError("max_gang must be >= 1")
        self.max_gang = max_gang
        self.policy = (make_policy(policy) if isinstance(policy, str)
                       else policy)
        if queue_capacity is not None and queue_capacity < 1:
            raise ValueError("queue_capacity must be positive (or None)")
        self.queue_capacity = queue_capacity
        self.batching = batching
        if batch_limit < 1:
            raise ValueError("batch_limit must be >= 1")
        self.batch_limit = batch_limit
        self.on_xd1 = on_xd1
        #: Trace sink, called unguarded at every instrumentation site;
        #: the default NULL_RECORDER drops each event.
        self.recorder = NULL_RECORDER if recorder is None else recorder
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.max_retries = max_retries
        if retry_backoff_seconds <= 0.0:
            raise ValueError("retry_backoff_seconds must be positive")
        self.retry_backoff_seconds = retry_backoff_seconds
        if quarantine_after is not None and quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1 (or None)")
        self.quarantine_after = quarantine_after
        if verify_tolerance <= 0.0:
            raise ValueError("verify_tolerance must be positive")
        self.verify_tolerance = verify_tolerance
        self.degrade = degrade
        #: Execution substrate for every BLAS call this runtime makes
        #: (see :mod:`repro.sim.fast`): "cycle" steps the designs,
        #: "fast" uses the proven-equivalent fast paths.  Charged
        #: cycles, results and metrics are identical either way — the
        #: differential harness enforces it — so only wall time changes.
        fastsim.check_sim_mode(sim_mode)
        self.sim_mode = sim_mode
        self.fault_plan = fault_plan
        #: The fault hook; None on a fault-free run so every fault path
        #: stays dormant and behavior matches the pre-fault executor.
        self._injector = (FaultInjector(fault_plan)
                          if fault_plan is not None
                          and not fault_plan.is_empty else None)
        if verify_results is None:
            verify_results = (fault_plan is not None
                              and fault_plan.has_corruption)
        self.verify_results = verify_results
        chassis_groups = (system.chassis
                          if isinstance(system, ReconfigurableSystem)
                          else [system])
        self.devices = []
        for chassis_index, group in enumerate(chassis_groups):
            for node in group.nodes:
                self.devices.append(
                    DeviceSlot(node, len(self.devices),
                               chassis=chassis_index))
        if not self.devices:
            raise ValueError("the system has no blades")
        if reconfig_seconds is None:
            reconfig_seconds = (RECONFIG_BITSTREAM_BYTES
                                / self.devices[0].node.dram_path_bandwidth)
        self.reconfig_seconds = reconfig_seconds

        #: How virtual time advances (:mod:`repro.runtime.clock`).
        #: The default :class:`VirtualClock` reproduces the historical
        #: behavior bit for bit; a ``HybridClock`` paces the same
        #: schedule against wall time without changing any timestamp.
        self.clock = clock if clock is not None else VirtualClock()
        self._jobs: List[Job] = []
        self._arrivals: List[Job] = []
        self._pending: List[Job] = []
        self._retrying: List[Job] = []
        self._depth_area = 0.0
        self._max_depth = 0
        self._last_depth = 0
        self._next_batch_id = 0
        self._verify_failures = 0
        self._gangs_formed = 0
        self._gangs_degraded = 0
        self._gangs_multichassis = 0
        self._work_steals = 0
        chassis_sizes: Dict[int, int] = {}
        for device in self.devices:
            chassis_sizes[device.chassis] = \
                chassis_sizes.get(device.chassis, 0) + 1
        #: Blades of the largest chassis: a gang wider than this spans
        #: chassis and is charged the RapidArray boundary crossings.
        self._fpgas_per_chassis = max(chassis_sizes.values())
        self._total_blades = len(self.devices)
        self._ran = False

    # -- submission ------------------------------------------------------
    def submit(self, request: BlasRequest, at: float = 0.0) -> Job:
        """Queue a request for execution at virtual time ``at``.

        Returns the tracking :class:`Job`.  Planning happens here: a
        request whose design cannot be built (or cannot fit any blade in
        the pool) comes back already FAILED.
        """
        job = self._new_job(request, at)
        try:
            job.plan = self._plan(request)
        except (ValueError, MemoryError, SimulationError) as exc:
            job.fail(at, f"planning failed: {exc}")
            return job
        if not any(d.can_ever_hold(job.plan.area.slices)
                   for d in self.devices):
            job.fail(at, f"design needs {job.plan.area.slices} slices; "
                         "no blade in the pool is large enough")
            return job
        self._arrivals.append(job)
        return job

    def submit_failed(self, request: BlasRequest, error: str,
                      at: float = 0.0) -> Job:
        """Record a request whose caller could not build its operands
        as a job that FAILED on arrival with ``error``, counted like a
        planning failure."""
        job = self._new_job(request, at)
        job.fail(at, error)
        return job

    def _new_job(self, request: BlasRequest, at: float) -> Job:
        if self._ran:
            raise RuntimeError("runtime already ran; build a new one")
        if at < 0.0:
            raise ValueError("arrival time must be non-negative")
        job = Job(job_id=len(self._jobs), request=request, submitted_at=at)
        self._jobs.append(job)
        return job

    def _call(self, request: BlasRequest,
              blades: int = 1) -> api.BlasCall:
        """The unified descriptor both planning and execution run
        through — one geometry/validation path for the whole runtime.
        A gang call always knows the chassis width, so a width that
        spans chassis prices its RapidArray boundary crossings into
        both the plan and the executed report."""
        return api.BlasCall(request.operation, operands=request.operands,
                            k=request.k, m=request.m, blades=blades,
                            architecture=request.architecture,
                            on_xd1=self.on_xd1, sim_mode=self.sim_mode,
                            fpgas_per_chassis=(self._fpgas_per_chassis
                                               if blades > 1 else None))

    def _gang_width_for(self, request: BlasRequest,
                        cap: Optional[int] = None) -> int:
        """Gang width to *plan* for: the runtime/request cap, bounded
        by the shape's feasible width (one blade per B m-block-column)
        and the whole pool — a width beyond one chassis seats across
        chassis over the RapidArray fabric."""
        if cap is None:
            cap = (request.max_blades if request.max_blades is not None
                   else self.max_gang)
        else:
            cap = min(cap, request.max_blades
                      if request.max_blades is not None
                      else self.max_gang)
        if request.operation != "gemm" or cap <= 1:
            return 1
        a, b = request.operands
        p, q = np.shape(a)
        r = np.shape(b)[1]
        feasible = api.max_gemm_gang(p, q, r, k=request.k, m=request.m)
        return max(1, min(cap, feasible, self._total_blades))

    def _plan(self, request: BlasRequest,
              cap: Optional[int] = None) -> api.ExecutionPlan:
        if request.operation == "program":
            return self._program_plan(request.operands[0])
        return self._call(request,
                          blades=self._gang_width_for(request,
                                                      cap)).plan()

    def _program_plan(self, program) -> api.ExecutionPlan:
        """Schedulable summary of a whole program pass: the exact
        per-node predictions plus edge charges, with the largest
        kernel's area (every node's bitstream must fit the blade).

        The graph is statically verified first (PRG001-007), so an
        invalid program fails at admission — ``submit()`` turns the
        ``DesignRuleError`` into a pre-queue job failure — instead of
        inside an epoch."""
        program.check(platform="xd1" if self.on_xd1 else "src")
        pplan = program.plan()
        node_plans = list(pplan.node_plans.values())
        area = max((p.area for p in node_plans),
                   key=lambda a: a.slices)
        return api.ExecutionPlan(
            operation=f"program[{program.name}]",
            n=max(p.n for p in node_plans),
            k=max(p.k for p in node_plans), m=None,
            predicted_cycles=pplan.predicted_cycles,
            clock_mhz=pplan.clock_mhz, flops=pplan.flops, area=area)

    def _execute(self, request: BlasRequest,
                 blades: int = 1) -> api.BlasResult:
        if request.operation == "program":
            run = request.operands[0].execute(sim_mode=self.sim_mode)
            return api.BlasResult(run.value, run.report)
        return self._call(request, blades=blades).execute()

    def _reference(self, request: BlasRequest):
        """NumPy ground truth for result verification."""
        if request.operation == "program":
            return request.operands[0].reference()
        op, (a, b) = request.operation, request.operands
        if op == "dot":
            return float(np.dot(a, b))
        if op in ("gemv", "gemm"):
            return np.asarray(a) @ np.asarray(b)
        return a.matvec(np.asarray(b, dtype=np.float64))

    @staticmethod
    def _residual(result, reference) -> float:
        """Max absolute error normalized by the reference magnitude."""
        res = np.atleast_1d(np.asarray(result, dtype=np.float64))
        ref = np.atleast_1d(np.asarray(reference, dtype=np.float64))
        scale = float(np.max(np.abs(ref))) if ref.size else 0.0
        return float(np.max(np.abs(res - ref))) / (scale + 1.0)

    # -- event loop ------------------------------------------------------
    def run(self) -> RuntimeMetrics:
        """Drain the queue and return the run's metrics."""
        if self._ran:
            raise RuntimeError("runtime already ran; build a new one")
        self._ran = True
        rec = self.recorder
        self._arrivals.sort(key=lambda j: (j.submitted_at, j.job_id))
        arrivals: Deque[Job] = deque(self._arrivals)
        rec.counter("queue_depth", "queue", 0.0, 0)

        while arrivals or self._pending or self._retrying:
            if self._injector is not None:
                self._activate_idle_crashes()
            self._ingest_retries()
            self._ingest_due(arrivals)
            free = [d for d in self.devices if d.free_at <= self._now
                    and not d.health.quarantined]
            busy = [d for d in self.devices if d.free_at > self._now
                    and not d.health.quarantined]
            if self._pending and free:
                placement, wait = self.policy.select(
                    tuple(self._pending), free, busy)
                if placement is not None:
                    self._dispatch(placement)
                    continue
                if wait is not None:
                    rec.instant("scheduler.wait", "scheduler",
                                "scheduler", self._now,
                                {"reason": wait,
                                 "pending": len(self._pending),
                                 "free_blades": len(free)})
            next_times = [d.free_at for d in self.devices
                          if d.free_at > self._now]
            if arrivals:
                next_times.append(arrivals[0].submitted_at)
            if self._retrying:
                next_times.append(self._retrying[0].retry_at)
            future = [t for t in next_times if t > self._now]
            if future:
                self._advance(min(future))
                continue
            # All in-service devices idle, no future arrivals or
            # retries, yet jobs remain: nothing can ever place them
            # (transient area conflicts are impossible once every blade
            # is free).  When quarantine shrank the pool, first try a
            # degraded (smaller-k) plan; otherwise reject with a typed
            # capacity reason.
            if self._resolve_unplaceable():
                continue
            self._sample_depth()
        metrics = self._build_metrics()
        args = {"policy": self.policy.name,
                "blades": len(self.devices),
                "jobs_submitted": metrics.jobs_submitted,
                "jobs_completed": metrics.jobs_completed,
                "jobs_failed": metrics.jobs_failed,
                "jobs_rejected": metrics.jobs_rejected,
                "batches": metrics.batches}
        if self._injector is not None:
            args["faults_injected"] = metrics.faults_injected
            args["retries"] = metrics.retries_total
            args["blades_quarantined"] = metrics.blades_quarantined
        if metrics.gangs_formed:
            args["gangs_formed"] = metrics.gangs_formed
            args["gangs_degraded"] = metrics.gangs_degraded
        if metrics.gangs_multichassis:
            args["gangs_multichassis"] = metrics.gangs_multichassis
            args["inter_chassis_cycles"] = metrics.inter_chassis_cycles
        if metrics.work_steals:
            args["work_steals"] = metrics.work_steals
        rec.span("runtime.run", "runtime", "runtime",
                 0.0, metrics.makespan_seconds, args)
        return metrics

    def _ingest_due(self, arrivals: Deque[Job]) -> None:
        while arrivals and arrivals[0].submitted_at <= self._now:
            job = arrivals.popleft()
            if (self.queue_capacity is not None
                    and len(self._pending) >= self.queue_capacity):
                job.reject(self._now, RejectReason.QUEUE_FULL,
                           f"queue full ({self.queue_capacity} jobs "
                           "pending)")
                self.recorder.instant(
                    "job.rejected", "lifecycle", "queue", self._now,
                    {"job": job.job_id,
                     "reason": RejectReason.QUEUE_FULL.value,
                     "capacity": self.queue_capacity})
                continue
            self._pending.append(job)
        self._max_depth = max(self._max_depth, len(self._pending))
        self._sample_depth()

    def _ingest_retries(self) -> None:
        """Move jobs whose backoff has elapsed back into the queue.

        Retries bypass admission control: the job was already accepted
        once, so backpressure must not convert a transient fault into a
        rejection.
        """
        moved = False
        while self._retrying and self._retrying[0].retry_at <= self._now:
            job = self._retrying.pop(0)
            job.transition(JobState.QUEUED, self._now)
            self._pending.append(job)
            moved = True
        if moved:
            self._max_depth = max(self._max_depth, len(self._pending))
            self._sample_depth()

    def _sample_depth(self) -> None:
        """Emit a queue-depth counter sample when the depth changed."""
        depth = len(self._pending)
        if depth != self._last_depth:
            self._last_depth = depth
            self.recorder.counter("queue_depth", "queue", self._now,
                                  depth)

    @property
    def _now(self) -> float:
        """Current virtual time — owned by :attr:`clock`."""
        return self.clock.now

    def _advance(self, to: float) -> None:
        self._depth_area += len(self._pending) * (to - self._now)
        self.clock.advance(to)

    # -- fault plane -----------------------------------------------------
    def _activate_idle_crashes(self) -> None:
        """Deliver crash events that struck idle blades.

        Crashes inside a dispatched pass are consumed by the dispatch
        lookahead; anything still pending once virtual time passes it
        hit a blade with nothing running — it only costs downtime and
        a health strike (possibly a quarantine).
        """
        for device in self.devices:
            for event in self._injector.take_crashes(device.name,
                                                     self._now):
                end = event.at + event.duration
                device.health.add_downtime(event.at, end)
                device.free_at = max(device.free_at, end)
                self.recorder.instant(
                    "fault.injected", "fault", device.name, event.at,
                    {"kind": event.kind.value, "device": device.name,
                     "duration": event.duration})
                self._record_device_fault(device, event.at)

    def _record_device_fault(self, device: DeviceSlot,
                             at: float) -> None:
        count = device.health.record_fault(at)
        if (self.quarantine_after is not None
                and count >= self.quarantine_after
                and not device.health.quarantined):
            device.health.quarantine(at)
            self.recorder.instant(
                "blade.quarantined", "fault", device.name, at,
                {"device": device.name, "faults": count})

    def _schedule_retry(self, job: Job, at: float, reason: str) -> None:
        """Queue one more attempt after an exponential backoff, or fail
        the job permanently once its retry budget is spent."""
        rec = self.recorder
        attempt = job.retries + 1
        if attempt > self.max_retries:
            job.fail(at, f"{reason}; retry budget exhausted "
                         f"({self.max_retries})")
            rec.instant("job.failed", "lifecycle", "scheduler", at,
                        {"job": job.job_id, "error": job.error})
            return
        job.retries = attempt
        job.fault_history.append(reason)
        backoff = self.retry_backoff_seconds * (2 ** (attempt - 1))
        if self._injector is not None:
            # No plan means no seed to draw jitter from: verification
            # retries on a fault-free run back off deterministically.
            backoff *= 1.0 + self._injector.backoff_jitter()
        job.transition(JobState.RETRYING, at)
        job.retry_at = at + backoff
        self._retrying.append(job)
        self._retrying.sort(key=lambda j: (j.retry_at, j.job_id))
        rec.instant("job.retry", "fault", "scheduler", at,
                    {"job": job.job_id, "attempt": attempt,
                     "reason": reason, "backoff": backoff,
                     "retry_at": job.retry_at})

    def _try_degrade(self, job: Job,
                     alive: List[DeviceSlot]) -> bool:
        """Re-plan ``job`` at successively halved ``k`` until the
        design fits an in-service blade.  Mutates the request's ``k``
        and the job's plan on success."""
        original_k = job.request.k
        k = original_k
        while k > 1:
            k //= 2
            job.request.k = k
            try:
                plan = self._plan(job.request, cap=job.gang_limit)
            except (ValueError, MemoryError, SimulationError):
                continue
            if any(d.can_ever_hold(plan.area.slices) for d in alive):
                job.plan = plan
                if job.degraded_from_k is None:
                    job.degraded_from_k = original_k
                self.recorder.instant(
                    "job.degraded", "fault", "scheduler", self._now,
                    {"job": job.job_id, "from_k": original_k,
                     "to_k": k, "slices": plan.area.slices})
                return True
        job.request.k = original_k
        return False

    def _resolve_unplaceable(self) -> bool:
        """Handle pending jobs nothing can ever place.  Returns True
        when degradation re-planned at least one job (the event loop
        should try again); otherwise every stuck job has been failed or
        rejected and the queue is empty."""
        alive = [d for d in self.devices if not d.health.quarantined]
        rec = self.recorder
        survivors: List[Job] = []
        progressed = False
        for job in self._pending:
            slices = job.plan.area.slices
            if any(d.can_ever_hold(slices) for d in alive):
                job.fail(self._now,
                         f"unplaceable: no free blade accepted the design "
                         f"({slices} slices)")
                rec.instant("job.unplaceable", "lifecycle", "scheduler",
                            self._now,
                            {"job": job.job_id, "slices": slices})
            elif (self.degrade and alive
                    and self._try_degrade(job, alive)):
                survivors.append(job)
                progressed = True
            else:
                job.reject(
                    self._now, RejectReason.CAPACITY_LOST,
                    f"capacity lost: design needs {slices} slices and "
                    f"{len(self.devices) - len(alive)} of "
                    f"{len(self.devices)} blade(s) are quarantined")
                rec.instant("job.rejected", "lifecycle", "scheduler",
                            self._now,
                            {"job": job.job_id,
                             "reason": RejectReason.CAPACITY_LOST.value,
                             "slices": slices})
        self._pending = survivors
        return progressed

    # -- dispatch --------------------------------------------------------
    def _collect_batch(self, lead: Job) -> List[Job]:
        batch = [lead]
        if self.batching and lead.request.operation == "gemm":
            key = lead.request.shape_key()
            # Gang-planned jobs never join a batch: their pass runs a
            # different design on a different number of blades, so the
            # shared-overhead accounting would be wrong for them.
            followers = sorted(
                (j for j in self._pending
                 if j.request.shape_key() == key
                 and j.plan.blades_required == 1),
                key=lambda j: j.job_id)[:self.batch_limit - 1]
            for job in followers:
                self._pending.remove(job)
            batch.extend(followers)
        return batch

    def _dispatch(self, placement: Placement) -> None:
        """Run one placement as a pass of members × blades (see the
        module docstring's "Placement pass").

        A gang-planned job stays a gang even when chassis fallback
        seats it on one blade.  A gang placed at a width other than
        the planned one is re-planned at the actual width first, so
        plan-vs-actual drift stays exact."""
        job, devices = placement.job, placement.devices
        rec = self.recorder
        injector = self._injector
        gang = len(devices) > 1 or job.plan.blades_required > 1
        width = len(devices)
        lead = devices[0]
        names = [d.name for d in devices]
        self._pending.remove(job)
        if not gang:
            members = self._collect_batch(job)
        else:
            members = [job]
            if width != job.plan.blades_required:
                try:
                    job.plan = self._call(job.request,
                                          blades=width).plan()
                except (ValueError, MemoryError, SimulationError) as exc:
                    # No design exists at the seated width (l = 1 runs
                    # the single-blade array, which needs m²/k > α):
                    # the job fails like an unplannable submit.
                    job.fail(self._now, f"planning failed: {exc}")
                    rec.instant("job.failed", "lifecycle", "scheduler",
                                self._now, {"job": job.job_id,
                                            "error": job.error})
                    return
        plan = job.plan
        chassis_span = len({d.chassis for d in devices})
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        start = self._now
        if placement.reason == "work-steal":
            self._work_steals += 1
            rec.instant("work.stolen", "scheduler", lead.name, start,
                        {"job": job.job_id,
                         "home_chassis": job.request.home_chassis,
                         "stolen_by_chassis": lead.chassis,
                         "device": lead.name})
        self._sample_depth()
        rec.instant("scheduler.place", "scheduler", "scheduler", start,
                    {"job": job.job_id, "device": lead.name,
                     "policy": self.policy.name,
                     "reason": placement.reason,
                     "design": plan.design_key,
                     "batch_id": batch_id,
                     "batch_size": len(members),
                     **({"gang": names} if gang else {})})
        if len(members) > 1:
            rec.instant("batch.formed", "batch", "scheduler", start,
                        {"batch_id": batch_id,
                         "lead": job.job_id,
                         "members": [m.job_id for m in members],
                         "design": plan.design_key})
        if width > 1:
            self._gangs_formed += 1
            if chassis_span > 1:
                self._gangs_multichassis += 1
            rec.instant("gang.formed", "gang", "scheduler", start,
                        {"job": job.job_id, "blades": width,
                         "members": names,
                         "design": plan.design_key,
                         "chassis": chassis_span,
                         "inter_chassis_cycles":
                             plan.inter_chassis_cycles})
        for member in members:
            member.device = lead.name
            member.batch_id = batch_id
            member.transition(JobState.PLACED, start)
        if gang:
            job.gang_devices = list(names)
            job.gang_size = width
        # The array cannot stream until its slowest blade is configured.
        clock = max(self._configure(device, plan, start)
                    for device in devices)
        overhead = (api.gemm_fixed_overhead_cycles(plan.k, plan.m)
                    if len(members) > 1 else 0)
        for device in devices:
            rec.counter(f"{device.name}:busy", device.name, start, 1)
        for i, member in enumerate(members):
            run_start = clock
            # A blade that died before this member got to run aborts
            # it and every member behind it.
            if injector is not None and self._abort_on_crash(
                    devices, members[i:], gang, start, run_start):
                break
            member.transition(JobState.RUNNING, run_start)
            wait_from = (member.retry_at if member.retries
                         else member.submitted_at)
            rec.span(f"job{member.job_id}:wait", "queue", "queue",
                     wait_from, run_start,
                     {"job": member.job_id,
                      "operation": member.request.operation,
                      "attempt": member.retries + 1})
            try:
                outcome = self._execute(member.request, blades=width)
                result, report = outcome.value, outcome.report
            except (ValueError, MemoryError, SimulationError) as exc:
                member.fail(clock, f"{type(exc).__name__}: {exc}")
                rec.instant("job.failed", "lifecycle", lead.name, clock,
                            {"job": member.job_id,
                             "error": member.error})
                continue
            cycles = max(1, report.total_cycles - (overhead if i else 0))
            seconds = cycles / (report.clock_mhz * 1e6)
            if injector is not None:
                # A stall on any blade stretches the whole pass: a gang
                # is a pipeline, so the slowest link sets the pace.
                for device in devices:
                    seconds = self._apply_stalls(device, member,
                                                 run_start, seconds)
                if self._abort_on_crash(devices, members[i:], gang,
                                        start, run_start + seconds):
                    break
                for device in devices:
                    result = self._apply_corruption(
                        device, member, result, run_start + seconds)
            clock = run_start + seconds
            if self.verify_results and self._verify_failed(
                    lead, member, result, clock):
                # The blades still spent the whole attempt producing
                # the discarded result: charge their time.
                for device in devices:
                    device.metrics.busy_seconds += seconds
                continue
            member.charged_cycles = cycles
            member.charged_seconds = seconds
            member.result = result
            member.report = report
            member.transition(JobState.DONE, clock)
            member.run_span_id = rec.span(
                f"job{member.job_id}:{member.request.operation}",
                "job", lead.name, run_start, clock,
                {"job": member.job_id,
                 "operation": member.request.operation,
                 "batch_id": batch_id,
                 **({"gang": width, "chassis": chassis_span}
                    if gang else {}),
                 "predicted_cycles": member.plan.predicted_cycles,
                 "executed_cycles": report.total_cycles,
                 "charged_cycles": cycles,
                 **({"inter_chassis_cycles":
                     member.plan.inter_chassis_cycles} if gang else {}),
                 "flops": report.flops})
            if gang:
                for index, device in enumerate(devices):
                    rec.span(f"job{member.job_id}:gang[{index}]",
                             "gang", device.name, run_start, clock,
                             {"job": member.job_id, "member": index,
                              "of": width, "device": device.name},
                             parent_id=member.run_span_id)
            # The member completes once (on the lead) and its flops
            # split across the blades that earned them.
            flops_share = report.flops // width
            for device in devices:
                device.metrics.busy_seconds += seconds
                device.metrics.flops += flops_share
                if width > 1:
                    device.metrics.gang_jobs += 1
            lead.metrics.flops += report.flops - flops_share * width
            lead.metrics.jobs_completed += 1
        else:
            for device in devices:
                device.free_at = clock
                rec.counter(f"{device.name}:busy", device.name, clock, 0)
        lead.metrics.batches += 1

    def _configure(self, device: DeviceSlot, plan: api.ExecutionPlan,
                   start: float) -> float:
        """Make ``plan``'s bitstream resident on ``device`` and return
        when the blade is ready.  Each transient load failure due on
        the blade first costs a full load time."""
        rec = self.recorder
        key = plan.design_key
        clock = start
        # A load failure only strikes a real bitstream load: with the
        # design already resident the event stays queued for the next.
        while self._injector is not None and not device.has_resident(key):
            event = self._injector.take_reconfig_failure(device.name,
                                                         clock)
            if event is None:
                break
            rec.instant("fault.injected", "fault", device.name, clock,
                        {"kind": event.kind.value, "device": device.name,
                         "seconds_lost": self.reconfig_seconds})
            rec.span("reconfig:aborted", "fault", device.name,
                     clock, clock + self.reconfig_seconds,
                     {"device": device.name})
            clock += self.reconfig_seconds
            device.metrics.reconfig_seconds += self.reconfig_seconds
            self._record_device_fault(device, event.at)
        evicted = device.configure(key, plan.area.slices)
        if evicted is not None:
            for design in evicted:
                rec.instant("reconfig.evict", "reconfig", device.name,
                            start, {"design": design, "for": key})
            rec.instant("reconfig.load", "reconfig", device.name, start,
                        {"design": key,
                         "bytes": RECONFIG_BITSTREAM_BYTES,
                         "seconds": self.reconfig_seconds})
            rec.span(f"reconfig:{key}", "reconfig", device.name,
                     clock, clock + self.reconfig_seconds,
                     {"design": key, "evicted": evicted})
            clock += self.reconfig_seconds
            device.metrics.reconfigurations += 1
            device.metrics.reconfig_seconds += self.reconfig_seconds
        return clock

    def _abort_on_crash(self, devices: Tuple[DeviceSlot, ...],
                        unfinished: List[Job], gang: bool,
                        after: float, before: float) -> bool:
        """Abort the pass if a blade crashes strictly inside ``(after,
        before)``; True when it did.

        The earliest crash wins (ties break on blade order, so replays
        are deterministic).  The victim takes the downtime and health
        strike, the other blades free at the crash, and every
        unfinished member retries — a gang at half its width,
        degrading toward ``l=1`` rather than re-forming the doomed
        gang."""
        crash = victim = None
        for device in devices:
            event = self._injector.peek_crash(device.name, after, before)
            if event is not None and (crash is None
                                      or event.at < crash.at):
                crash, victim = event, device
        if crash is None:
            return False
        self._injector.consume(crash)
        rec = self.recorder
        width = len(devices)
        rec.instant("fault.injected", "fault", victim.name, crash.at,
                    {"kind": crash.kind.value, "device": victim.name,
                     "duration": crash.duration,
                     "aborted_jobs": [m.job_id for m in unfinished],
                     **({"gang": [d.name for d in devices]} if gang
                        else {})})
        if width > 1:
            job = unfinished[0]
            job.gang_limit = max(1, width // 2)
            self._gangs_degraded += 1
            try:
                job.plan = self._plan(job.request, cap=job.gang_limit)
            except (ValueError, MemoryError, SimulationError):
                pass  # keep the old plan; the retry re-plans again
            rec.instant("gang.degraded", "gang", victim.name, crash.at,
                        {"job": job.job_id, "from_blades": width,
                         "to_blades": job.plan.blades_required,
                         "crashed": victim.name})
        what = "gang member crash" if gang else "blade crash"
        for member in unfinished:
            self._schedule_retry(
                member, crash.at,
                f"{what} on {victim.name} at t={crash.at:.6f}s")
        end = crash.at + crash.duration
        victim.health.add_downtime(crash.at, end)
        victim.free_at = end
        self._record_device_fault(victim, crash.at)
        for device in devices:
            if device is not victim:
                device.free_at = crash.at
            rec.counter(f"{device.name}:busy", device.name, crash.at, 0)
        return True

    def _apply_stalls(self, device: DeviceSlot, member: Job,
                      run_start: float, seconds: float) -> float:
        """Stretch a run by every memory/interconnect stall striking
        its window; returns the stretched duration."""
        events = self._injector.take_stalls(device.name,
                                            run_start + seconds)
        for event in events:
            stretched = seconds * event.multiplier
            self.recorder.instant(
                "fault.injected", "fault", device.name, event.at,
                {"kind": event.kind.value, "device": device.name,
                 "job": member.job_id,
                 "multiplier": event.multiplier,
                 "seconds_added": stretched - seconds})
            seconds = stretched
            self._record_device_fault(device, event.at)
        return seconds

    def _apply_corruption(self, device: DeviceSlot, member: Job,
                          result, end: float):
        """Apply a due bit-flip fault to the result; returns the
        (possibly corrupted) result."""
        event = self._injector.take_corruption(device.name, end)
        if event is not None:
            result, word, bit = self._injector.corrupt(result, event)
            self.recorder.instant(
                "fault.injected", "fault", device.name, event.at,
                {"kind": event.kind.value, "device": device.name,
                 "job": member.job_id, "word": word, "bit": bit})
            self._record_device_fault(device, event.at)
        return result

    def _verify_failed(self, device: DeviceSlot, member: Job,
                       result, end: float) -> bool:
        """Check the result against the NumPy reference; True means it
        failed and the member was sent back for another attempt.

        A non-finite residual fails too: an exponent-bit flip can turn
        a result word into NaN/Inf, and ``NaN > tolerance`` is False —
        comparing only the magnitude would wave corrupted answers
        through.
        """
        residual = self._residual(result, self._reference(member.request))
        if np.isfinite(residual) and residual <= self.verify_tolerance:
            return False
        self._verify_failures += 1
        self.recorder.instant(
            "job.verify_failed", "fault", device.name, end,
            {"job": member.job_id, "residual": residual,
             "tolerance": self.verify_tolerance})
        self._schedule_retry(
            member, end,
            f"result verification failed on {device.name} "
            f"(residual {residual:.3e})")
        return True

    # -- reporting -------------------------------------------------------
    def _build_metrics(self) -> RuntimeMetrics:
        done = [j for j in self._jobs if j.state is JobState.DONE]
        finish_times = [j.finished_at for j in self._jobs
                        if j.finished_at is not None]
        makespan = max(finish_times, default=0.0)
        blades_per_job: Dict[str, int] = {}
        for job in done:
            width = str(job.gang_size or 1)
            blades_per_job[width] = blades_per_job.get(width, 0) + 1
        for device in self.devices:
            device.metrics.resident_designs = list(device.resident)
            device.metrics.faults = device.health.fault_count
            device.metrics.downtime_seconds = \
                device.health.downtime_seconds
            device.metrics.quarantined = device.health.quarantined
        injector = self._injector
        return RuntimeMetrics(
            policy=self.policy.name,
            device_count=len(self.devices),
            makespan_seconds=makespan,
            jobs_submitted=len(self._jobs),
            jobs_completed=len(done),
            jobs_failed=sum(1 for j in self._jobs
                            if j.state is JobState.FAILED),
            jobs_rejected=sum(1 for j in self._jobs
                              if j.state is JobState.REJECTED),
            batches=self._next_batch_id,
            deadline_misses=sum(1 for j in done if j.missed_deadline),
            total_flops=sum(j.report.flops for j in done),
            wait_seconds=[j.waiting_seconds for j in done],
            latency_seconds=[j.latency_seconds for j in done],
            max_queue_depth=self._max_depth,
            mean_queue_depth=(self._depth_area / makespan
                              if makespan > 0 else 0.0),
            faults_injected=(injector.injected_count()
                             if injector else 0),
            retries_total=sum(j.retries for j in self._jobs),
            jobs_retried=sum(1 for j in self._jobs if j.retries),
            jobs_degraded=sum(1 for j in self._jobs
                              if j.degraded_from_k is not None),
            corruptions_injected=(
                injector.injected_count(FaultKind.BIT_FLIP)
                if injector else 0),
            verify_failures=self._verify_failures,
            blades_quarantined=sum(1 for d in self.devices
                                   if d.health.quarantined),
            capacity_rejections=sum(
                1 for j in self._jobs
                if j.reject_reason is RejectReason.CAPACITY_LOST),
            gangs_formed=self._gangs_formed,
            gangs_degraded=self._gangs_degraded,
            gangs_multichassis=self._gangs_multichassis,
            inter_chassis_cycles=sum(j.plan.inter_chassis_cycles
                                     for j in done),
            work_steals=self._work_steals,
            blades_per_job=blades_per_job,
            devices=[d.metrics for d in self.devices],
        )

    @property
    def jobs(self) -> Tuple[Job, ...]:
        """Every job ever submitted, in submission order."""
        return tuple(self._jobs)
