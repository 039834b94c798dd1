"""Concurrent BLAS job runtime for the simulated XD1 chassis.

The paper's designs run one kernel on one FPGA; a real installation
has six blades per chassis and twelve chassis.  This package multiplexes
a stream of BLAS requests across that pool:

* :mod:`repro.runtime.job` — the :class:`Job` lifecycle (queued →
  placed → running → done/failed) around a :class:`BlasRequest`.
* :mod:`repro.runtime.scheduler` — pluggable placement policies: FIFO,
  shortest-job-first on the :meth:`repro.blas.api.BlasCall.plan` cycle
  predictions, earliest-deadline-first, and area-aware bin-packing
  that co-resides small designs on one FPGA.
* :mod:`repro.runtime.executor` — :class:`BlasRuntime`, a virtual-time
  event loop that advances per-blade clocks by each job's simulated
  cycle count, charges bitstream-reconfiguration time when a blade
  switches kernels, coalesces same-shape gemm jobs into one block-MM
  pass, and bounds the queue for backpressure.
* :mod:`repro.runtime.metrics` — per-device utilization, queue depth,
  latency percentiles and aggregate sustained GFLOPS, JSON-exportable.

For timeline-level observability (structured spans, instant events and
counter time-series in virtual time, Chrome-trace export, plan-vs-
actual drift), pass ``recorder=repro.obs.TraceRecorder()`` to
:class:`BlasRuntime` — see :mod:`repro.obs` and docs/observability.md.

For fault injection and the resilience machinery it exercises (retry
with backoff, blade quarantine, result verification, capacity
degradation), pass ``fault_plan=repro.faults.FaultPlan(...)`` — see
:mod:`repro.faults` and docs/faults.md.
"""

from repro.runtime.clock import HybridClock, VirtualClock, make_clock
from repro.runtime.executor import BlasRuntime, DeviceSlot
from repro.runtime.job import (
    TERMINAL_STATES,
    BlasRequest,
    InvalidTransitionError,
    Job,
    JobState,
    RejectReason,
)
from repro.runtime.metrics import DeviceMetrics, RuntimeMetrics
from repro.runtime.scheduler import (
    POLICIES,
    AreaAwarePolicy,
    EarliestDeadlinePolicy,
    FifoPolicy,
    Placement,
    SchedulingPolicy,
    ShortestJobFirstPolicy,
    make_policy,
)

__all__ = [
    "BlasRequest",
    "Job",
    "JobState",
    "RejectReason",
    "TERMINAL_STATES",
    "InvalidTransitionError",
    "BlasRuntime",
    "DeviceSlot",
    "DeviceMetrics",
    "RuntimeMetrics",
    "VirtualClock",
    "HybridClock",
    "make_clock",
    "SchedulingPolicy",
    "Placement",
    "FifoPolicy",
    "ShortestJobFirstPolicy",
    "EarliestDeadlinePolicy",
    "AreaAwarePolicy",
    "POLICIES",
    "make_policy",
]
