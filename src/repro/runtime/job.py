"""Job model: one BLAS request moving through the runtime's lifecycle.

A :class:`BlasRequest` is what a client hands the runtime — operation,
operands and scheduling hints.  The runtime wraps it in a :class:`Job`
that carries the planned cost (:class:`repro.blas.api.ExecutionPlan`),
the lifecycle state machine, virtual-time stamps and, once executed,
the numerical result plus its :class:`repro.blas.api.PerfReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, List, Optional, Tuple

from repro.blas.api import DEFAULT_K, ExecutionPlan, PerfReport

#: ``"program"`` submits a whole :class:`repro.blas.program.
#: BlasProgram` (streamed kernel DAG) as one schedulable unit; its
#: operands are ``(program, None)``.
OPERATIONS = tuple(DEFAULT_K) + ("program",)


class JobState(Enum):
    """Lifecycle of a job inside the runtime."""

    QUEUED = "queued"
    PLACED = "placed"
    RUNNING = "running"
    #: Aborted by a fault (blade crash, detected corruption) and
    #: waiting out its backoff before re-entering the queue.
    RETRYING = "retrying"
    DONE = "done"
    FAILED = "failed"
    REJECTED = "rejected"


_VALID_TRANSITIONS = {
    JobState.QUEUED: {JobState.PLACED, JobState.FAILED, JobState.REJECTED},
    JobState.PLACED: {JobState.RUNNING, JobState.FAILED,
                      JobState.RETRYING},
    JobState.RUNNING: {JobState.DONE, JobState.FAILED, JobState.RETRYING},
    JobState.RETRYING: {JobState.QUEUED, JobState.FAILED,
                        JobState.REJECTED},
    JobState.DONE: set(),
    JobState.FAILED: set(),
    JobState.REJECTED: set(),
}

#: States a job can never leave.
TERMINAL_STATES = frozenset(
    state for state, allowed in _VALID_TRANSITIONS.items() if not allowed)


class RejectReason(Enum):
    """Typed reason a job was REJECTED at admission or after a fault."""

    QUEUE_FULL = "queue_full"
    CAPACITY_LOST = "capacity_lost"


class InvalidTransitionError(RuntimeError):
    """A job was moved to a state its current state does not allow."""


@dataclass
class BlasRequest:
    """One BLAS operation submitted to the runtime.

    ``operands`` holds the call's positional arrays: ``(u, v)`` for
    dot, ``(A, x)`` for gemv, ``(A, B)`` for gemm, ``(matrix, x)`` for
    spmxv.  ``k``/``m`` default to the paper's configurations;
    ``priority`` orders jobs within every policy (higher first);
    ``deadline`` (virtual seconds) is tracked for miss accounting and
    drives the earliest-deadline-first policy.
    """

    operation: str
    operands: Tuple[Any, ...]
    k: Optional[int] = None
    m: Optional[int] = None
    architecture: str = "tree"
    priority: int = 0
    deadline: Optional[float] = None
    #: Per-request gang cap: at most this many blades may form the
    #: job's multi-FPGA array (``None`` defers to the runtime's
    #: ``max_gang``; only gemm can gang).
    max_blades: Optional[int] = None
    #: Preferred chassis (affinity hint).  A job with a home chassis
    #: waits for a blade there while any is free; when the home
    #: chassis is saturated and another chassis's queue has drained,
    #: that chassis's free blade steals the job (placement reason
    #: ``"work-steal"``, counted in the run metrics).
    home_chassis: Optional[int] = None

    def __post_init__(self) -> None:
        if self.operation not in OPERATIONS:
            raise ValueError(
                f"unknown operation {self.operation!r}; "
                f"expected one of {OPERATIONS}")
        if len(self.operands) != 2:
            raise ValueError(f"{self.operation} takes exactly two operands")
        if self.k is None:
            # Programs carry per-node k's; the request-level k is only
            # a label for them.
            self.k = DEFAULT_K.get(self.operation, 1)
        if self.max_blades is not None and self.max_blades < 1:
            raise ValueError("max_blades must be >= 1 (or None)")

    def shape_key(self) -> Tuple:
        """Batching identity: jobs with equal keys run the same design
        on identically-shaped operands and may share one pass.
        Programs key on their graph structure — two programs never
        batch (each is its own pass by definition)."""
        if self.operation == "program":
            return ("program", id(self.operands[0]))
        shapes = tuple(
            tuple(op.shape) if hasattr(op, "shape") else (len(op),)
            for op in self.operands)
        return (self.operation, shapes, self.k, self.m, self.architecture)


@dataclass
class Job:
    """A request wrapped with runtime state."""

    job_id: int
    request: BlasRequest
    plan: Optional[ExecutionPlan] = None
    state: JobState = JobState.QUEUED
    submitted_at: float = 0.0
    placed_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    device: Optional[str] = None
    batch_id: Optional[int] = None
    #: Cycles actually charged to the blade (batched jobs are charged
    #: less than their standalone report because fixed overhead is
    #: amortized over the pass).
    charged_cycles: Optional[int] = None
    charged_seconds: Optional[float] = None
    result: Any = None
    report: Optional[PerfReport] = None
    error: Optional[str] = None
    #: Typed reason when the job ends REJECTED.
    reject_reason: Optional[RejectReason] = None
    #: Completed retry attempts (0 = first execution never faulted).
    retries: int = 0
    #: Virtual time the job re-enters the queue after its backoff.
    retry_at: Optional[float] = None
    #: Human-readable record of every fault that struck this job.
    fault_history: List[str] = field(default_factory=list)
    #: Original ``k`` when capacity loss forced a smaller design.
    degraded_from_k: Optional[int] = None
    #: Blades the job actually ran on when it formed a gang (the
    #: lead blade first); ``None`` for single-blade jobs.
    gang_devices: Optional[List[str]] = None
    #: Gang width the job actually ran at (1 = no gang formed).
    gang_size: Optional[int] = None
    #: Cap imposed after a gang member crashed: the retry re-plans at
    #: half the failed width (degrading toward l=1) instead of
    #: re-forming the same doomed gang.
    gang_limit: Optional[int] = None
    #: Trace span id of the RUNNING interval, set once the job is
    #: DONE; kernel-level traces attach as children of it
    #: (:func:`repro.obs.attach_kernel_trace`).  An untraced run leaves
    #: the null recorder's −1, which no recorded span has.
    run_span_id: Optional[int] = None

    def transition(self, new_state: JobState, now: float) -> None:
        if new_state not in _VALID_TRANSITIONS[self.state]:
            raise InvalidTransitionError(
                f"job {self.job_id}: {self.state.value} -> "
                f"{new_state.value} is not a legal transition")
        self.state = new_state
        if new_state is JobState.PLACED:
            self.placed_at = now
        elif new_state is JobState.RUNNING:
            self.started_at = now
        elif new_state in (JobState.DONE, JobState.FAILED,
                           JobState.REJECTED):
            self.finished_at = now

    def fail(self, now: float, error: str) -> None:
        self.error = error
        self.transition(JobState.FAILED, now)

    def reject(self, now: float, reason: RejectReason,
               error: str) -> None:
        self.reject_reason = reason
        self.error = error
        self.transition(JobState.REJECTED, now)

    # -- derived timings -------------------------------------------------
    @property
    def waiting_seconds(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def latency_seconds(self) -> Optional[float]:
        if self.finished_at is None or self.state is not JobState.DONE:
            return None
        return self.finished_at - self.submitted_at

    @property
    def missed_deadline(self) -> bool:
        return (self.request.deadline is not None
                and self.finished_at is not None
                and self.state is JobState.DONE
                and self.finished_at > self.request.deadline)

    @property
    def predicted_cycles(self) -> int:
        if self.plan is None:
            raise ValueError(f"job {self.job_id} has no plan")
        return self.plan.predicted_cycles
