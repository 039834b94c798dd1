"""Plan-vs-actual profiling: how good are the ``BlasCall.plan``
predictors?

The scheduler orders and places jobs on the analytic cycle predictions
of :meth:`repro.blas.api.BlasCall.plan`; the executor then charges the
cycle counts the cycle-accurate designs actually report.  This module
compares the two per job and aggregates per operation, turning the
documented predictor accuracy — gemm, dot and gemv *exact*, spmxv
within 10 % — into a continuously checked invariant: any kernel whose
relative error exceeds its threshold is *flagged*, and ``repro trace
--strict`` (and the test suite) fail on flagged entries.

The comparison uses each job's *standalone* executed cycle count
(``job.report.total_cycles``), not the charged cycles: batched gemm
followers are charged less than a standalone run because the pass
amortizes fixed overhead, and that discount is a scheduling effect,
not predictor error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional

__all__ = [
    "DEFAULT_THRESHOLDS",
    "DriftEntry",
    "DriftReport",
    "drift_report",
    "base_operation",
]

#: Maximum tolerated |actual − predicted| / actual per base operation.
#: gemm's closed-form timing model is exact, and dot/gemv are exact at
#: every size since the predictors replay the reduction circuit's
#: final-set flush per size (``reduction_flush_cycles``) instead of
#: assuming the long-stream saturated tail.  Only spmxv — whose flush
#: depends on the sparsity pattern's final row, which the plan
#: deliberately does not replay — keeps a tolerance band.
DEFAULT_THRESHOLDS: Dict[str, float] = {
    "dot": 0.0,
    "gemv": 0.0,
    "gemm": 0.0,
    "spmxv": 0.10,
}


def base_operation(operation: str) -> str:
    """``gemv[tree]`` → ``gemv``; other names pass through."""
    return operation.split("[", 1)[0]


@dataclass(frozen=True)
class DriftEntry:
    """One job's predicted-vs-executed cycle comparison."""

    job_id: int
    operation: str
    predicted_cycles: int
    actual_cycles: int
    threshold: float

    @property
    def error_cycles(self) -> int:
        return self.actual_cycles - self.predicted_cycles

    @property
    def rel_error(self) -> float:
        """Signed (actual − predicted) / actual."""
        if self.actual_cycles == 0:
            return 0.0
        return self.error_cycles / self.actual_cycles

    @property
    def flagged(self) -> bool:
        return abs(self.rel_error) > self.threshold

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "operation": self.operation,
            "predicted_cycles": self.predicted_cycles,
            "actual_cycles": self.actual_cycles,
            "rel_error": self.rel_error,
            "threshold": self.threshold,
            "flagged": self.flagged,
        }


@dataclass
class DriftReport:
    """Per-job drift entries plus per-operation aggregation."""

    entries: List[DriftEntry]
    thresholds: Dict[str, float]

    @property
    def flagged(self) -> List[DriftEntry]:
        return [e for e in self.entries if e.flagged]

    @property
    def ok(self) -> bool:
        return not self.flagged

    def per_operation(self) -> Dict[str, Dict[str, Any]]:
        """operation → count / mean and max |rel error| / flagged."""
        grouped: Dict[str, List[DriftEntry]] = {}
        for entry in self.entries:
            grouped.setdefault(entry.operation, []).append(entry)
        summary: Dict[str, Dict[str, Any]] = {}
        for operation in sorted(grouped):
            entries = grouped[operation]
            errors = [abs(e.rel_error) for e in entries]
            summary[operation] = {
                "jobs": len(entries),
                "mean_abs_rel_error": sum(errors) / len(errors),
                "max_abs_rel_error": max(errors),
                "threshold": self.thresholds.get(
                    operation, self.thresholds.get(
                        base_operation(operation), 0.0)),
                "flagged": sum(1 for e in entries if e.flagged),
            }
        return summary

    def to_dict(self) -> Dict[str, Any]:
        return {
            "thresholds": dict(self.thresholds),
            "operations": self.per_operation(),
            "flagged_jobs": [e.to_dict() for e in self.flagged],
            "jobs_compared": len(self.entries),
            "ok": self.ok,
        }

    def summary(self) -> str:
        """Human table: one row per operation, flagged jobs below."""
        lines = [f"{'operation':<14} {'jobs':>5} {'mean |err|':>11} "
                 f"{'max |err|':>10} {'bound':>7} {'flagged':>8}"]
        for operation, row in self.per_operation().items():
            lines.append(
                f"{operation:<14} {row['jobs']:>5} "
                f"{row['mean_abs_rel_error'] * 100:>10.2f}% "
                f"{row['max_abs_rel_error'] * 100:>9.2f}% "
                f"{row['threshold'] * 100:>6.1f}% "
                f"{row['flagged']:>8}")
        if not self.entries:
            lines.append("(no completed jobs to compare)")
        for entry in self.flagged:
            lines.append(
                f"  FLAGGED job {entry.job_id} ({entry.operation}): "
                f"predicted {entry.predicted_cycles}, executed "
                f"{entry.actual_cycles} "
                f"({entry.rel_error * 100:+.2f}% > "
                f"±{entry.threshold * 100:.1f}%)")
        return "\n".join(lines)


def drift_report(jobs: Iterable[Any],
                 thresholds: Optional[Mapping[str, float]] = None
                 ) -> DriftReport:
    """Build a :class:`DriftReport` from runtime jobs.

    Only jobs that both planned and executed (``plan`` and ``report``
    set) contribute; failed or rejected jobs have nothing to compare.
    ``thresholds`` overrides :data:`DEFAULT_THRESHOLDS` per base
    operation.
    """
    bounds = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        bounds.update(thresholds)
    entries = []
    for job in jobs:
        if job.plan is None or job.report is None:
            continue
        operation = base_operation(job.request.operation)
        entries.append(DriftEntry(
            job_id=job.job_id,
            operation=operation,
            predicted_cycles=job.plan.predicted_cycles,
            actual_cycles=job.report.total_cycles,
            threshold=bounds.get(operation, 0.0),
        ))
    return DriftReport(entries=entries, thresholds=bounds)
