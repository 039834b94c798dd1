"""Runtime observability: per-device and aggregate metrics.

Everything is computed over *virtual* time (the executor's simulated
clock), so numbers are deterministic across hosts.  ``to_dict`` /
``to_json`` export a stable schema (documented in docs/runtime.md) for
dashboards and regression tests; ``summary`` renders the human report
the ``repro runtime`` CLI prints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (deterministic, numpy-free so
    the schema does not depend on numpy version behavior).

    This is the repo's *single* exact percentile implementation.  It
    needs the full value list, which a finite runtime run already
    holds; the long-lived serve layer instead reads the bounded-error
    quantiles of :class:`repro.obs.metrics.Histogram`."""
    if not 0.0 <= pct <= 100.0:
        raise ValueError("pct must be in [0, 100]")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class DeviceMetrics:
    """What one blade did over the run."""

    name: str
    jobs_completed: int = 0
    batches: int = 0
    busy_seconds: float = 0.0
    reconfig_seconds: float = 0.0
    reconfigurations: int = 0
    flops: int = 0
    resident_designs: List[str] = field(default_factory=list)
    #: Gang passes this blade served as a member of (the lead blade
    #: counts the completion in ``jobs_completed``; every member —
    #: lead included — counts the participation here).
    gang_jobs: int = 0
    #: Faults charged to this blade (crashes, failed bitstream loads,
    #: stalls, corrupted outputs it produced).
    faults: int = 0
    #: Virtual seconds the blade spent down after crashes.
    downtime_seconds: float = 0.0
    #: True when repeated faults removed the blade from service.
    quarantined: bool = False

    def utilization(self, makespan: float) -> float:
        """Fraction of the run the blade spent computing (reconfig time
        counts as overhead, not useful work)."""
        if makespan <= 0.0:
            return 0.0
        return self.busy_seconds / makespan

    def to_dict(self, makespan: float) -> Dict:
        return {
            "name": self.name,
            "jobs_completed": self.jobs_completed,
            "batches": self.batches,
            "busy_seconds": self.busy_seconds,
            "reconfig_seconds": self.reconfig_seconds,
            "reconfigurations": self.reconfigurations,
            "flops": self.flops,
            "gang_jobs": self.gang_jobs,
            "utilization": self.utilization(makespan),
            "resident_designs": list(self.resident_designs),
            "faults": self.faults,
            "downtime_seconds": self.downtime_seconds,
            "quarantined": self.quarantined,
        }


@dataclass
class RuntimeMetrics:
    """Aggregate view of one runtime execution."""

    policy: str
    device_count: int
    makespan_seconds: float
    jobs_submitted: int
    jobs_completed: int
    jobs_failed: int
    jobs_rejected: int
    batches: int
    deadline_misses: int
    total_flops: int
    wait_seconds: List[float] = field(default_factory=list)
    latency_seconds: List[float] = field(default_factory=list)
    max_queue_depth: int = 0
    mean_queue_depth: float = 0.0
    #: Fault-plane accounting (all zero on a fault-free run).
    faults_injected: int = 0
    retries_total: int = 0
    jobs_retried: int = 0
    jobs_degraded: int = 0
    corruptions_injected: int = 0
    verify_failures: int = 0
    blades_quarantined: int = 0
    capacity_rejections: int = 0
    #: Gang accounting (all zero when no job planned a gang).
    gangs_formed: int = 0
    gangs_degraded: int = 0
    #: Gangs whose members spanned more than one chassis.
    gangs_multichassis: int = 0
    #: Cycles charged to RapidArray inter-chassis crossings by
    #: chassis-spanning gangs (itemized so the bandwidth term the
    #: paper's Section 6.4 analysis predicts is visible per run).
    inter_chassis_cycles: int = 0
    #: Jobs a drained chassis stole from a saturated home chassis.
    work_steals: int = 0
    #: Completed jobs per actual gang width: {"1": …, "4": …}.
    blades_per_job: Dict[str, int] = field(default_factory=dict)
    devices: List[DeviceMetrics] = field(default_factory=list)

    # -- derived ---------------------------------------------------------
    @property
    def sustained_gflops(self) -> float:
        """Useful flops of completed jobs over the whole run."""
        if self.makespan_seconds <= 0.0:
            return 0.0
        return self.total_flops / self.makespan_seconds / 1e9

    @property
    def throughput_jobs_per_s(self) -> float:
        if self.makespan_seconds <= 0.0:
            return 0.0
        return self.jobs_completed / self.makespan_seconds

    def wait_percentile(self, pct: float) -> float:
        return percentile(self.wait_seconds, pct)

    def latency_percentile(self, pct: float) -> float:
        return percentile(self.latency_seconds, pct)

    @property
    def mean_utilization(self) -> float:
        if not self.devices:
            return 0.0
        return (sum(d.utilization(self.makespan_seconds)
                    for d in self.devices) / len(self.devices))

    # -- export ----------------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "policy": self.policy,
            "device_count": self.device_count,
            "makespan_seconds": self.makespan_seconds,
            "jobs": {
                "submitted": self.jobs_submitted,
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
                "rejected": self.jobs_rejected,
                "batches": self.batches,
                "deadline_misses": self.deadline_misses,
            },
            "latency_seconds": {
                "p50": self.latency_percentile(50),
                "p99": self.latency_percentile(99),
            },
            "wait_seconds": {
                "p50": self.wait_percentile(50),
                "p99": self.wait_percentile(99),
            },
            "queue_depth": {
                "max": self.max_queue_depth,
                "mean": self.mean_queue_depth,
            },
            "faults": {
                "injected": self.faults_injected,
                "retries": self.retries_total,
                "jobs_retried": self.jobs_retried,
                "jobs_degraded": self.jobs_degraded,
                "corruptions_injected": self.corruptions_injected,
                "verify_failures": self.verify_failures,
                "blades_quarantined": self.blades_quarantined,
                "capacity_rejections": self.capacity_rejections,
            },
            "gangs": {
                "formed": self.gangs_formed,
                "degraded": self.gangs_degraded,
                "multichassis": self.gangs_multichassis,
                "inter_chassis_cycles": self.inter_chassis_cycles,
                "blades_per_job": dict(self.blades_per_job),
            },
            "work_steals": self.work_steals,
            "total_flops": self.total_flops,
            "sustained_gflops": self.sustained_gflops,
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "mean_utilization": self.mean_utilization,
            "devices": [d.to_dict(self.makespan_seconds)
                        for d in self.devices],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        """Human report: aggregate line, latency line, per-blade table."""
        lines = [
            f"policy={self.policy}  devices={self.device_count}  "
            f"jobs: {self.jobs_completed} done / {self.jobs_failed} failed "
            f"/ {self.jobs_rejected} rejected "
            f"({self.batches} batches, {self.deadline_misses} deadline "
            "misses)",
            f"makespan {self.makespan_seconds * 1e3:.3f} ms  "
            f"aggregate {self.sustained_gflops:.3f} GFLOPS  "
            f"({self.throughput_jobs_per_s:.0f} jobs/s)",
            f"latency p50/p99 {self.latency_percentile(50) * 1e3:.3f}/"
            f"{self.latency_percentile(99) * 1e3:.3f} ms  "
            f"queue depth max/mean {self.max_queue_depth}/"
            f"{self.mean_queue_depth:.1f}",
        ]
        if (self.faults_injected or self.retries_total
                or self.blades_quarantined or self.capacity_rejections):
            lines.append(
                f"faults {self.faults_injected} injected "
                f"({self.corruptions_injected} corruptions, "
                f"{self.verify_failures} caught by verification)  "
                f"retries {self.retries_total} over "
                f"{self.jobs_retried} job(s)  "
                f"quarantined {self.blades_quarantined} blade(s)  "
                f"degraded {self.jobs_degraded}  "
                f"capacity-rejected {self.capacity_rejections}")
        if self.gangs_formed:
            widths = ", ".join(
                f"{count}×l={width}" for width, count
                in sorted(self.blades_per_job.items(),
                          key=lambda kv: int(kv[0])))
            gang_line = (
                f"gangs {self.gangs_formed} formed "
                f"({self.gangs_degraded} degraded by member crashes)  "
                f"blades/job: {widths}")
            if self.gangs_multichassis:
                gang_line += (
                    f"  multichassis {self.gangs_multichassis} "
                    f"({self.inter_chassis_cycles} inter-chassis "
                    "cycles)")
            lines.append(gang_line)
        if self.work_steals:
            lines.append(f"work steals {self.work_steals}")
        lines.append(
            f"{'blade':<24} {'jobs':>5} {'util %':>7} {'busy ms':>9} "
            f"{'reconf':>6} {'reconf ms':>10}")
        for dev in self.devices:
            flag = ""
            if dev.quarantined:
                flag = "  QUARANTINED"
            elif dev.faults:
                flag = f"  ({dev.faults} fault(s))"
            lines.append(
                f"{dev.name:<24} {dev.jobs_completed:>5} "
                f"{dev.utilization(self.makespan_seconds) * 100:>7.1f} "
                f"{dev.busy_seconds * 1e3:>9.3f} "
                f"{dev.reconfigurations:>6} "
                f"{dev.reconfig_seconds * 1e3:>10.3f}{flag}")
        return "\n".join(lines)
