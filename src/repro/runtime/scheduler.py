"""Placement policies: which queued job runs on which free blade next.

A policy is a pure function of the queue and the free devices — it
mutates nothing.  One pass decides and explains: ``select`` returns
``(placement, None)`` when a job places, the :class:`Placement`
carrying why that choice won, or ``(None, wait_reason)`` when the
policy declines every free device, the reason naming the gang or
affinity wait (``None`` when nothing fits).  The executor owns all
state changes, so policies compose with batching, backpressure and the
event loop without knowing about them.

Every policy is deterministic: ties break on ``job_id`` and then on
device index, so a replay of the same workload reproduces the same
schedule bit for bit.

Gang placement
--------------
A job whose plan carries ``blades_required > 1`` (a multi-FPGA gemm,
Section 5.2) needs ``l`` blades acquired *atomically* and co-located
on one chassis — the linear array streams blocks over intra-chassis
links.  The shared :meth:`SchedulingPolicy._select_gang` handles this
for every policy:

* prefer the lowest-indexed chassis whose *free* feasible blades can
  seat the gang, favouring blades that already hold the gang's
  bitstream;
* when the requested width exceeds what *any* single chassis holds,
  the gang may span chassis (Section 6.4's full-machine XD1): the
  linear array is seated across consecutive chassis over the
  RapidArray fabric, and the plan/execute paths charge the
  inter-chassis boundary crossings
  (:func:`repro.device.interconnect.inter_chassis_transfer_cycles`);
* if no chassis can seat the full width now but some chassis could
  *ever* (counting its busy blades), the gang **reserves** that anchor
  chassis's free blades — later jobs in this scheduling round cannot
  take them, so a stream of small jobs cannot perpetually starve a
  waiting gang (no-starvation rule);
* if no chassis will ever have ``l`` in-service feasible blades and a
  chassis-spanning seat is not available either, the gang falls back
  to the widest width any chassis can reach (down to ``l=1``) instead
  of deadlocking.

Reservations are per-round and recomputed from scratch each time the
executor asks for a placement, so they cannot leak: once the anchor
chassis's busy blades drain, every blade is free and the gang places.

Work stealing
-------------
A request may carry a ``home_chassis`` affinity.  While its home
chassis has free blades the job only places there; when the home
chassis is saturated and another chassis's queue has drained (free
blades with nothing local to run), the drained chassis *steals* the
job — placement reason ``"work-steal"``, counted in the run metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.runtime.job import Job


@dataclass(frozen=True)
class Placement:
    """One scheduling decision: run ``job`` on ``devices``.

    ``devices`` holds one blade for ordinary jobs and the whole gang
    (lead blade first) for multi-FPGA jobs.  ``reason`` names why this
    choice won, as decided in the same pass that chose it
    (``"first-feasible"``, ``"resident"``, ``"best-fit"``,
    ``"evict-lru"``, ``"gang"``, ``"gang-fallback"``,
    ``"gang-multichassis"``, ``"work-steal"``); the executor records
    it on the trace's placement-decision events.
    """

    job: Job
    devices: Tuple["DeviceSlot", ...]  # noqa: F821 — state in executor
    reason: str = "first-feasible"


def gang_width(job: Job) -> int:
    """Blades the job's plan wants (1 for every single-device plan)."""
    width = getattr(job.plan, "blades_required", 1)
    return width if width and width > 1 else 1


def feasible_gang_width(target: int,
                        chassis_capacities: Iterable[int]) -> int:
    """Widest co-located gang any single chassis can ever seat, capped
    at ``target`` — the Section 5.2 co-location precondition.

    ``chassis_capacities`` counts in-service feasible blades per
    chassis.  Used both by :meth:`SchedulingPolicy._select_gang` (to
    fall back below the requested width instead of deadlocking) and by
    the static design-rule checker's gang rule, so the two cannot
    drift."""
    capacities = list(chassis_capacities)
    if not capacities:
        return 0
    return min(target, max(capacities))


class SchedulingPolicy:
    """Base class; subclasses define the queue order and device choice."""

    name = "base"

    def order_key(self, job: Job) -> Tuple:
        """Sort key over the queue (ascending; higher priority first)."""
        raise NotImplementedError

    def choose_device(self, job: Job,
                      free: Sequence["DeviceSlot"],
                      busy: Sequence["DeviceSlot"] = ()
                      ) -> Tuple[Optional["DeviceSlot"], Optional[str]]:
        """Pick a free device for ``job`` and say why; default: the
        lowest index that can ever hold the design.  ``busy`` is
        advisory — a policy may decline a feasible free device to wait
        for a busy one, returning ``(None, wait_reason)``; ``(None,
        None)`` means nothing fits."""
        for device in sorted(free, key=lambda d: d.index):
            if device.can_ever_hold(job.plan.area.slices):
                return device, "first-feasible"
        return None, None

    def select(self, queue: Sequence[Job],
               free: Sequence["DeviceSlot"],
               busy: Sequence["DeviceSlot"] = ()
               ) -> Tuple[Optional[Placement], Optional[str]]:
        """First feasible (job, devices) pair in policy order, or why
        none placed.

        Gang jobs that cannot assemble yet reserve their anchor
        chassis's free blades: later jobs in this round only see the
        remainder, so small jobs cannot starve a waiting gang.  The
        first gang wait outranks the first affinity wait as the
        round's wait reason."""
        if not queue or not free:
            return None, None
        reserved: FrozenSet[int] = frozenset()
        gang_wait: Optional[str] = None
        affinity_wait: Optional[str] = None
        for job in sorted(queue, key=self.order_key):
            available = [d for d in free if d.index not in reserved]
            if not available:
                break
            width = gang_width(job)
            if width > 1:
                members, reserve = self._select_gang(job, available,
                                                     busy)
                if members is not None:
                    if len({d.chassis for d in members}) > 1:
                        reason = "gang-multichassis"
                    elif len(members) >= width:
                        reason = "gang"
                    else:
                        reason = "gang-fallback"
                    return Placement(job, members, reason), None
                if reserve and gang_wait is None:
                    gang_wait = (f"job {job.job_id} waiting to gang "
                                 f"{width} blade(s); {len(reserve)} free "
                                 f"blade(s) reserved on its anchor chassis")
                reserved = reserved | reserve
                continue
            home = job.request.home_chassis
            local = ([d for d in available if d.chassis == home]
                     if home is not None else [])
            device, reason = self.choose_device(job, local or available,
                                                busy)
            if device is not None:
                # Home chassis saturated: a drained chassis's free
                # blade steals the job.
                if home is not None and not local:
                    reason = "work-steal"
                return Placement(job, (device,), reason), None
            if affinity_wait is None:
                affinity_wait = reason
        return None, gang_wait or affinity_wait

    def _select_gang(self, job: Job,
                     free: Sequence["DeviceSlot"],
                     busy: Sequence["DeviceSlot"] = ()
                     ) -> Tuple[Optional[Tuple["DeviceSlot", ...]],
                                FrozenSet[int]]:
        """Try to seat ``job``'s gang on one chassis.

        Returns ``(members, reserved_indices)``: ``members`` is the
        gang (already capped at the widest width any chassis can ever
        reach) or ``None``, in which case ``reserved_indices`` names
        the anchor chassis's free blades this round must hold back for
        the gang.  Both empty means no chassis can ever host the job.
        """
        key = job.plan.design_key
        slices = job.plan.area.slices
        target = gang_width(job)
        free_by_chassis: Dict[int, List["DeviceSlot"]] = {}
        in_service: Dict[int, int] = {}
        for device in free:
            if device.can_ever_hold(slices):
                free_by_chassis.setdefault(device.chassis,
                                           []).append(device)
                in_service[device.chassis] = \
                    in_service.get(device.chassis, 0) + 1
        for device in busy:
            if device.can_ever_hold(slices):
                in_service[device.chassis] = \
                    in_service.get(device.chassis, 0) + 1
        if not in_service:
            return None, frozenset()
        # The widest gang any single chassis can ever seat: falling
        # back below the requested width beats deadlocking on a width
        # the machine cannot provide.
        width = feasible_gang_width(target, in_service.values())
        # A width no single chassis will ever reach may still seat
        # across chassis (Section 6.4): take consecutive free blades
        # machine-wide, paying the RapidArray boundary crossings the
        # plan already priced in.
        if target > max(in_service.values()):
            span = [d for d in sorted(free,
                                      key=lambda d: (d.chassis,
                                                     d.index))
                    if d.can_ever_hold(slices)]
            if len(span) >= target:
                return tuple(span[:target]), frozenset()
        for chassis in sorted(free_by_chassis):
            candidates = free_by_chassis[chassis]
            if len(candidates) < width:
                continue
            ranked = sorted(candidates,
                            key=lambda d: (not d.has_resident(key),
                                           d.index))
            members = tuple(sorted(ranked[:width],
                                   key=lambda d: d.index))
            return members, frozenset()
        # No chassis can seat the gang right now; reserve the free
        # blades of the first chassis that ever could (the anchor).
        anchor = min(c for c, count in in_service.items()
                     if count >= width)
        return None, frozenset(
            d.index for d in free_by_chassis.get(anchor, []))


class FifoPolicy(SchedulingPolicy):
    """Submission order (within priority class)."""

    name = "fifo"

    def order_key(self, job: Job) -> Tuple:
        return (-job.request.priority, job.job_id)


class ShortestJobFirstPolicy(SchedulingPolicy):
    """Cheapest predicted job first, using the ``BlasCall.plan`` cycle
    predictions — minimizes mean waiting time on bursty queues."""

    name = "sjf"

    def order_key(self, job: Job) -> Tuple:
        return (-job.request.priority, job.predicted_cycles, job.job_id)


class EarliestDeadlinePolicy(SchedulingPolicy):
    """Earliest deadline first; deadline-free jobs run last."""

    name = "edf"

    def order_key(self, job: Job) -> Tuple:
        deadline = job.request.deadline
        return (-job.request.priority,
                deadline if deadline is not None else float("inf"),
                job.job_id)


class AreaAwarePolicy(SchedulingPolicy):
    """FIFO ordering with reconfiguration-avoiding device choice.

    Blades keep every configured design resident while the combined
    area fits (:class:`repro.runtime.executor.DeviceSlot` models the
    usable slice budget), so placement is a bin-packing problem: prefer
    a blade that already holds the job's bitstream (zero
    reconfiguration), then the best-fit blade with spare area (smallest
    leftover, to keep large holes open for large designs).  When every
    free blade would need an *eviction* but a busy blade already holds
    the design, the policy waits for that blade instead — with
    millisecond-scale bitstream loads against microsecond-scale jobs,
    affinity beats immediacy.  Eviction (LRU, on the emptiest blade) is
    the last resort.
    """

    name = "area"

    def order_key(self, job: Job) -> Tuple:
        return (-job.request.priority, job.job_id)

    def choose_device(self, job: Job,
                      free: Sequence["DeviceSlot"],
                      busy: Sequence["DeviceSlot"] = ()
                      ) -> Tuple[Optional["DeviceSlot"], Optional[str]]:
        key = job.plan.design_key
        slices = job.plan.area.slices
        candidates = sorted(free, key=lambda d: d.index)
        resident = [d for d in candidates if d.has_resident(key)]
        if resident:
            return resident[0], "resident"
        fitting = [d for d in candidates
                   if d.spare_slices >= slices]
        if fitting:
            return min(fitting, key=lambda d: (d.spare_slices - slices,
                                               d.index)), "best-fit"
        holder = next((d for d in busy if d.has_resident(key)), None)
        if holder is not None:
            # Wait for the blade that already holds the design.
            return None, (f"job {job.job_id} waiting for {holder.name} "
                          f"(holds {key})")
        evictable = [d for d in candidates if d.can_ever_hold(slices)]
        if evictable:
            return max(evictable, key=lambda d: (d.spare_slices,
                                                 -d.index)), "evict-lru"
        return None, None


POLICIES: Dict[str, Callable[[], SchedulingPolicy]] = {
    FifoPolicy.name: FifoPolicy,
    ShortestJobFirstPolicy.name: ShortestJobFirstPolicy,
    EarliestDeadlinePolicy.name: EarliestDeadlinePolicy,
    AreaAwarePolicy.name: AreaAwarePolicy,
}


def make_policy(name: str) -> SchedulingPolicy:
    """Instantiate a policy by name (see :data:`POLICIES`)."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown scheduling policy {name!r}; "
            f"expected one of {sorted(POLICIES)}") from None
