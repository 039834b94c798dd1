"""Request coalescing: align same-shape gemm arrivals into one pass.

The executor already batches same-shape gemm jobs — but only the ones
*pending together* when the lead job dispatches.  Arrivals spread over
a few hundred microseconds of virtual time miss each other: the first
one grabs a blade alone and everyone pays the pass-fixed overhead
again.  The coalescer closes that gap at the service layer: gemm
submissions with identical design shape arriving within a short hold
window are released together (at the *latest* member's arrival time —
never earlier than a request actually arrived, so causality holds),
which lets the executor's batching amortize startup/drain/output
across the whole group.  Non-gemm calls pass through untouched; the
hold window bounds the extra latency any coalesced call can pay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple


@dataclass
class CoalesceStats:
    """What one epoch's coalescing pass did."""

    groups: int = 0
    #: Requests whose release time moved (group followers + leads
    #: of multi-member groups).
    coalesced_requests: int = 0
    #: Largest group formed.
    max_group: int = 0


def gemm_shape_key(spec: Mapping) -> Tuple:
    """Design identity for coalescing — must match the executor's
    batching key, which compares operand shapes, k and m."""
    return (spec.get("n"), spec.get("k"), spec.get("m"))


def coalesce(entries: Sequence[Tuple[float, Mapping]],
             window: float) -> Tuple[List[float], CoalesceStats]:
    """Compute release times for one epoch's admitted calls.

    ``entries`` is ``(arrival_time, call_spec)`` in arrival order;
    ``window`` is the hold window in virtual seconds.  Returns a
    release time per entry (same order) plus stats.  Single-blade gemm
    calls with equal :func:`gemm_shape_key` whose arrivals fall within
    ``window`` of the group's first member are released together at
    the group's last arrival; everything else keeps its arrival time.
    A ``window`` of 0 disables coalescing.
    """
    if window < 0.0:
        raise ValueError("window must be non-negative")
    release = [float(at) for at, _ in entries]
    stats = CoalesceStats()
    if window == 0.0:
        return release, stats
    groups: List[List[int]] = []
    open_group: Dict[Tuple, int] = {}
    group_opened: Dict[Tuple, float] = {}
    for index, (at, spec) in enumerate(entries):
        if (spec.get("operation") != "gemm"
                or spec.get("blades", 1) > 1):
            continue
        key = gemm_shape_key(spec)
        slot = open_group.get(key)
        if slot is not None and at <= group_opened[key] + window:
            groups[slot].append(index)
        else:
            # A late same-shape arrival closes the stale group and
            # opens a fresh one; the closed group still coalesces.
            open_group[key] = len(groups)
            group_opened[key] = at
            groups.append([index])
    for members in groups:
        stats.groups += 1
        stats.max_group = max(stats.max_group, len(members))
        if len(members) < 2:
            continue
        held_until = max(release[i] for i in members)
        for i in members:
            release[i] = held_until
        stats.coalesced_requests += len(members)
    return release, stats
