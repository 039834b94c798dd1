"""Declarative SLOs with multi-window burn-rate evaluation.

An :class:`SloSpec` states objectives the serving stack must hold —
p99 latency under a bound, error/reject ratios inside an error
budget, no starved tenant, plan-vs-actual drift inside its documented
band — and :class:`SloMonitor` evaluates them *incrementally*: every
observation lands in O(windows) sliding :class:`~repro.obs.metrics
.RateWindow` rings, so a soak run's SLO state is O(1) no matter how
many requests flow through.

Alerting is multi-window burn rate (the SRE playbook): each objective
watches one or more ``(window, burn_rate)`` pairs and breaches only
when **every** window burns its error budget faster than its
``burn_rate`` — the long window keeps one bad epoch from paging, the
short window makes a real regression trip fast.  A latency objective
is a ratio objective in disguise: a request is *bad* when its latency
exceeds ``threshold``, and the budget is ``1 − quantile`` (p99 bound
→ 1 % of requests may be slower).  A zero budget (drift's default)
burns on any bad event.

On the ok→breached transition the monitor emits a ``slo.breach``
instant into the service trace and triggers the flight recorder's
breach dump, so the requests *around* the breach are retained; the
machine-readable :meth:`SloMonitor.verdict` is what ``repro serve
--slo-strict`` and CI gate on.

All timestamps are virtual (or hybrid) clock seconds from the caller;
nothing here reads wall time, so verdicts replay byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.drift import DEFAULT_THRESHOLDS
from repro.obs.metrics import RateWindow

__all__ = [
    "KINDS",
    "BurnWindow",
    "SloObjective",
    "SloSpec",
    "SloMonitor",
]

#: Objective kinds the monitor evaluates.
KINDS = ("latency", "error_ratio", "reject_ratio", "starvation",
         "drift")

#: Default evaluation windows (virtual seconds): a fast 0.25 s window
#: at 4× burn plus a slow 2 s window at 1× — both must burn to breach.
DEFAULT_WINDOWS: Tuple[Tuple[float, float], ...] = ((0.25, 4.0),
                                                    (2.0, 1.0))


@dataclass(frozen=True)
class BurnWindow:
    """One evaluation window: breach contribution when the bad-event
    ratio over ``seconds`` exceeds ``burn_rate × budget``."""

    seconds: float
    burn_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.seconds <= 0.0:
            raise ValueError("window seconds must be positive")
        if self.burn_rate <= 0.0:
            raise ValueError("burn_rate must be positive")


@dataclass(frozen=True)
class SloObjective:
    """One declarative objective.

    ``kind`` semantics:

    * ``latency`` — bad = completed request slower than ``threshold``
      seconds; budget defaults to ``1 − quantile`` (p99 → 0.01).
    * ``error_ratio`` — bad = failed request; ``budget`` is the
      allowed failure ratio.
    * ``reject_ratio`` — bad = rejected submission; ``budget`` is the
      allowed reject ratio.
    * ``starvation`` — breach when some tenant had admissions but no
      completions over every window (threshold/budget unused).
    * ``drift`` — bad = a job whose |plan-vs-actual relative error|
      exceeds ``threshold``; budget defaults to 0 (any drifting job
      burns).  ``operation`` restricts which jobs are watched.
    """

    name: str
    kind: str
    threshold: Optional[float] = None
    budget: Optional[float] = None
    quantile: float = 0.99
    operation: Optional[str] = None
    windows: Tuple[BurnWindow, ...] = tuple(
        BurnWindow(seconds, burn) for seconds, burn in DEFAULT_WINDOWS)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("objective name must be non-empty")
        if self.kind not in KINDS:
            raise ValueError(
                f"kind must be one of {KINDS}, got {self.kind!r}")
        if not self.windows:
            raise ValueError("objective needs at least one window")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        if self.kind == "latency":
            if self.threshold is None or self.threshold <= 0.0:
                raise ValueError(
                    "latency objective needs a positive threshold "
                    "(seconds)")
        elif self.kind in ("error_ratio", "reject_ratio"):
            if self.budget is None:
                raise ValueError(
                    f"{self.kind} objective needs a budget (allowed "
                    "bad-event ratio)")
        elif self.kind == "drift":
            if self.threshold is None or self.threshold < 0.0:
                raise ValueError(
                    "drift objective needs a non-negative threshold "
                    "(relative error bound)")
        if self.budget is not None and not 0.0 <= self.budget <= 1.0:
            raise ValueError("budget must be in [0, 1]")

    @property
    def effective_budget(self) -> float:
        if self.budget is not None:
            return self.budget
        if self.kind == "latency":
            return 1.0 - self.quantile
        return 0.0

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "windows": [{"seconds": w.seconds,
                         "burn_rate": w.burn_rate}
                        for w in self.windows],
        }
        if self.threshold is not None:
            out["threshold"] = self.threshold
        out["budget"] = self.effective_budget
        if self.kind == "latency":
            out["quantile"] = self.quantile
        if self.operation is not None:
            out["operation"] = self.operation
        if self.description:
            out["description"] = self.description
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SloObjective":
        if not isinstance(data, Mapping):
            raise ValueError("objective must be a JSON object")
        known = {"name", "kind", "threshold", "budget", "quantile",
                 "operation", "windows", "description"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown objective field(s): {sorted(unknown)}")
        windows: Tuple[BurnWindow, ...] = tuple(
            BurnWindow(seconds, burn) for seconds, burn
            in DEFAULT_WINDOWS)
        raw_windows = data.get("windows")
        if raw_windows is not None:
            if not isinstance(raw_windows, Sequence) \
                    or isinstance(raw_windows, (str, bytes)):
                raise ValueError("windows must be an array")
            built: List[BurnWindow] = []
            for entry in raw_windows:
                if isinstance(entry, Mapping):
                    built.append(BurnWindow(
                        seconds=float(entry["seconds"]),
                        burn_rate=float(entry.get("burn_rate", 1.0))))
                else:
                    built.append(BurnWindow(seconds=float(entry)))
            windows = tuple(built)
        return cls(
            name=str(data.get("name", "")),
            kind=str(data.get("kind", "")),
            threshold=(None if data.get("threshold") is None
                       else float(data["threshold"])),
            budget=(None if data.get("budget") is None
                    else float(data["budget"])),
            quantile=float(data.get("quantile", 0.99)),
            operation=data.get("operation"),
            windows=windows,
            description=str(data.get("description", "")))


@dataclass(frozen=True)
class SloSpec:
    """A set of objectives, loadable from JSON (``repro serve
    --slo-spec objectives.json``)."""

    objectives: Tuple[SloObjective, ...] = ()

    def __post_init__(self) -> None:
        names = [o.name for o in self.objectives]
        if len(names) != len(set(names)):
            raise ValueError("objective names must be unique")

    def to_dict(self) -> Dict[str, Any]:
        return {"objectives": [o.to_dict() for o in self.objectives]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SloSpec":
        if not isinstance(data, Mapping):
            raise ValueError("SLO spec must be a JSON object")
        unknown = set(data) - {"objectives"}
        if unknown:
            raise ValueError(
                f"unknown spec field(s): {sorted(unknown)}")
        raw = data.get("objectives", [])
        if not isinstance(raw, Sequence) or isinstance(raw,
                                                       (str, bytes)):
            raise ValueError("objectives must be an array")
        return cls(objectives=tuple(SloObjective.from_dict(entry)
                                    for entry in raw))

    @classmethod
    def from_file(cls, path: str) -> "SloSpec":
        with open(path) as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path} is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def drift_spec(cls,
                   thresholds: Optional[Mapping[str, float]] = None,
                   window: float = 2.0) -> "SloSpec":
        """The documented plan-vs-actual drift bands as objectives —
        one per kernel, thresholds from
        :data:`repro.obs.drift.DEFAULT_THRESHOLDS` (the single source
        of truth: spmxv keeps its 10 % band because its flush schedule
        is data-dependent; see docs/observability.md)."""
        bounds = dict(DEFAULT_THRESHOLDS)
        if thresholds:
            bounds.update(thresholds)
        return cls(objectives=tuple(
            SloObjective(
                name=f"drift-{operation}", kind="drift",
                threshold=bound, operation=operation,
                windows=(BurnWindow(window),),
                description=(f"|plan − actual| / actual of {operation}"
                             f" stays within {bound:.0%}"))
            for operation, bound in sorted(bounds.items())))


@dataclass
class _ObjectiveState:
    """Live evaluation state of one objective."""

    objective: SloObjective
    #: Per burn window: (bad events, total events).
    bad: Dict[float, RateWindow] = field(default_factory=dict)
    total: Dict[float, RateWindow] = field(default_factory=dict)
    #: Starvation only: tenant → per-window (admitted, completed).
    admitted: Dict[str, Dict[float, RateWindow]] = \
        field(default_factory=dict)
    completed: Dict[str, Dict[float, RateWindow]] = \
        field(default_factory=dict)
    breached: bool = False
    breaches: int = 0
    last_breach_ts: Optional[float] = None
    last_burn: Dict[str, float] = field(default_factory=dict)


class SloMonitor:
    """Incremental evaluator of an :class:`SloSpec`.

    Feed it observations (:meth:`observe_submit`,
    :meth:`observe_result`, :meth:`observe_drift`) and call
    :meth:`evaluate` at natural checkpoints (the serve layer does so
    after every epoch); breach *transitions* emit ``slo.breach`` /
    ``slo.recover`` instants into ``recorder`` and call
    ``flight.on_breach`` so the surrounding exemplars are retained.
    """

    def __init__(self, spec: SloSpec, recorder: Optional[Any] = None,
                 flight: Optional[Any] = None) -> None:
        self.spec = spec
        self.recorder = recorder
        self.flight = flight
        self._states: Dict[str, _ObjectiveState] = {}
        self._now = 0.0
        for objective in spec.objectives:
            state = _ObjectiveState(objective=objective)
            if objective.kind != "starvation":
                for window in objective.windows:
                    state.bad[window.seconds] = \
                        RateWindow(window.seconds)
                    state.total[window.seconds] = \
                        RateWindow(window.seconds)
            self._states[objective.name] = state

    # -- feeding ---------------------------------------------------------
    def _tenant_windows(self, state: _ObjectiveState,
                        table: Dict[str, Dict[float, RateWindow]],
                        tenant: str) -> Dict[float, RateWindow]:
        windows = table.get(tenant)
        if windows is None:
            windows = {w.seconds: RateWindow(w.seconds)
                       for w in state.objective.windows}
            table[tenant] = windows
        return windows

    def observe_submit(self, ts: float, tenant: Optional[str],
                       rejected: bool = False) -> None:
        """One admission decision (admitted or rejected)."""
        self._now = max(self._now, ts)
        for state in self._states.values():
            kind = state.objective.kind
            if kind == "reject_ratio":
                for window in state.total.values():
                    window.add(ts)
                if rejected:
                    for window in state.bad.values():
                        window.add(ts)
            elif kind == "starvation" and tenant and not rejected:
                for window in self._tenant_windows(
                        state, state.admitted, tenant).values():
                    window.add(ts)

    def observe_result(self, ts: float, tenant: Optional[str],
                       latency_seconds: Optional[float] = None,
                       failed: bool = False,
                       rejected: bool = False) -> None:
        """One executed request's outcome at service-absolute time
        ``ts`` (epoch start + the job's virtual finish time)."""
        self._now = max(self._now, ts)
        for state in self._states.values():
            kind = state.objective.kind
            if kind == "error_ratio":
                for window in state.total.values():
                    window.add(ts)
                if failed:
                    for window in state.bad.values():
                        window.add(ts)
            elif kind == "reject_ratio" and rejected:
                # Runtime-side rejects (queue_full, capacity_lost)
                # burn the same budget as admission rejects; their
                # submissions were already counted in total.
                for window in state.bad.values():
                    window.add(ts)
            elif kind == "latency" and latency_seconds is not None \
                    and not failed and not rejected:
                for window in state.total.values():
                    window.add(ts)
                if latency_seconds > state.objective.threshold:
                    for window in state.bad.values():
                        window.add(ts)
            elif kind == "starvation" and tenant and not failed \
                    and not rejected:
                for window in self._tenant_windows(
                        state, state.completed, tenant).values():
                    window.add(ts)

    def observe_drift(self, ts: float, operation: str,
                      rel_error: float) -> None:
        """One job's plan-vs-actual relative error."""
        self._now = max(self._now, ts)
        for state in self._states.values():
            objective = state.objective
            if objective.kind != "drift":
                continue
            if objective.operation is not None \
                    and objective.operation != operation:
                continue
            for window in state.total.values():
                window.add(ts)
            if abs(rel_error) > objective.threshold:
                for window in state.bad.values():
                    window.add(ts)

    # -- evaluation ------------------------------------------------------
    def _window_burning(self, state: _ObjectiveState,
                        window: BurnWindow, now: float) -> bool:
        objective = state.objective
        if objective.kind == "starvation":
            for tenant, admitted in state.admitted.items():
                if admitted[window.seconds].sum(now) <= 0.0:
                    continue
                completed = state.completed.get(tenant)
                if completed is None \
                        or completed[window.seconds].sum(now) <= 0.0:
                    return True
            return False
        total = state.total[window.seconds].sum(now)
        if total <= 0.0:
            return False
        ratio = state.bad[window.seconds].sum(now) / total
        budget = objective.effective_budget
        if budget <= 0.0:
            return ratio > 0.0
        return ratio > window.burn_rate * budget

    def evaluate(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Re-evaluate every objective at virtual time ``now``
        (defaults to the latest observation); returns the verdict.

        Emits ``slo.breach`` / ``slo.recover`` instants and breach
        dumps on transitions only, so a sustained breach is one trace
        event, not one per evaluation."""
        now = self._now if now is None else max(self._now, now)
        self._now = now
        for state in self._states.values():
            objective = state.objective
            burning = [self._window_burning(state, window, now)
                       for window in objective.windows]
            state.last_burn = {
                f"{window.seconds:g}s": bool(hot)
                for window, hot in zip(objective.windows, burning)}
            breached_now = all(burning)
            if breached_now and not state.breached:
                state.breaches += 1
                state.last_breach_ts = now
                if self.recorder is not None:
                    self.recorder.instant(
                        "slo.breach", cat="slo", track="slo", ts=now,
                        args={"objective": objective.name,
                              "kind": objective.kind,
                              "windows": dict(state.last_burn)})
                if self.flight is not None:
                    self.flight.on_breach(objective.name, now)
            elif state.breached and not breached_now \
                    and self.recorder is not None:
                self.recorder.instant(
                    "slo.recover", cat="slo", track="slo", ts=now,
                    args={"objective": objective.name})
            state.breached = breached_now
        return self.verdict()

    def verdict(self) -> Dict[str, Any]:
        """Machine-readable outcome: ``ok`` is True only when no
        objective has *ever* breached — the CI gate."""
        objectives = {}
        for name in sorted(self._states):
            state = self._states[name]
            objectives[name] = {
                "kind": state.objective.kind,
                "budget": state.objective.effective_budget,
                "breached_now": state.breached,
                "breaches": state.breaches,
                "last_breach_ts": state.last_breach_ts,
                "windows_burning": dict(state.last_burn),
            }
        breached = [name for name, entry in objectives.items()
                    if entry["breaches"]]
        return {
            "ok": not breached,
            "breached": breached,
            "evaluated_at": self._now,
            "objectives": objectives,
        }
