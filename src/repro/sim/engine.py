"""Synchronous cycle-accurate simulation engine.

The engine models a single clock domain.  Every cycle proceeds in two
phases, mirroring synchronous digital logic:

1. **evaluate** — every registered :class:`Component` observes the
   *current* values of all wires/registers (the state at the active clock
   edge) and stages its outputs.
2. **commit** — all staged values become current simultaneously.

Because reads always observe pre-edge state, component evaluation order
within a cycle is irrelevant, exactly as in an RTL simulator.  This is
what lets the reduction circuit's adder-feedback loop and the matrix
multiply PE chain be expressed without delta-cycle machinery.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional


class SimulationError(RuntimeError):
    """Raised when a design violates a structural invariant at runtime.

    Examples: writing a full bounded FIFO, issuing into a busy pipeline
    slot, or a watchdog expiry in :meth:`Simulator.run`.
    """


class Component:
    """Base class for clocked hardware components.

    Subclasses override :meth:`evaluate` (combinational logic reading
    pre-edge state and staging post-edge state) and optionally
    :meth:`commit` (for components that keep private staged state rather
    than using :class:`~repro.sim.signals.Wire`).
    """

    #: Human-readable instance name (used by tracers and error messages).
    name: str = "component"

    def evaluate(self, cycle: int) -> None:
        """Observe pre-edge state and stage next-state.  Default: no-op."""

    def commit(self, cycle: int) -> None:
        """Make staged state current.  Default: no-op."""


class Simulator:
    """Single-clock-domain cycle simulator.

    Components and staged signals are registered once; :meth:`step`
    advances the clock by one cycle, :meth:`run` advances until a
    predicate is satisfied or a watchdog expires.
    """

    def __init__(self) -> None:
        self.cycle: int = 0
        self._components: List[Component] = []
        self._commitables: List[Callable[[], None]] = []
        self._monitors: List[Callable[[int], None]] = []

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add(self, component: Component) -> Component:
        """Register a component; returns it for chaining."""
        self._components.append(component)
        return component

    def add_all(self, components: Iterable[Component]) -> None:
        for component in components:
            self.add(component)

    def register_commit(self, fn: Callable[[], None]) -> None:
        """Register a bare commit callback (used by Wire/Register)."""
        self._commitables.append(fn)

    def add_monitor(self, fn: Callable[[int], None]) -> None:
        """Register a per-cycle observer, called after commit each cycle."""
        self._monitors.append(fn)

    # ------------------------------------------------------------------
    # clocking
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the design by one clock cycle (evaluate then commit)."""
        cycle = self.cycle
        for component in self._components:
            component.evaluate(cycle)
        for component in self._components:
            component.commit(cycle)
        for fn in self._commitables:
            fn()
        self.cycle = cycle + 1
        for monitor in self._monitors:
            monitor(cycle)

    def run(
        self,
        until: Optional[Callable[[], bool]] = None,
        max_cycles: int = 10_000_000,
    ) -> int:
        """Run until ``until()`` is true (checked after each cycle).

        Returns the number of cycles executed in this call.  Raises
        :class:`SimulationError` if the watchdog ``max_cycles`` expires
        first — a liveness failure in the design under test.
        """
        executed = 0
        while executed < max_cycles:
            self.step()
            executed += 1
            if until is not None and until():
                return executed
        if until is None:
            return executed
        raise SimulationError(
            f"watchdog expired after {max_cycles} cycles at cycle "
            f"{self.cycle}; design failed to reach completion condition"
        )
