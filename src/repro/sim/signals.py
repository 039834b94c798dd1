"""Staged signal primitives: wires, registers, FIFOs and pipelines.

All primitives follow the engine's two-phase discipline: reads observe
pre-edge state; writes stage post-edge state that becomes visible only
after the simulator commits the cycle.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generic, List, Optional, Tuple, TypeVar

from repro.sim.engine import SimulationError, Simulator

T = TypeVar("T")

_UNSET = object()


class Wire(Generic[T]):
    """A staged signal.  ``value`` is the pre-edge value; ``set`` stages
    the post-edge value.  Unwritten wires hold their value (latch
    semantics are avoided in designs; this default merely simplifies
    idle components)."""

    __slots__ = ("name", "_value", "_next")

    def __init__(self, sim: Simulator, name: str, init: T) -> None:
        self.name = name
        self._value: T = init
        self._next: Any = _UNSET
        sim.register_commit(self._commit)

    @property
    def value(self) -> T:
        return self._value

    def set(self, value: T) -> None:
        self._next = value

    def _commit(self) -> None:
        if self._next is not _UNSET:
            self._value = self._next
            self._next = _UNSET


class Register(Wire[T]):
    """Alias of :class:`Wire` with explicit register intent.

    Kept as a distinct type so designs can document which signals are
    architectural state versus inter-component nets.
    """


class FifoOverflowError(SimulationError):
    """A bounded FIFO was written while full — a backpressure bug."""


class BoundedFifo(Generic[T]):
    """Synchronous bounded FIFO with occupancy statistics.

    ``push`` stages a write for this cycle; ``pop`` consumes the oldest
    element (visible same cycle it was committed, i.e. one-cycle
    latency).  Overflow raises rather than silently dropping — in a
    hardware model, a dropped word is a functional bug.
    """

    def __init__(self, sim: Simulator, name: str, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("FIFO capacity must be positive")
        self.name = name
        self.capacity = capacity
        self._items: Deque[T] = deque()
        self._staged: List[T] = []
        self.max_occupancy = 0
        self.total_pushes = 0
        sim.register_commit(self._commit)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) + len(self._staged) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._items

    def push(self, item: T) -> None:
        if self.full:
            raise FifoOverflowError(
                f"FIFO {self.name!r} overflow (capacity {self.capacity})"
            )
        self._staged.append(item)
        self.total_pushes += 1

    def peek(self) -> T:
        return self._items[0]

    def pop(self) -> T:
        return self._items.popleft()

    def _commit(self) -> None:
        if self._staged:
            self._items.extend(self._staged)
            self._staged.clear()
        if len(self._items) > self.max_occupancy:
            self.max_occupancy = len(self._items)


class Pipeline(Generic[T]):
    """A fixed-latency, fully-pipelined shift register.

    Models a hardware pipeline that accepts at most one new item per
    cycle and emits it ``latency`` cycles later.  Empty slots are
    bubbles.  ``issue`` stages an item for the current cycle; ``output``
    is the item leaving the pipeline at the current edge (or ``None``
    for a bubble).  Utilization statistics track occupancy for the
    efficiency analyses in the paper's Section 4.4.
    """

    def __init__(self, sim: Simulator, name: str, latency: int) -> None:
        if latency < 1:
            raise ValueError("pipeline latency must be >= 1")
        self.name = name
        self.latency = latency
        # An item issued during cycle t is the output during cycle
        # t + latency: it spends latency − 1 cycles in interior slots
        # plus one cycle presented at the output register.
        self._slots: Deque[Optional[T]] = deque([None] * (latency - 1),
                                                maxlen=max(1, latency - 1))
        self._staged: Optional[Tuple[T]] = None
        self._output: Optional[T] = None
        self.issued = 0
        self.busy_cycles = 0
        self.total_cycles = 0
        sim.register_commit(self._commit)

    @property
    def output(self) -> Optional[T]:
        """Item leaving the pipeline this cycle (``None`` = bubble)."""
        return self._output

    @property
    def occupancy(self) -> int:
        return sum(1 for s in self._slots if s is not None)

    def issue(self, item: T) -> None:
        """Stage one item to enter the pipeline this cycle."""
        if self._staged is not None:
            raise SimulationError(
                f"pipeline {self.name!r}: double issue in one cycle"
            )
        self._staged = (item,)
        self.issued += 1

    def in_flight(self) -> List[T]:
        """All items currently inside the pipeline, oldest first."""
        return [s for s in self._slots if s is not None]

    def _commit(self) -> None:
        incoming = self._staged[0] if self._staged is not None else None
        self._staged = None
        if self.latency == 1:
            self._output = incoming
        else:
            self._output = self._slots.popleft()
            self._slots.append(incoming)
        self.total_cycles += 1
        if incoming is not None or self._output is not None or self.occupancy:
            self.busy_cycles += 1

    def drained(self) -> bool:
        return self.occupancy == 0 and self._staged is None

    @property
    def utilization(self) -> float:
        """Fraction of elapsed cycles with at least one item in flight."""
        if self.total_cycles == 0:
            return 0.0
        return self.busy_cycles / self.total_cycles
