"""Common interface and driver utilities for reduction circuits.

A reduction circuit consumes a stream of ``p`` input *sets* delivered
one value per clock cycle (set ``i`` has ``sᵢ`` values, arbitrary
positive integers, sets back to back) and must produce, for each set,
the sum of its values.  Circuits are driven cycle by cycle:

* ``cycle(value, last)`` — advance one clock with an input value
  (``last`` marks the final value of the current set); returns ``True``
  if the value was accepted, ``False`` if the circuit stalled the
  producer this cycle (the caller must re-offer the same value).
* ``cycle()`` — advance one clock with no input (bubble / flush).
* ``results`` — completed ``(set_id, value, cycle)`` records.
* ``busy()`` — whether any partial state remains in flight.

``cycle`` stays the per-cycle protocol every circuit implements, and
the drivers that interleave the circuit with other per-cycle state use
it.  The paper's circuit also takes a whole feed at once:
:meth:`repro.reduction.single_adder.SingleAdderReduction.run` steps a
list of ``None``/``(value, last)`` entries in one loop, and its
``cycle`` is a one-entry ``run``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Protocol, Sequence, Tuple


@dataclass(frozen=True)
class ReducedResult:
    """One completed set reduction."""

    set_id: int
    value: float
    cycle: int


@dataclass
class ReductionStats:
    """Aggregate counters every circuit maintains."""

    cycles: int = 0
    inputs_accepted: int = 0
    input_stall_cycles: int = 0
    adder_issues: int = 0
    max_buffer_occupancy: int = 0

    def adder_utilization(self) -> float:
        return self.adder_issues / self.cycles if self.cycles else 0.0


class ReductionCircuit(Protocol):
    """Structural interface implemented by every reduction circuit."""

    #: Number of floating-point adders the circuit instantiates.
    num_adders: int
    #: Buffer capacity in words.
    buffer_words: int
    stats: ReductionStats
    results: List[ReducedResult]

    def cycle(self, value: Optional[float] = None, last: bool = False) -> bool:
        """Advance one clock; returns False when the input was stalled."""
        ...

    def busy(self) -> bool:
        ...


def stream_sets(sets: Sequence[Sequence[float]]
                ) -> Iterator[Tuple[float, bool]]:
    """Flatten sets into the (value, last-of-set) wire protocol."""
    for values in sets:
        if len(values) == 0:
            raise ValueError("input sets must be non-empty")
        for index, value in enumerate(values):
            yield float(value), index == len(values) - 1
