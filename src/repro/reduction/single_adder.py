"""The paper's reduction circuit (Section 4.3, Figure 6).

One pipelined floating-point adder (α stages) and two buffers of α²
words each reduce multiple sequentially-delivered input sets of
arbitrary size, one value per cycle, without stalling the producer, in
fewer than ``Σ sᵢ + 2α²`` cycles total.

**Reconstruction note.**  The paper defers the buffer schedule and
proofs to an unpublished report [29]; this module implements a
schedule that satisfies every property the paper states.  The mapping
to Figure 6:

* Two physical buffers (banks) of α² words.  One bank is the *fill*
  bank (``Buf_in``): each arriving set reserves a lane of α words in
  it.  A set with ``s ≤ α`` values simply stores them; a set with
  ``s > α`` stores its first α values and *folds* every further value
  into the lane cyclically through the adder — slot ``p`` is touched
  every α-th fold, so the previous fold's result leaves the adder
  exactly when the slot is next read (forwarding, no RAW hazard).
  Because a lane never grows past α words, **no set ever straddles a
  bank swap**.
* When the fill bank cannot reserve a lane for a new set, the roles
  swap (the other bank has been drained by then — see the accounting
  below) — Figure 6's ``Buf_in``/``Buf_red`` alternation.
* The *drain* side (``Buf_red``) reduces closed sets with the adder
  during exactly those cycles in which the adder is not claimed by a
  fold — the paper's collision-free sharing rule ("the adder reads
  from Buf_red only when Buf_in is accepting new inputs").  Within a
  closed set we pair any two landed values per issue (a pairwise tree
  rather than the paper's column-interleaved sequential walk): operands
  are consumed at issue and the result is a fresh value, so *no*
  read-after-write hazard can occur by construction, with the same
  ``c − 1`` additions per set.

**Stall-freedom accounting** (tested property, see DESIGN.md): a bank
holds at most α² words, so the drain work parked in it is at most
``α² − (number of its sets)`` additions, while filling the other bank
supplies at least ``α² − α + 1`` adder-free cycles (one per stored
word) before the next swap is needed.  Hence the drained bank is empty
by swap time and the producer never observes back-pressure; the final
flush after the last input costs at most ~2α² cycles, giving the
paper's total-latency bound.

**One loop.**  :meth:`SingleAdderReduction.run` is the controller: it
steps a whole per-cycle feed (``None`` for a bubble, otherwise
``(value, last)``) in one loop that keeps the controller state in
locals.  :meth:`~SingleAdderReduction.cycle` is a one-entry ``run``
and :meth:`~SingleAdderReduction.flush` runs its bubbles through it,
so the stepped kernels, the per-cycle drivers and the schedules that
:mod:`repro.sim.fast` records all execute the same decisions.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

from repro.fparith.softfloat import float_add
from repro.reduction.base import ReducedResult, ReductionStats
from repro.sim.engine import SimulationError

#: What reaches the circuit in one cycle: ``None`` (a bubble) or
#: ``(value, last)``, where ``last`` closes the value's set.
FeedEntry = Optional[Tuple[float, bool]]


class HazardError(SimulationError):
    """An adder operand was read while its producing op was in flight.

    The schedule makes this impossible by construction; the check is a
    self-diagnostic against controller bugs.
    """


class _SetState:
    """Controller state for one input set."""

    __slots__ = ("set_id", "bank", "slots", "writes", "fold_pos",
                 "inflight", "closed", "bag")

    def __init__(self, set_id: int, bank: int) -> None:
        self.set_id = set_id
        self.bank = bank
        # Lane contents during the fill/fold phase; None = fold in flight.
        self.slots: List[Optional[float]] = []
        self.writes = 0
        self.fold_pos = 0
        self.inflight = 0
        self.closed = False
        # Bag of landed values once closed (order-free drain pool).
        self.bag: List[float] = []


class SingleAdderReduction:
    """The paper's single-adder, two-α²-buffer reduction circuit.

    Parameters
    ----------
    alpha:
        Pipeline depth of the floating-point adder (Table 2: 14).
    exact:
        Use the integer softfloat adder instead of the (bit-identical)
        host FPU.
    """

    def __init__(self, alpha: int = 14, exact: bool = False,
                 drain_policy: str = "most-work",
                 op: Optional[Callable[[float, float], float]] = None) -> None:
        """``drain_policy`` selects which closed set the drain side
        serves when several have pairable values: ``"most-work"``
        (default; minimizes the flush makespan and is what the
        latency-bound analysis assumes) or ``"fifo"`` (emit-in-order
        bias; ablated in ``benchmarks/test_ablation_reduction.py``).

        ``op`` overrides the adder combine function.  The controller's
        decisions are value-independent, so an instrumented ``op``
        observes the exact association schedule — this is how
        :mod:`repro.sim.fast` records a reduction program once and
        replays it vectorized."""
        if alpha < 2:
            raise ValueError("adder pipeline depth must be >= 2")
        if drain_policy not in ("most-work", "fifo"):
            raise ValueError(f"unknown drain policy {drain_policy!r}")
        self.drain_policy = drain_policy
        self.alpha = alpha
        self.num_adders = 1
        self.buffer_words = 2 * alpha * alpha
        if op is not None:
            self._op: Callable[[float, float], float] = op
        else:
            self._op = float_add if exact else (lambda a, b: a + b)
        # α-slot adder pipeline as a ring: ``_adder[_head]`` is the op
        # issued α cycles ago, as ``(set, lane slot or -1 for a drain,
        # result)``, or None.
        self._adder: List[Optional[tuple]] = [None] * alpha
        self._head = 0
        self._bank_free = [alpha * alpha, alpha * alpha]
        self._fill_bank = 0
        self._current: Optional[_SetState] = None
        self._closed: List[_SetState] = []
        self._next_set_id = 0
        self._cycle = 0
        self.results: List[ReducedResult] = []
        self.stats = ReductionStats()

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Buffer words currently committed (including reservations)."""
        return self.buffer_words - self._bank_free[0] - self._bank_free[1]

    def busy(self) -> bool:
        return (self._current is not None
                or bool(self._closed)
                or any(op is not None for op in self._adder))

    # ------------------------------------------------------------------
    def cycle(self, value: Optional[float] = None, last: bool = False) -> bool:
        """Advance one clock cycle.  Returns False on input stall."""
        entry = None if value is None else (float(value), last)
        return self.run((entry,)) == 1

    def flush(self, max_cycles: int = 1_000_000) -> int:
        """Run bubbles until all sets are emitted; returns cycles used."""
        def bubbles() -> Iterable[FeedEntry]:
            # Bubbles leave the open set alone, and run's loop shares
            # the closed list and the adder ring, so busy() is current
            # between them.
            for _ in range(max_cycles):
                if not self.busy():
                    return
                yield None

        used = self.run(bubbles())
        if self.busy():
            raise SimulationError(
                f"reduction circuit failed to drain within {max_cycles} "
                f"cycles"
            )
        return used

    def run(self, feed: Iterable[FeedEntry]) -> int:
        """Advance one clock cycle per entry of ``feed`` and return the
        number of entries consumed.

        An entry is ``None`` (a bubble) or ``(value, last)``: the value
        arrives, and ``last`` closes its set.  A value that finds no
        free lane in either bank stalls its cycle; the cycle still runs
        in full, ``run`` returns without consuming that entry, and the
        caller re-offers it.  Each cycle, in order:

        1. the adder output issued α cycles ago lands: a fold result
           goes back into its lane slot, anything else into its closed
           set's bag, and a set left with one value and nothing in
           flight emits;
        2. the input side stores the value in its set's lane (fill) or,
           once the lane holds α values, folds it into the lane slot it
           next cycles to, which claims the adder; a new set first
           reserves an α-word lane in ``Buf_in``, swapping the banks'
           roles when ``Buf_in`` is full;
        3. if no fold claimed the adder, the drain side pairs two landed
           values of a closed set: the one with the most values in its
           bag and in flight (the first in close order on ties), or
           under ``"fifo"`` the first with two landed values.

        The controller state stays in locals for the whole feed, so a
        long feed costs no method call per cycle.
        """
        alpha = self.alpha
        op = self._op
        fifo = self.drain_policy == "fifo"
        ring = self._adder
        head = self._head
        bank_free = self._bank_free
        fill = self._fill_bank
        current = self._current
        closed = self._closed
        results = self.results
        next_id = self._next_set_id
        capacity = self.buffer_words
        stats = self.stats
        peak = stats.max_buffer_occupancy
        start = now = self._cycle
        accepted = issues = 0
        stalled = False
        for entry in feed:
            now += 1
            landed = ring[head]
            if landed is not None:
                state, pos, result = landed
                state.inflight -= 1
                if pos >= 0 and not state.closed:
                    state.slots[pos] = result
                else:
                    # A drain result, or a fold that landed after its
                    # set closed.
                    bag = state.bag
                    bag.append(result)
                    if not state.inflight and len(bag) == 1:
                        bank_free[state.bank] += 1  # the final value's slot
                        results.append(
                            ReducedResult(state.set_id, bag[0], now))
                        state.bag = []
                        closed.remove(state)

            issued = None
            if entry is not None:
                if current is None:
                    if bank_free[fill] < alpha <= bank_free[1 - fill]:
                        # Buf_in is full: swap roles (Figure 6's buffer
                        # alternation).
                        fill = 1 - fill
                    if bank_free[fill] >= alpha:
                        bank_free[fill] -= alpha
                        current = _SetState(next_id, fill)
                        next_id += 1
                stalled = current is None
                if not stalled:
                    state = current
                    value, last = entry
                    accepted += 1
                    writes = state.writes
                    slots = state.slots
                    if writes < alpha:
                        # Fill phase: store the value; the adder stays
                        # free this cycle for the drain side (the
                        # paper's sharing rule).
                        slots.append(value)
                    else:
                        # Fold phase: combine with the lane slot,
                        # cyclically.
                        pos = state.fold_pos
                        operand = slots[pos]
                        if operand is None:
                            raise HazardError(
                                f"set {state.set_id}: fold slot {pos} read "
                                f"while its previous fold is still in the "
                                f"adder pipeline"
                            )
                        slots[pos] = None
                        state.inflight += 1
                        state.fold_pos = pos + 1 if pos + 1 < alpha else 0
                        issued = (state, pos, op(value, operand))
                    state.writes = writes + 1
                    if last:
                        # Release the unused part of the lane.
                        if writes + 1 < alpha:
                            bank_free[state.bank] += alpha - writes - 1
                        state.closed = True
                        bag = state.bag = [v for v in slots if v is not None]
                        state.slots = []
                        current = None
                        if not state.inflight and len(bag) == 1:
                            bank_free[state.bank] += 1
                            results.append(
                                ReducedResult(state.set_id, bag[0], now))
                            state.bag = []
                        else:
                            closed.append(state)

            if issued is None and closed:
                # Drain side: pair two landed values of a closed set
                # (work-conserving, hazard-free by construction).
                best = None
                most = 0
                for state in closed:
                    size = len(state.bag)
                    if size < 2:
                        continue
                    if fifo:
                        best = state
                        break
                    if best is None or size + state.inflight > most:
                        best = state
                        most = size + state.inflight
                if best is not None:
                    bag = best.bag
                    a = bag.pop()
                    b = bag.pop()
                    best.inflight += 1
                    # Two operand slots free now; one is retained for
                    # the result.
                    bank_free[best.bank] += 1
                    issued = (best, -1, op(a, b))
            if issued is not None:
                issues += 1
            ring[head] = issued
            head = head + 1 if head + 1 < alpha else 0
            occupancy = capacity - bank_free[0] - bank_free[1]
            if occupancy > peak:
                peak = occupancy
            if stalled:
                break

        self._head = head
        self._fill_bank = fill
        self._current = current
        self._next_set_id = next_id
        self._cycle = now
        stats.cycles += now - start
        stats.inputs_accepted += accepted
        stats.input_stall_cycles += stalled
        stats.adder_issues += issues
        stats.max_buffer_occupancy = peak
        return now - start - stalled
