"""Engine edge paths: watchdog, overflow, double issue.

A malformed design must fail loudly with a precise message.  These
tests pin the error surfaces of the engine and its staged primitives.
"""

import pytest

from repro.sim import (
    BoundedFifo,
    Component,
    FifoOverflowError,
    Pipeline,
    SimulationError,
    Simulator,
)


class _Idle(Component):
    def evaluate(self, cycle):
        pass


class TestWatchdog:
    def test_watchdog_message(self):
        sim = Simulator()
        sim.add(_Idle())
        with pytest.raises(SimulationError) as excinfo:
            sim.run(until=lambda: False, max_cycles=17)
        assert str(excinfo.value) == (
            "watchdog expired after 17 cycles at cycle 17; design "
            "failed to reach completion condition")


class TestFifoOverflow:
    def test_overflow_message(self):
        sim = Simulator()
        fifo = BoundedFifo(sim, "q", capacity=2)
        fifo.push(1)
        fifo.push(2)
        with pytest.raises(FifoOverflowError) as excinfo:
            fifo.push(3)
        assert str(excinfo.value) == "FIFO 'q' overflow (capacity 2)"

    def test_overflow_is_a_simulation_error(self):
        # so harnesses catching SimulationError catch overflow too
        assert issubclass(FifoOverflowError, SimulationError)


class TestDoubleIssue:
    def test_double_issue_message(self):
        sim = Simulator()
        pipe = Pipeline(sim, "mul", latency=3)
        pipe.issue("a")
        with pytest.raises(SimulationError) as excinfo:
            pipe.issue("b")
        assert str(excinfo.value) == (
            "pipeline 'mul': double issue in one cycle")
