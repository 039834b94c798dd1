"""Cycle-accurate simulation substrate.

This package provides the discrete-time synchronous simulation kernel on
which every hardware design in this reproduction runs: a two-phase
(evaluate/commit) clocked :class:`~repro.sim.engine.Simulator`, staged
:class:`~repro.sim.signals.Wire` and :class:`~repro.sim.signals.Register`
primitives, bounded FIFOs, fixed-latency pipelines, and a tracing module
for waveform-style observability and occupancy statistics.

The kernel plays the role ModelSim played for the paper's VHDL designs:
all architectural claims (hazard freedom, buffer bounds, latency
formulas) are *executed* on this substrate rather than merely computed.

:mod:`repro.sim.fast` holds what the calibrated fast mode
(``--sim-mode fast``) replays: the reduction circuit's recorded
schedules, proven byte-identical to this substrate by the differential
harness.  Each BLAS design runs both modes behind its own
``run(..., sim_mode=)`` and imports that module; it is imported on
demand (``from repro.sim import fast``) rather than here.
"""

from repro.sim.engine import Component, Simulator, SimulationError
from repro.sim.signals import (
    BoundedFifo,
    FifoOverflowError,
    Pipeline,
    Register,
    Wire,
)
from repro.sim.trace import Tracer, UtilizationCounter

__all__ = [
    "Component",
    "Simulator",
    "SimulationError",
    "Wire",
    "Register",
    "BoundedFifo",
    "FifoOverflowError",
    "Pipeline",
    "Tracer",
    "UtilizationCounter",
]
