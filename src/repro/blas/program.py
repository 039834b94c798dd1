"""Streaming BLAS programs: a DAG of :class:`BlasCall` nodes.

FBLAS-style kernel composition (PAPERS.md): instead of each BLAS call
round-tripping its result through DRAM for the next call to reload, a
:class:`BlasProgram` names the dataflow explicitly — kernel nodes
(dot/gemv/gemm/spmxv) and host nodes (numpy glue such as the AXPY
updates of a solver iteration) joined by edges.  An edge marked
*streamed* flows over the chassis-internal RocketI/O fabric at
:data:`~repro.device.interconnect.INTRA_CHASSIS_WORDS_PER_CYCLE`
words/cycle; an unstreamed edge pays the DRAM round-trip (write the
producer's result back, read it again for the consumer).

The program plans and executes as one unit: ``plan()`` sums the exact
per-node :class:`~repro.blas.api.ExecutionPlan` predictions plus the
edge charges, and ``execute()`` runs the same nodes with the same
charges, so plan == execute stays exact whenever every node's own
predictor is exact.  The runtime (:mod:`repro.runtime`) accepts a
program as one ``"program"`` job, places it as a unit and itemizes
its streamed-edge savings.

Solver iterations are the motivating workload: `solvers/cg.py` and
`sparse/jacobi.py` build one program per iteration (spmxv → dot with
the matvec result streamed, never touching DRAM between kernels) and
re-feed its inputs each round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.blas import api
from repro.device.interconnect import INTRA_CHASSIS_WORDS_PER_CYCLE

#: Sustained words/cycle of the DRAM path an *unstreamed* edge pays,
#: each way (write-back plus reload).  One word/cycle is the paper's
#: single-channel sustained figure — deliberately conservative, so the
#: streamed/unstreamed contrast is understated rather than flattered.
DRAM_EDGE_WORDS_PER_CYCLE = 1.0


class ProgramError(ValueError):
    """The program graph is malformed (unknown ref, cycle, rebind)."""


@dataclass(frozen=True)
class Ref:
    """Placeholder operand: the named node's output feeds this slot.

    ``streamed`` picks the edge class — on-chassis streaming (default
    for kernel→kernel edges) or a DRAM round-trip (default for edges
    into host nodes, which need the value in host memory anyway).
    """

    name: str
    streamed: bool = True


def edge_cycles(words: int, streamed: bool) -> int:
    """Charge for moving one result between nodes: streamed edges ride
    the intra-chassis link; unstreamed edges pay the DRAM write-back
    and reload."""
    if words <= 0:
        return 0
    if streamed:
        return math.ceil(words / INTRA_CHASSIS_WORDS_PER_CYCLE)
    return 2 * math.ceil(words / DRAM_EDGE_WORDS_PER_CYCLE)


def _value_words(value: Any) -> int:
    """Words of one node output (float64 words; scalars count 1)."""
    arr = np.asarray(value)
    return int(arr.size) if arr.size else 0


@dataclass
class ProgramNode:
    name: str
    kind: str                      # "input" | "kernel" | "host"
    operation: Optional[str] = None
    operands: Tuple[Any, ...] = ()
    call_kwargs: Dict[str, Any] = field(default_factory=dict)
    fn: Optional[Callable[..., Any]] = None
    value: Any = None

    def refs(self) -> List[Ref]:
        return [op for op in self.operands if isinstance(op, Ref)]


@dataclass(frozen=True)
class ProgramPlan:
    """Predicted cost of one program pass, node by node."""

    name: str
    predicted_cycles: int
    kernel_cycles: int
    streamed_edge_cycles: int
    dram_edge_cycles: int
    flops: int
    clock_mhz: float
    node_plans: Dict[str, api.ExecutionPlan]

    @property
    def edge_cycles(self) -> int:
        return self.streamed_edge_cycles + self.dram_edge_cycles


@dataclass
class ProgramRun:
    """Outcome of one executed program pass."""

    name: str
    value: Any
    values: Dict[str, Any]
    report: api.PerfReport
    node_reports: Dict[str, api.PerfReport]
    streamed_edge_cycles: int
    dram_edge_cycles: int

    @property
    def edge_cycles(self) -> int:
        return self.streamed_edge_cycles + self.dram_edge_cycles


class BlasProgram:
    """A small DAG of BLAS kernels and host glue, run as one unit.

    Nodes are added in dependency order (a :class:`Ref` may only name
    an earlier node — construction order is the topological order, so
    cycles are impossible by construction).  ``feed()`` rebinds input
    nodes between passes, letting a solver build its iteration program
    once and stream new vectors through it every round.
    """

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self._nodes: Dict[str, ProgramNode] = {}
        self._order: List[str] = []

    # -- construction ----------------------------------------------------
    def _add(self, node: ProgramNode) -> str:
        if node.name in self._nodes:
            raise ProgramError(f"duplicate node {node.name!r}")
        for ref in node.refs():
            if ref.name not in self._nodes:
                raise ProgramError(
                    f"node {node.name!r} references unknown node "
                    f"{ref.name!r} (refs must point backwards)")
        self._nodes[node.name] = node
        self._order.append(node.name)
        return node.name

    def add_input(self, name: str, value: Any = None) -> str:
        """A source node holding a host value (rebind via ``feed``)."""
        return self._add(ProgramNode(name, "input", value=value))

    def add_kernel(self, name: str, operation: str,
                   operands: Tuple[Any, ...],
                   **call_kwargs: Any) -> str:
        """A BLAS kernel node; ``operands`` may mix arrays and
        :class:`Ref` placeholders.  ``call_kwargs`` pass through to
        :class:`~repro.blas.api.BlasCall` (``k``, ``m``,
        ``architecture``, ``clock_mhz`` …)."""
        if operation not in api.DEFAULT_K:
            raise ProgramError(
                f"unknown kernel operation {operation!r}; expected "
                f"one of {tuple(api.DEFAULT_K)}")
        return self._add(ProgramNode(name, "kernel", operation,
                                     tuple(operands),
                                     dict(call_kwargs)))

    def add_host(self, name: str, fn: Callable[..., Any],
                 operands: Tuple[Any, ...] = ()) -> str:
        """A host-side node (numpy glue: AXPY, scalar updates).  Host
        nodes cost no device cycles themselves, but any :class:`Ref`
        into them defaults to the DRAM edge class — the value must
        land in host memory."""
        return self._add(ProgramNode(name, "host", fn=fn,
                                     operands=tuple(operands)))

    def feed(self, **values: Any) -> "BlasProgram":
        """Rebind input nodes for the next pass."""
        for name, value in values.items():
            node = self._nodes.get(name)
            if node is None or node.kind != "input":
                raise ProgramError(f"no input node named {name!r}")
            node.value = value
        return self

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    @property
    def nodes(self) -> Tuple[ProgramNode, ...]:
        return tuple(self._nodes[name] for name in self._order)

    def structure_key(self) -> Tuple:
        """Identity of the graph shape (for scheduling/batching keys):
        node kinds, operations and edge classes, not operand data."""
        return tuple(
            (node.name, node.kind, node.operation,
             tuple((ref.name, ref.streamed) for ref in node.refs()))
            for node in self.nodes)

    def _resolve(self, node: ProgramNode,
                 values: Dict[str, Any]) -> Tuple[Any, ...]:
        resolved = []
        for op in node.operands:
            if isinstance(op, Ref):
                if values.get(op.name) is None:
                    raise ProgramError(
                        f"node {node.name!r} needs {op.name!r} but it "
                        "has no value (feed() its inputs first)")
                resolved.append(values[op.name])
            else:
                resolved.append(op)
        return tuple(resolved)

    def _call(self, node: ProgramNode,
              operands: Tuple[Any, ...],
              sim_mode: Optional[str]) -> api.BlasCall:
        kwargs = dict(node.call_kwargs)
        if sim_mode is not None:
            kwargs["sim_mode"] = sim_mode
        if len(operands) == 1:
            operands = (operands[0], None)
        return api.BlasCall(node.operation, operands=operands,
                            **kwargs)

    def _edge_charges(self, node: ProgramNode,
                      values: Dict[str, Any]) -> Tuple[int, int]:
        streamed = dram = 0
        for ref in node.refs():
            words = _value_words(values[ref.name])
            # Edges into host nodes always land in host memory.
            is_streamed = ref.streamed and node.kind != "host"
            cost = edge_cycles(words, is_streamed)
            if is_streamed:
                streamed += cost
            else:
                dram += cost
        return streamed, dram

    def check(self, platform: str = "xd1") -> None:
        """Statically verify the graph (PRG001-007); raise
        :class:`repro.analyze.drc.DesignRuleError` on any error.
        Imported lazily: ``repro.analyze`` depends on this module."""
        from repro.analyze.drc import DesignRuleError
        from repro.analyze.program import check_program

        report = check_program(self, platform)
        if not report.ok:
            raise DesignRuleError(report)

    # -- planning --------------------------------------------------------
    def plan(self) -> ProgramPlan:
        """Predict one pass: per-node plans plus edge charges.  Inputs
        must be fed first (edge words come from actual value sizes, so
        the prediction cannot drift from execution)."""
        values: Dict[str, Any] = {}
        node_plans: Dict[str, api.ExecutionPlan] = {}
        kernel_cycles = flops = 0
        streamed_total = dram_total = 0
        clock = None
        for node in self.nodes:
            if node.kind == "input":
                values[node.name] = node.value
                continue
            operands = self._resolve(node, values)
            s, d = self._edge_charges(node, values)
            streamed_total += s
            dram_total += d
            if node.kind == "kernel":
                plan = self._call(node, operands, None).plan()
                node_plans[node.name] = plan
                kernel_cycles += plan.predicted_cycles
                flops += plan.flops
                clock = (plan.clock_mhz if clock is None
                         else min(clock, plan.clock_mhz))
                values[node.name] = self._shape_stub(node, operands)
            else:
                values[node.name] = node.fn(*operands)
        if not node_plans:
            raise ProgramError("program has no kernel nodes")
        return ProgramPlan(
            name=self.name,
            predicted_cycles=(kernel_cycles + streamed_total
                              + dram_total),
            kernel_cycles=kernel_cycles,
            streamed_edge_cycles=streamed_total,
            dram_edge_cycles=dram_total,
            flops=flops, clock_mhz=clock, node_plans=node_plans)

    @staticmethod
    def _shape_stub(node: ProgramNode,
                    operands: Tuple[Any, ...]) -> Any:
        """Planning stand-in for a kernel's output (right word count,
        no numerics) so downstream edge charges match execution."""
        op = node.operation
        if op == "dot":
            return 0.0
        if op in ("gemv", "spmxv"):
            nrows = (operands[0].nrows if op == "spmxv"
                     else np.shape(operands[0])[0])
            return np.zeros(nrows)
        a, b = np.shape(operands[0]), np.shape(operands[1])
        return np.zeros((a[0], b[1]))

    # -- execution -------------------------------------------------------
    def execute(self, sim_mode: Optional[str] = None) -> ProgramRun:
        """Run every node in order, charging kernels and edges."""
        values: Dict[str, Any] = {}
        node_reports: Dict[str, api.PerfReport] = {}
        streamed_total = dram_total = 0
        kernel_cycles = flops = 0
        clock = None
        area_slices = 0
        utilization = 0.0
        last_value: Any = None
        for node in self.nodes:
            if node.kind == "input":
                values[node.name] = node.value
                continue
            operands = self._resolve(node, values)
            s, d = self._edge_charges(node, values)
            streamed_total += s
            dram_total += d
            if node.kind == "kernel":
                result = self._call(node, operands, sim_mode).execute()
                report = result.report
                node_reports[node.name] = report
                kernel_cycles += report.total_cycles
                flops += report.flops
                clock = (report.clock_mhz if clock is None
                         else min(clock, report.clock_mhz))
                area_slices = max(area_slices, report.area_slices)
                utilization = max(utilization,
                                  report.device_utilization)
                values[node.name] = result.value
            else:
                values[node.name] = node.fn(*operands)
            last_value = values[node.name]
        if not node_reports:
            raise ProgramError("program has no kernel nodes")
        total = kernel_cycles + streamed_total + dram_total
        peak = sum(2 * r.k for r in node_reports.values())
        report = api.PerfReport(
            operation=f"program[{self.name}]",
            n=max(r.n for r in node_reports.values()),
            k=max(r.k for r in node_reports.values()),
            total_cycles=total, clock_mhz=clock, flops=flops,
            area_slices=area_slices, device_utilization=utilization,
            memory_bandwidth_gbytes=0.0,
            efficiency=flops / (total * peak) if total else 0.0,
        )
        return ProgramRun(name=self.name, value=last_value,
                          values=values, report=report,
                          node_reports=node_reports,
                          streamed_edge_cycles=streamed_total,
                          dram_edge_cycles=dram_total)

    def reference(self) -> Any:
        """Numpy reference for the final node's value (used by the
        runtime's result verification)."""
        values: Dict[str, Any] = {}
        last: Any = None
        for node in self.nodes:
            if node.kind == "input":
                values[node.name] = node.value
                continue
            operands = self._resolve(node, values)
            if node.kind == "kernel":
                values[node.name] = self._reference_kernel(
                    node, operands)
            else:
                values[node.name] = node.fn(*operands)
            last = values[node.name]
        return last

    @staticmethod
    def _reference_kernel(node: ProgramNode,
                          operands: Tuple[Any, ...]) -> Any:
        op = node.operation
        if op == "dot":
            return float(np.dot(operands[0], operands[1]))
        if op == "spmxv":
            return operands[0].to_dense() @ np.asarray(operands[1])
        return np.asarray(operands[0]) @ np.asarray(operands[1])
