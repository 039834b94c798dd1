"""Program verifier: static checks over streaming ``BlasProgram`` DAGs.

The third analyzer layer.  Layer 1 (:mod:`repro.analyze.drc`) checks a
*single* design; layer 2 (:mod:`repro.analyze.lint`) checks the source
tree; this layer checks a whole :class:`repro.blas.program.BlasProgram`
graph — the unit the runtime schedules and ``repro serve`` admits —
*before anything executes*.  FBLAS-style streaming composition
(PAPERS.md) is exactly the regime where graph-level static checks pay
off: streamed edges share the fixed intra-chassis words/cycle budget,
so shape mismatches, oversubscribed links and illegal edge classes
must be rejected at admission, the same way DRC008/DRC010 already gate
gang placement.

Rule catalog (each diagnostic carries the citation):

=======  ==========================================================
PRG001   shape/dtype inference along edges: every ``Ref`` consumer's
         geometry must match its producer; host nodes are checked
         against their declared arity (Sections 4-5 geometry)
PRG002   streamed-edge bandwidth: the aggregate words/cycle a node's
         concurrent streamed in-edges demand (k per edge) must fit
         the intra-chassis link budget (Sections 4.4, 6.4)
PRG003   dead/unreachable nodes and unused outputs (WARNING)
PRG004   illegal streamed edges: into ``host`` nodes, or into a
         kernel whose gang cannot co-locate on one chassis
         (Sections 5.2, 6.4; reuses ``feasible_gang_width``)
PRG005   ``feed()`` re-entry safety: host glue must not mutate its
         operands in place nor return a value aliasing an input
PRG006   per-node DRC delegation: every kernel node's implied call
         must itself pass DRC001-010
PRG007   fusion opportunity: an unstreamed kernel→kernel edge whose
         endpoints co-locate on one chassis leaves DRAM cycles on
         the table (INFO, quantified)
=======  ==========================================================

A program is described either by a live :class:`BlasProgram` (fed, so
operand geometry is known) or by a JSON *program spec* — see
``docs/analysis.md`` for the schema — both normalized into a
:class:`ProgramUnderCheck` first.  Shapes that cannot be determined
(an unfed input) are treated as unknown and the shape-dependent checks
skip them rather than guess.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.analyze.diagnostics import (
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analyze.drc import DesignUnderCheck, check_design
from repro.analyze.platform import PlatformModel, get_platform
from repro.blas import api
from repro.blas.program import BlasProgram, Ref, edge_cycles
from repro.device.interconnect import INTRA_CHASSIS_WORDS_PER_CYCLE

#: Node kinds a program spec may declare.
NODE_KINDS = ("input", "kernel", "host")

_NODE_FIELDS = frozenset({
    "name", "kind", "operation", "operands", "k", "m", "blades",
    "architecture", "clock_mhz", "shape", "sparse",
})
_OPERAND_FIELDS = frozenset({"ref", "streamed", "shape", "sparse"})

Shape = Tuple[int, ...]


def _shape_of(value: Any) -> Tuple[Optional[Shape], bool]:
    """(shape, sparse) of a live operand value; (None, False) when the
    geometry is unknown (an unfed input)."""
    if value is None:
        return None, False
    if hasattr(value, "nrows") and hasattr(value, "ncols") \
            and not isinstance(value, np.ndarray):
        return (int(value.nrows), int(value.ncols)), True
    return tuple(int(d) for d in np.shape(value)), False


def _words(shape: Optional[Shape]) -> Optional[int]:
    """Float64 words a value of this shape occupies (scalars count 1)."""
    if shape is None:
        return None
    words = 1
    for dim in shape:
        words *= dim
    return words


@dataclass(frozen=True)
class OperandUnderCheck:
    """One kernel/host operand slot: a ``Ref`` or a literal geometry."""

    ref: Optional[str] = None
    streamed: bool = True
    shape: Optional[Shape] = None
    sparse: bool = False


@dataclass(frozen=True)
class NodeUnderCheck:
    """One program node, normalized for the rule registry."""

    name: str
    kind: str
    operation: Optional[str] = None
    operands: Tuple[OperandUnderCheck, ...] = ()
    k: Optional[int] = None
    m: Optional[int] = None
    blades: int = 1
    architecture: str = "tree"
    clock_mhz: Optional[float] = None
    #: Declared output geometry (inputs always; host nodes in specs).
    out_shape: Optional[Shape] = None
    sparse: bool = False
    #: Live host callable (spec programs carry none).
    fn: Optional[Callable[..., Any]] = field(default=None,
                                             compare=False)

    @property
    def effective_k(self) -> int:
        if self.k is not None:
            return self.k
        if self.operation in api.DEFAULT_K:
            return api.DEFAULT_K[self.operation]
        return 1


@dataclass(frozen=True)
class ProgramUnderCheck:
    """One program description, normalized for the rule registry."""

    name: str
    nodes: Tuple[NodeUnderCheck, ...]

    @property
    def node_map(self) -> Dict[str, NodeUnderCheck]:
        return {node.name: node for node in self.nodes}

    def structure(self) -> Tuple[Any, ...]:
        """Normal form of the graph (kinds, operations, edge classes,
        geometry) — lets a test pin a shipped JSON spec to the live
        program it describes."""
        rows: List[Any] = []
        for node in self.nodes:
            operands = tuple(
                (op.ref, op.streamed) if op.ref is not None
                else (op.shape, op.sparse)
                for op in node.operands)
            rows.append((node.name, node.kind, node.operation,
                         operands, node.effective_k
                         if node.kind == "kernel" else None,
                         node.m, node.blades, node.architecture,
                         node.out_shape
                         if node.kind == "input" else None))
        return tuple(rows)

    # -- normalization ---------------------------------------------------
    @classmethod
    def from_program(cls, program: BlasProgram) -> "ProgramUnderCheck":
        """Normalize a live :class:`BlasProgram`.  Input geometry comes
        from the fed values; an unfed input's shape stays unknown."""
        nodes: List[NodeUnderCheck] = []
        for node in program.nodes:
            if node.kind == "input":
                shape, sparse = _shape_of(node.value)
                nodes.append(NodeUnderCheck(
                    name=node.name, kind="input", out_shape=shape,
                    sparse=sparse))
                continue
            operands: List[OperandUnderCheck] = []
            for op in node.operands:
                if isinstance(op, Ref):
                    operands.append(OperandUnderCheck(
                        ref=op.name, streamed=op.streamed))
                else:
                    shape, sparse = _shape_of(op)
                    operands.append(OperandUnderCheck(
                        shape=shape, sparse=sparse))
            kwargs = dict(node.call_kwargs)
            nodes.append(NodeUnderCheck(
                name=node.name, kind=node.kind,
                operation=node.operation, operands=tuple(operands),
                k=kwargs.get("k"), m=kwargs.get("m"),
                blades=int(kwargs.get("blades", 1)),
                architecture=str(kwargs.get("architecture", "tree")),
                clock_mhz=kwargs.get("clock_mhz"), fn=node.fn))
        return cls(name=program.name, nodes=tuple(nodes))

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "ProgramUnderCheck":
        """Build from a JSON program spec (see docs/analysis.md).

        Schema-level junk — unknown fields, missing name/kind, bad
        types — raises :class:`ValueError` (the CLI maps it to the
        "analyzer crashed" exit code); a *well-formed* spec describing
        a bad program comes back as findings instead.
        """
        if not isinstance(spec, Mapping):
            raise ValueError("a program spec must be a JSON object")
        unknown = set(spec) - {"name", "nodes"}
        if unknown:
            raise ValueError(
                f"unknown program-spec field(s) {sorted(unknown)}; "
                f"expected a subset of ['name', 'nodes']")
        name = spec.get("name", "program")
        if not isinstance(name, str) or not name:
            raise ValueError("program name must be a non-empty string")
        raw_nodes = spec.get("nodes")
        if not isinstance(raw_nodes, Sequence) \
                or isinstance(raw_nodes, (str, bytes)):
            raise ValueError("a program spec needs a 'nodes' array")
        nodes: List[NodeUnderCheck] = []
        seen: set = set()
        for raw in raw_nodes:
            node = cls._node_from_spec(raw)
            if node.name in seen:
                raise ValueError(f"duplicate node {node.name!r}")
            seen.add(node.name)
            nodes.append(node)
        return cls(name=name, nodes=tuple(nodes))

    @staticmethod
    def _node_from_spec(raw: Any) -> NodeUnderCheck:
        if not isinstance(raw, Mapping):
            raise ValueError("each node must be a JSON object")
        unknown = set(raw) - _NODE_FIELDS
        if unknown:
            raise ValueError(
                f"unknown node field(s) {sorted(unknown)}; expected a "
                f"subset of {sorted(_NODE_FIELDS)}")
        name = raw.get("name")
        kind = raw.get("kind")
        if not isinstance(name, str) or not name:
            raise ValueError("every node needs a non-empty 'name'")
        if kind not in NODE_KINDS:
            raise ValueError(
                f"node {name!r}: kind must be one of {NODE_KINDS}, "
                f"got {kind!r}")
        shape = _parse_shape(raw.get("shape"), name)
        sparse = bool(raw.get("sparse", False))
        operation = raw.get("operation")
        if kind != "kernel" and operation is not None:
            raise ValueError(
                f"node {name!r}: only kernel nodes take an operation")
        if kind == "input":
            extra = {"operands", "k", "m", "blades", "architecture",
                     "clock_mhz"} & set(raw)
            if extra:
                raise ValueError(
                    f"input node {name!r} does not take {sorted(extra)}")
            return NodeUnderCheck(name=name, kind="input",
                                  out_shape=shape, sparse=sparse)
        operands = tuple(_operand_from_spec(entry, name)
                         for entry in raw.get("operands", ()))
        if kind == "host":
            extra = {"k", "m", "blades", "architecture",
                     "clock_mhz"} & set(raw)
            if extra:
                raise ValueError(
                    f"host node {name!r} does not take {sorted(extra)}")
            return NodeUnderCheck(name=name, kind="host",
                                  operands=operands, out_shape=shape,
                                  sparse=sparse)
        if operation not in api.DEFAULT_K:
            raise ValueError(
                f"kernel node {name!r}: operation must be one of "
                f"{tuple(api.DEFAULT_K)}, got {operation!r}")
        if shape is not None:
            raise ValueError(
                f"kernel node {name!r} does not declare a shape "
                "(its output geometry is inferred)")
        k = _parse_positive(raw.get("k"), "k", name)
        m = _parse_positive(raw.get("m"), "m", name)
        blades = _parse_positive(raw.get("blades"), "blades", name)
        architecture = raw.get("architecture", "tree")
        if architecture not in ("tree", "column"):
            raise ValueError(
                f"kernel node {name!r}: architecture must be 'tree' "
                f"or 'column'")
        clock = raw.get("clock_mhz")
        if clock is not None:
            if not isinstance(clock, (int, float)) \
                    or isinstance(clock, bool) or clock <= 0:
                raise ValueError(
                    f"kernel node {name!r}: clock_mhz must be a "
                    "positive number")
            clock = float(clock)
        return NodeUnderCheck(
            name=name, kind="kernel", operation=operation,
            operands=operands, k=k, m=m,
            blades=blades if blades is not None else 1,
            architecture=architecture, clock_mhz=clock)


def _parse_shape(raw: Any, name: str) -> Optional[Shape]:
    if raw is None:
        return None
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise ValueError(
            f"node {name!r}: shape must be an array of dimensions")
    shape: List[int] = []
    for dim in raw:
        if not isinstance(dim, int) or isinstance(dim, bool) \
                or dim < 1:
            raise ValueError(
                f"node {name!r}: shape dimensions must be positive "
                "integers")
        shape.append(dim)
    return tuple(shape)


def _parse_positive(raw: Any, label: str, name: str) -> Optional[int]:
    if raw is None:
        return None
    if not isinstance(raw, int) or isinstance(raw, bool) or raw < 1:
        raise ValueError(
            f"node {name!r}: {label} must be a positive integer")
    return raw


def _operand_from_spec(raw: Any, name: str) -> OperandUnderCheck:
    if not isinstance(raw, Mapping):
        raise ValueError(
            f"node {name!r}: each operand must be a JSON object")
    unknown = set(raw) - _OPERAND_FIELDS
    if unknown:
        raise ValueError(
            f"node {name!r}: unknown operand field(s) "
            f"{sorted(unknown)}; expected a subset of "
            f"{sorted(_OPERAND_FIELDS)}")
    ref = raw.get("ref")
    shape = _parse_shape(raw.get("shape"), name)
    if (ref is None) == (shape is None):
        raise ValueError(
            f"node {name!r}: an operand is either a ref or a literal "
            "shape (exactly one of 'ref'/'shape')")
    if ref is not None and not isinstance(ref, str):
        raise ValueError(f"node {name!r}: ref must be a node name")
    return OperandUnderCheck(
        ref=ref, streamed=bool(raw.get("streamed", True)),
        shape=shape, sparse=bool(raw.get("sparse", False)))


# ----------------------------------------------------------------------
# rule registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PrgRule:
    """One registered program rule."""

    rule_id: str
    title: str
    citation: str
    check: Callable[["_ProgramContext"], Iterator[Diagnostic]] = field(
        compare=False)


PRG_RULES: Dict[str, PrgRule] = {}


def _rule(rule_id: str, title: str,
          citation: str) -> Callable[[Callable[["_ProgramContext"],
                                               Iterator[Diagnostic]]],
                                     Callable[["_ProgramContext"],
                                              Iterator[Diagnostic]]]:
    def register(func: Callable[["_ProgramContext"],
                                Iterator[Diagnostic]]
                 ) -> Callable[["_ProgramContext"],
                               Iterator[Diagnostic]]:
        PRG_RULES[rule_id] = PrgRule(rule_id, title, citation, func)
        return func
    return register


@dataclass
class _HostProbe:
    """Outcome of evaluating one host node's glue on stub operands."""

    out_shape: Optional[Shape] = None
    error: Optional[str] = None
    mutated: Tuple[int, ...] = ()
    aliased: Tuple[int, ...] = ()


class _ProgramContext:
    """Per-program state shared by the rules: inferred shapes, the
    consumer map and host-probe results.  Shape inference runs once in
    the constructor; PRG001 yields the diagnostics it collected."""

    def __init__(self, program: ProgramUnderCheck,
                 platform: PlatformModel) -> None:
        self.program = program
        self.platform = platform
        #: node name -> inferred/declared output shape (None unknown).
        self.shapes: Dict[str, Optional[Shape]] = {}
        self.sparse: Dict[str, bool] = {}
        #: producer name -> [(consumer node, operand)] over ref edges.
        self.consumers: Dict[str, List[Tuple[NodeUnderCheck,
                                             OperandUnderCheck]]] = {}
        self.probes: Dict[str, _HostProbe] = {}
        self.shape_diagnostics: List[Diagnostic] = []
        self._infer()

    def subject(self, node: "NodeUnderCheck | str") -> str:
        name = node if isinstance(node, str) else node.name
        return f"{self.program.name}.{name}"

    def diag(self, rule_id: str, severity: Severity,
             node: "NodeUnderCheck | str", message: str,
             hint: str = "", **data: object) -> Diagnostic:
        rule = PRG_RULES[rule_id]
        return Diagnostic(
            rule=rule_id, severity=severity,
            subject=self.subject(node), message=message,
            citation=rule.citation, hint=hint,
            data={k: v for k, v in data.items() if v is not None})

    # -- shape inference -------------------------------------------------
    def _infer(self) -> None:
        for node in self.program.nodes:
            if node.kind == "input":
                self.shapes[node.name] = node.out_shape
                self.sparse[node.name] = node.sparse
                continue
            resolved = self._resolve_operands(node)
            if node.kind == "kernel":
                out = self._infer_kernel(node, resolved)
            else:
                out = self._infer_host(node, resolved)
            self.shapes[node.name] = out
            self.sparse[node.name] = False

    def _resolve_operands(
            self, node: NodeUnderCheck,
    ) -> List[Tuple[Optional[Shape], bool]]:
        """(shape, sparse) per operand; records consumer edges and
        flags dangling refs (possible only in spec programs — live
        construction already rejects them)."""
        resolved: List[Tuple[Optional[Shape], bool]] = []
        for op in node.operands:
            if op.ref is None:
                resolved.append((op.shape, op.sparse))
                continue
            if op.ref not in self.shapes:
                self.shape_diagnostics.append(self.diag(
                    "PRG001", Severity.ERROR, node,
                    f"operand references unknown or later node "
                    f"{op.ref!r} (refs must point backwards)",
                    hint="declare the producer before its consumer",
                    ref=op.ref))
                resolved.append((None, False))
                continue
            self.consumers.setdefault(op.ref, []).append((node, op))
            resolved.append((self.shapes[op.ref],
                             self.sparse.get(op.ref, False)))
        return resolved

    def _operand_label(self, node: NodeUnderCheck,
                       index: int) -> str:
        op = node.operands[index]
        if op.ref is not None:
            return f"operand {index} (ref {op.ref!r})"
        return f"operand {index}"

    def _infer_kernel(
            self, node: NodeUnderCheck,
            resolved: List[Tuple[Optional[Shape], bool]],
    ) -> Optional[Shape]:
        emit = self.shape_diagnostics.append
        operation = node.operation or "?"
        if len(node.operands) != 2:
            emit(self.diag(
                "PRG001", Severity.ERROR, node,
                f"{operation} takes exactly 2 operands, got "
                f"{len(node.operands)}",
                hint="kernel nodes bind (a, b) like the BlasCall they "
                     "imply",
                arity=len(node.operands)))
            return None
        (a_shape, a_sparse), (b_shape, b_sparse) = resolved
        wants_sparse = operation == "spmxv"
        if a_shape is not None:
            if wants_sparse and not a_sparse:
                emit(self.diag(
                    "PRG001", Severity.ERROR, node,
                    f"spmxv needs a sparse (CRS) matrix, but "
                    f"{self._operand_label(node, 0)} is dense",
                    hint="pass a CsrMatrix (or mark the spec operand "
                         "\"sparse\": true)"))
            elif not wants_sparse and a_sparse:
                emit(self.diag(
                    "PRG001", Severity.ERROR, node,
                    f"{operation} works on dense operands, but "
                    f"{self._operand_label(node, 0)} is sparse",
                    hint="use the spmxv kernel for CRS matrices"))
        if b_shape is not None and b_sparse:
            emit(self.diag(
                "PRG001", Severity.ERROR, node,
                f"{self._operand_label(node, 1)} is sparse; streamed "
                f"vectors/matrices must be dense",
                hint="densify the operand or restructure the graph"))
            b_shape = None
        expect_a, expect_b = {
            "dot": (1, 1), "gemv": (2, 1), "spmxv": (2, 1),
            "gemm": (2, 2)}[operation]
        for index, (shape, expect) in enumerate(
                ((a_shape, expect_a), (b_shape, expect_b))):
            if shape is not None and len(shape) != expect:
                emit(self.diag(
                    "PRG001", Severity.ERROR, node,
                    f"{operation} expects a rank-{expect} "
                    f"{self._operand_label(node, index)}, got shape "
                    f"{list(shape)}",
                    shape=list(shape), expected_rank=expect))
                if index == 0:
                    a_shape = None
                else:
                    b_shape = None
        if a_shape is None or b_shape is None:
            return self._kernel_out(operation, a_shape, b_shape)
        inner_a = a_shape[-1]
        inner_b = b_shape[0]
        if inner_a != inner_b:
            emit(self.diag(
                "PRG001", Severity.ERROR, node,
                f"geometry mismatch: {operation} joins "
                f"{self._operand_label(node, 0)} of shape "
                f"{list(a_shape)} with {self._operand_label(node, 1)} "
                f"of shape {list(b_shape)} "
                f"({inner_a} != {inner_b})",
                hint="every Ref consumer's geometry must match its "
                     "producer",
                a_shape=list(a_shape), b_shape=list(b_shape)))
            return self._kernel_out(operation, a_shape, None)
        return self._kernel_out(operation, a_shape, b_shape)

    @staticmethod
    def _kernel_out(operation: str, a_shape: Optional[Shape],
                    b_shape: Optional[Shape]) -> Optional[Shape]:
        if operation == "dot":
            return ()
        if operation in ("gemv", "spmxv"):
            return (a_shape[0],) if a_shape else None
        if a_shape is None or b_shape is None \
                or len(a_shape) != 2 or len(b_shape) != 2:
            return None
        return (a_shape[0], b_shape[1])

    def _infer_host(
            self, node: NodeUnderCheck,
            resolved: List[Tuple[Optional[Shape], bool]],
    ) -> Optional[Shape]:
        if node.fn is None:
            return node.out_shape
        probe = self._probe_host(node, resolved)
        self.probes[node.name] = probe
        if probe.error is not None:
            self.shape_diagnostics.append(self.diag(
                "PRG001", Severity.ERROR, node,
                f"host glue rejected its {len(node.operands)} declared "
                f"operand(s): {probe.error}",
                hint="match the callable's signature to the node's "
                     "operand tuple",
                arity=len(node.operands)))
            return None
        return probe.out_shape

    def _probe_host(
            self, node: NodeUnderCheck,
            resolved: List[Tuple[Optional[Shape], bool]],
    ) -> _HostProbe:
        """Evaluate the host glue on stub operands — the same thing
        ``plan()`` does — recording output geometry, in-place
        mutation and output/operand aliasing for PRG001/PRG005."""
        assert node.fn is not None
        args: List[Any] = []
        arrays: List[Tuple[int, np.ndarray]] = []
        for index, (shape, sparse) in enumerate(resolved):
            if shape is None or sparse:
                return _HostProbe()  # geometry unknown: skip probing
            if shape == ():
                args.append(1.0)
                continue
            stub = np.ones(shape)
            args.append(stub)
            arrays.append((index, stub))
        try:
            inspect.signature(node.fn).bind(*args)
        except TypeError as exc:
            return _HostProbe(error=str(exc))
        except ValueError:
            pass  # no introspectable signature (builtins): just call
        try:
            result = node.fn(*args)
        except Exception as exc:  # noqa: BLE001 — report, don't crash
            return _HostProbe(
                error=f"{type(exc).__name__}: {exc}")
        mutated = tuple(index for index, stub in arrays
                        if not np.array_equal(stub, np.ones(stub.shape)))
        aliased: Tuple[int, ...] = ()
        out_shape: Optional[Shape] = None
        if result is not None:
            out = np.asarray(result)
            out_shape = tuple(int(d) for d in out.shape)
            aliased = tuple(index for index, stub in arrays
                            if np.shares_memory(out, stub))
        return _HostProbe(out_shape=out_shape, mutated=mutated,
                          aliased=aliased)

    # -- shared helpers --------------------------------------------------
    def streamed_in_edges(
            self, node: NodeUnderCheck,
    ) -> List[OperandUnderCheck]:
        """Streamed ref operands of a kernel node (edges into host
        nodes always land in host memory, so only kernels consume the
        intra-chassis link)."""
        if node.kind != "kernel":
            return []
        return [op for op in node.operands
                if op.ref is not None and op.streamed]

    def spans_chassis(self, node: NodeUnderCheck) -> int:
        """Chassis the node's gang placement spans (1 = co-located),
        via the scheduler's own width arithmetic so the static check
        and the placement logic cannot drift."""
        from repro.device.interconnect import chassis_span
        from repro.runtime.scheduler import feasible_gang_width

        if node.blades <= 1:
            return 1
        per_chassis = self.platform.blades_per_chassis
        co_located = feasible_gang_width(
            node.blades, [per_chassis] * self.platform.chassis_count)
        if co_located >= node.blades:
            return 1
        return chassis_span(node.blades, per_chassis)


@_rule("PRG001", "shape/dtype inference along edges",
       "Sections 4-5 geometry; FBLAS composition (PAPERS.md)")
def _check_shapes(ctx: _ProgramContext) -> Iterator[Diagnostic]:
    """Every ``Ref`` consumer's geometry must match its producer's
    output; host glue must accept its declared operands."""
    yield from ctx.shape_diagnostics


@_rule("PRG002", "streamed-edge bandwidth feasibility",
       "Sections 4.4, 6.4; Table 1")
def _check_stream_bandwidth(ctx: _ProgramContext) -> Iterator[Diagnostic]:
    """A kernel consumes each streamed operand at its lane rate (k
    words/cycle), and its concurrent streamed in-edges share one
    intra-chassis link — the aggregate must fit the link budget."""
    budget = INTRA_CHASSIS_WORDS_PER_CYCLE
    for node in ctx.program.nodes:
        streamed = ctx.streamed_in_edges(node)
        if not streamed:
            continue
        demand = float(node.effective_k * len(streamed))
        if demand <= budget:
            continue
        cycles = [edge_cycles(_words(ctx.shapes.get(op.ref or ""))
                              or 0, streamed=True)
                  for op in streamed]
        yield ctx.diag(
            "PRG002", Severity.ERROR, node,
            f"{len(streamed)} concurrent streamed edge(s) at k = "
            f"{node.effective_k} words/cycle each demand "
            f"{demand:.1f} words/cycle; the intra-chassis link "
            f"sustains {budget:.1f}",
            hint="reduce k, stream fewer operands, or route one edge "
                 "through DRAM",
            required=demand, available=budget,
            edges=[op.ref for op in streamed],
            edge_cycles=cycles)


@_rule("PRG003", "dead and unreachable nodes",
       "repo rule: program graphs carry no dead weight")
def _check_dead_nodes(ctx: _ProgramContext) -> Iterator[Diagnostic]:
    """Every node must feed the program's output (the final node);
    anything else executes — and is charged — for nothing."""
    nodes = ctx.program.nodes
    if not nodes:
        return
    terminal = nodes[-1]
    live = {terminal.name}
    stack = [terminal.name]
    node_map = ctx.program.node_map
    while stack:
        current = node_map[stack.pop()]
        for op in current.operands:
            if op.ref is not None and op.ref in node_map \
                    and op.ref not in live:
                live.add(op.ref)
                stack.append(op.ref)
    for node in nodes:
        if node.name in live:
            continue
        if node.kind == "input":
            message = "input is never read by any node"
            hint = "drop the input or wire it into a kernel"
        else:
            message = (f"{node.kind} node's result never reaches the "
                       f"program output {terminal.name!r}")
            hint = ("remove the node, or move it last (the final "
                    "node is the program's output)")
        yield ctx.diag("PRG003", Severity.WARNING, node, message,
                       hint=hint, terminal=terminal.name)


@_rule("PRG004", "illegal streamed edges",
       "Sections 5.2, 6.4; docs/runtime.md gang placement")
def _check_illegal_streams(ctx: _ProgramContext) -> Iterator[Diagnostic]:
    """A streamed edge needs both endpoints on one chassis fabric:
    host nodes read from host memory, and a gang that spans chassis
    has no single intra-chassis link to ride."""
    for node in ctx.program.nodes:
        if node.kind == "host":
            for op in node.operands:
                if op.ref is not None and op.streamed:
                    yield ctx.diag(
                        "PRG004", Severity.ERROR, node,
                        f"streamed edge {op.ref!r} → {node.name!r} "
                        f"enters a host node; host glue reads from "
                        f"host memory, so the runtime silently "
                        f"charges the DRAM round-trip instead",
                        hint=f"mark Ref({op.ref!r}, streamed=False) "
                             "to say what actually happens",
                        producer=op.ref)
            continue
        if node.kind != "kernel":
            continue
        span = ctx.spans_chassis(node)
        if span <= 1:
            continue
        for op in ctx.streamed_in_edges(node):
            yield ctx.diag(
                "PRG004", Severity.ERROR, node,
                f"streamed edge {op.ref!r} → {node.name!r} feeds an "
                f"l = {node.blades} gang spanning {span} chassis; no "
                f"single intra-chassis link connects producer and "
                f"consumer",
                hint=f"narrow the gang to "
                     f"{ctx.platform.blades_per_chassis} blades or "
                     "route the edge through DRAM",
                producer=op.ref, l=node.blades, chassis=span)


@_rule("PRG005", "feed() re-entry safety",
       "repo rule: byte-identical replay across feed() iterations")
def _check_reentry(ctx: _ProgramContext) -> Iterator[Diagnostic]:
    """Host glue runs once per pass over values that persist between
    passes (fed inputs, literal operands).  Glue that mutates an
    operand in place, or returns a value aliasing one, corrupts the
    next ``feed()`` iteration."""
    node_map = ctx.program.node_map
    for node in ctx.program.nodes:
        probe = ctx.probes.get(node.name)
        if probe is None or probe.error is not None:
            continue
        for index in probe.mutated:
            yield ctx.diag(
                "PRG005", Severity.ERROR, node,
                f"host glue mutates "
                f"{ctx._operand_label(node, index)} in place; the "
                f"buffer persists across feed() iterations, so the "
                f"next pass reads the mutated value",
                hint="compute into a fresh array (no +=/*= on the "
                     "operand)",
                operand=index)
        for index in probe.aliased:
            op = node.operands[index]
            producer = node_map.get(op.ref) if op.ref else None
            if producer is not None and producer.kind != "input":
                continue  # kernel outputs are fresh every pass
            yield ctx.diag(
                "PRG005", Severity.ERROR, node,
                f"host glue returns a view aliasing "
                f"{ctx._operand_label(node, index)}; across feed() "
                f"iterations downstream nodes would read the caller's "
                f"(possibly mutated) buffer",
                hint="return a copy (np.array(..., copy=True))",
                operand=index)


@_rule("PRG006", "per-node design-rule delegation",
       "DRC001-010; Sections 4-6")
def _check_node_designs(ctx: _ProgramContext) -> Iterator[Diagnostic]:
    """Every kernel node implies one BlasCall; each must itself pass
    the design-rule checker, so one program check covers the whole
    graph."""
    for node in ctx.program.nodes:
        if node.kind != "kernel" or node.operation is None:
            continue
        dims: List[int] = []
        for op in node.operands:
            shape = (ctx.shapes.get(op.ref) if op.ref is not None
                     else op.shape)
            if shape:
                dims.extend(shape)
        if not dims:
            continue  # geometry unknown: nothing to delegate
        try:
            design = DesignUnderCheck(
                operation=node.operation, n=max(dims),
                k=node.effective_k, architecture=node.architecture,
                m=node.m, blades=node.blades,
                clock_mhz=node.clock_mhz)
        except ValueError as exc:
            yield ctx.diag(
                "PRG006", Severity.ERROR, node,
                f"implied {node.operation} call is unbuildable: {exc}")
            continue
        for finding in check_design(design, ctx.platform):
            yield Diagnostic(
                rule="PRG006", severity=finding.severity,
                subject=ctx.subject(node),
                message=f"{finding.rule} ({finding.message})",
                citation=finding.citation, hint=finding.hint,
                data={**finding.data, "delegated_rule": finding.rule,
                      "design": design.label})


@_rule("PRG007", "fusion/streaming opportunity",
       "Sections 4.4, 6.4; FBLAS composition (PAPERS.md)")
def _check_fusion(ctx: _ProgramContext) -> Iterator[Diagnostic]:
    """An unstreamed kernel→kernel edge whose endpoints co-locate on
    one chassis pays a DRAM round-trip the fabric could absorb —
    noted with the cycles left on the table.  Edges touching inputs
    or host nodes are exempt: those values live in host memory."""
    budget = INTRA_CHASSIS_WORDS_PER_CYCLE
    node_map = ctx.program.node_map
    for node in ctx.program.nodes:
        if node.kind != "kernel":
            continue
        streamed_count = len(ctx.streamed_in_edges(node))
        for op in node.operands:
            if op.ref is None or op.streamed:
                continue
            producer = node_map.get(op.ref)
            if producer is None or producer.kind != "kernel":
                continue
            if ctx.spans_chassis(node) > 1 \
                    or ctx.spans_chassis(producer) > 1:
                continue
            demand = float(node.effective_k * (streamed_count + 1))
            if demand > budget:
                continue  # streaming it would oversubscribe the link
            words = _words(ctx.shapes.get(op.ref))
            if not words:
                continue
            dram = edge_cycles(words, streamed=False)
            streamed = edge_cycles(words, streamed=True)
            yield ctx.diag(
                "PRG007", Severity.INFO, node,
                f"edge {op.ref!r} → {node.name!r} pays the DRAM "
                f"round-trip ({dram} cycles for {words} words) but "
                f"both kernels co-locate on one chassis; streaming it "
                f"saves {dram - streamed} cycles/pass",
                hint=f"mark Ref({op.ref!r}, streamed=True)",
                producer=op.ref, words=words, dram_cycles=dram,
                streamed_cycles=streamed,
                saved_cycles=dram - streamed)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def check_program(program: "BlasProgram | ProgramUnderCheck",
                  platform: "str | PlatformModel" = "xd1",
                  ) -> AnalysisReport:
    """Run every program rule over one program (live or normalized)."""
    if isinstance(program, ProgramUnderCheck):
        normalized = program
    else:
        normalized = ProgramUnderCheck.from_program(program)
    ctx = _ProgramContext(normalized, get_platform(platform))
    diagnostics: List[Diagnostic] = []
    for rule in PRG_RULES.values():
        diagnostics.extend(rule.check(ctx))
    return AnalysisReport(diagnostics)


def check_program_spec(spec: Mapping[str, Any],
                       platform: "str | PlatformModel" = "xd1",
                       ) -> AnalysisReport:
    """Verify one JSON program spec (see docs/analysis.md)."""
    return check_program(ProgramUnderCheck.from_spec(spec), platform)


def check_program_specs(specs: Iterable[Mapping[str, Any]],
                        platform: "str | PlatformModel" = "xd1",
                        ) -> AnalysisReport:
    """Verify a list of JSON program specs (the CLI ``--program-spec``
    input)."""
    report = AnalysisReport()
    for spec in specs:
        report.extend(check_program_spec(spec, platform))
    return report
