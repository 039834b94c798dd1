"""Design-rule checker: the paper's hardware invariants, statically.

Every design the library can build — the reduction-circuit dot tree,
row- and column-major MVM, the linear-array matrix multiply, the
Section 5.2 multi-FPGA gang, SpMXV — is only correct under explicit
structural preconditions the paper states but execution only trips
over at depth.  This module checks them *without executing anything*:
a :class:`DesignUnderCheck` (built directly, from a plain JSON spec,
or by the program verifier for each kernel node) is run through the
rule registry against a
:class:`repro.analyze.platform.PlatformModel` and machine-readable
diagnostics come back.

Rule catalog (each diagnostic carries the citation):

=======  ==========================================================
DRC001   reduction buffer ≥ 2α² words (Theorem 1, Section 4.1)
DRC002   column-major MVM hazard-free only when n/k > α (Section 4.2)
DRC003   MM geometry: m | padded n, k | m, k ≤ m; gangs only for gemm
DRC004   on-chip/SRAM storage within Table 1/4 budgets
DRC005   MM accumulation hazard: m²/k > α standalone (Section 5.1)
DRC006   bandwidth vs platform words/cycle (Sections 4.4, 5.1, 5.2)
DRC007   area/clock vs Table 2 unit costs and the device (Section 6)
DRC008   gang width/co-location preconditions (Sections 5.2, 6.4)
DRC009   fast-forward eligible: ``--sim-mode fast`` would skip a
         large cycle-stepped simulation (INFO; docs/simulation.md)
DRC010   inter-chassis bandwidth: a chassis-spanning gang's 3kl/b
         words/cycle must fit the RapidArray links (Section 6.4)
=======  ==========================================================

The gang co-location rule reuses the runtime scheduler's own width
arithmetic (:func:`repro.runtime.scheduler.feasible_gang_width`), so
the static check and the placement logic cannot drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.analyze.diagnostics import (
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analyze.platform import PlatformModel, get_platform
from repro.device.area import AreaModel, DesignArea
from repro.fparith.units import FP_ADDER_64, FP_MULTIPLIER_64

#: Operations the checker knows, and which use the reduction circuit.
OPERATIONS = ("dot", "gemv", "gemm", "spmxv")
_REDUCTION_OPS = {"dot", "spmxv"}


class DesignRuleError(ValueError):
    """Raised by :meth:`repro.blas.program.BlasProgram.check` (which
    runtime admission calls) when a report carries errors."""

    def __init__(self, report: AnalysisReport) -> None:
        self.report = report
        first = report.errors[0]
        more = len(report.errors) - 1
        suffix = f" (+{more} more)" if more else ""
        super().__init__(f"design-rule check failed: "
                         f"{first.render()}{suffix}")


@dataclass(frozen=True)
class DesignUnderCheck:
    """One design description, normalized for the rule registry.

    ``buffer_words`` is the reduction circuit's buffer capacity
    (defaults to the paper's 2α², i.e. exactly Theorem 1's bound);
    ``clock_mhz`` is a *requested* clock — ``None`` accepts whatever
    the area model says the design closes timing at.
    """

    operation: str
    n: int
    k: int
    architecture: str = "tree"
    m: Optional[int] = None
    blades: int = 1
    alpha_add: int = FP_ADDER_64.pipeline_stages
    alpha_mul: int = FP_MULTIPLIER_64.pipeline_stages
    buffer_words: Optional[int] = None
    clock_mhz: Optional[float] = None

    @property
    def label(self) -> str:
        parts = [f"n={self.n}", f"k={self.k}"]
        if self.operation == "gemv":
            parts.append(self.architecture)
        if self.m is not None:
            parts.append(f"m={self.m}")
        if self.blades > 1:
            parts.append(f"l={self.blades}")
        return f"{self.operation}({','.join(parts)})"

    @property
    def uses_reduction_circuit(self) -> bool:
        return (self.operation in _REDUCTION_OPS
                or (self.operation == "gemv"
                    and self.architecture == "tree"))

    @classmethod
    def from_spec(cls, spec: Mapping[str, object]) -> "DesignUnderCheck":
        """Build from a JSON design spec (see docs/analysis.md)."""
        known = {f.name for f in
                 cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(spec) - known
        if unknown:
            raise ValueError(
                f"unknown design-spec field(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}")
        if "operation" not in spec or "n" not in spec or "k" not in spec:
            raise ValueError(
                "a design spec needs at least operation, n and k")
        return cls(**dict(spec))  # type: ignore[arg-type]

    def __post_init__(self) -> None:
        if self.operation not in OPERATIONS:
            raise ValueError(
                f"unknown operation {self.operation!r}; "
                f"expected one of {OPERATIONS}")
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be positive")
        if self.blades < 1:
            raise ValueError("blades must be >= 1")


# ----------------------------------------------------------------------
# rule registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DrcRule:
    """One registered design rule."""

    rule_id: str
    title: str
    citation: str
    check: Callable[["_Context"], Iterator[Diagnostic]] = field(
        compare=False)


DRC_RULES: Dict[str, DrcRule] = {}


def _rule(rule_id: str, title: str, citation: str) -> Callable:
    def register(func: Callable[["_Context"], Iterator[Diagnostic]]
                 ) -> Callable:
        DRC_RULES[rule_id] = DrcRule(rule_id, title, citation, func)
        return func
    return register


class _Context:
    """Per-design state shared by the rules (geometry, area, clock)."""

    def __init__(self, design: DesignUnderCheck,
                 platform: PlatformModel) -> None:
        self.design = design
        self.platform = platform
        self.block_m: Optional[int] = None
        self.padded: Optional[int] = None
        if design.operation == "gemm":
            from repro.blas.api import gemm_geometry

            self.block_m, self.padded = gemm_geometry(
                design.n, design.n, design.n, design.k, design.m)
        self.area, self.area_error = self._compute_area()

    def _compute_area(self) -> Tuple[Optional[DesignArea],
                                     Optional[str]]:
        model = AreaModel(self.platform.device)
        on_xd1 = self.platform.on_xd1
        try:
            if self.design.operation == "dot":
                return model.dot_product_design(self.design.k,
                                                on_xd1=on_xd1), None
            if self.design.operation == "gemm":
                return model.mm_design(self.design.k,
                                       on_xd1=on_xd1), None
            return model.mvm_design(self.design.k, on_xd1=on_xd1), None
        except ValueError as exc:
            return None, str(exc)

    @property
    def clock_mhz(self) -> float:
        """The clock the checks assume: the requested clock when given,
        else the area model's achievable clock, capped by any platform
        clock ceiling (the SRC MAP runs user logic at 100 MHz)."""
        if self.design.clock_mhz is not None:
            clock = self.design.clock_mhz
        elif self.area is not None:
            clock = self.area.clock_mhz
        else:
            clock = FP_ADDER_64.clock_mhz
        cap = self.platform.max_clock_mhz
        return min(clock, cap) if cap is not None else clock

    def diag(self, rule_id: str, severity: Severity, message: str,
             hint: str = "", **data: object) -> Diagnostic:
        rule = DRC_RULES[rule_id]
        return Diagnostic(
            rule=rule_id, severity=severity,
            subject=self.design.label, message=message,
            citation=rule.citation, hint=hint,
            data={k: v for k, v in data.items() if v is not None})


@_rule("DRC001", "reduction buffer bound",
       "Theorem 1, Section 4.1")
def _check_reduction_buffer(ctx: _Context) -> Iterator[Diagnostic]:
    """The single-adder reduction circuit never overflows 2α² buffer
    slots — and needs every one of them on adversarial streams."""
    design = ctx.design
    if not design.uses_reduction_circuit:
        return
    required = 2 * design.alpha_add * design.alpha_add
    provided = (design.buffer_words if design.buffer_words is not None
                else required)
    if provided < required:
        yield ctx.diag(
            "DRC001", Severity.ERROR,
            f"reduction buffer of {provided} words is below the 2α² = "
            f"{required} bound for α = {design.alpha_add}",
            hint="provision 2α² words (two α² banks) or use a "
                 "shallower adder",
            required_words=required, provided_words=provided,
            alpha=design.alpha_add)


@_rule("DRC002", "column-major MVM hazard condition",
       "Section 4.2")
def _check_mvm_hazard(ctx: _Context) -> Iterator[Diagnostic]:
    """Each y element is touched every n/k cycles; the accumulation is
    hazard-free only when that interval covers the adder pipeline."""
    design = ctx.design
    if design.operation != "gemv" or design.architecture != "column":
        return
    interval = design.n / design.k
    if interval <= design.alpha_add:
        yield ctx.diag(
            "DRC002", Severity.ERROR,
            f"n/k = {design.n}/{design.k} = {interval:.1f} does not "
            f"exceed the adder depth α = {design.alpha_add}: a y "
            f"element would be read back while its previous update is "
            f"still in the adder pipeline",
            hint="use the tree (row-major) architecture, or keep "
                 f"k ≤ {design.n // (design.alpha_add + 1)} for this n",
            n=design.n, k=design.k, alpha=design.alpha_add)


@_rule("DRC003", "geometry consistency",
       "Sections 5.1-5.2")
def _check_geometry(ctx: _Context) -> Iterator[Diagnostic]:
    """Plan-vs-geometry: the block size must tile the problem and the
    PE count must divide the block; gangs exist only for gemm."""
    design = ctx.design
    if design.blades > 1 and design.operation != "gemm":
        yield ctx.diag(
            "DRC003", Severity.ERROR,
            f"multi-FPGA gangs exist only for gemm; "
            f"{design.operation} cannot span {design.blades} blades",
            hint="drop blades to 1 or switch the operation to gemm")
    if design.operation != "gemm":
        return
    m = design.m if design.m is not None else ctx.block_m
    assert m is not None and ctx.padded is not None
    if m % design.k:
        yield ctx.diag(
            "DRC003", Severity.ERROR,
            f"block size m = {m} is not a multiple of k = {design.k}: "
            f"each PE must own m/k whole B-columns",
            hint="choose m as a multiple of k", m=m, k=design.k)
        return
    if design.k > m:
        yield ctx.diag(
            "DRC003", Severity.ERROR,
            f"k = {design.k} exceeds m = {m}: the m² C-output words "
            f"cannot hide inside one m³/k-cycle block multiply",
            hint="keep k ≤ m", m=m, k=design.k)
    if ctx.padded % m:
        yield ctx.diag(
            "DRC003", Severity.ERROR,
            f"declared block size m = {m} does not tile the padded "
            f"order {ctx.padded}",
            hint="let the library pick m, or pad n to a multiple of m",
            m=m, padded=ctx.padded)
    elif ctx.padded != design.n:
        waste = 1.0 - (design.n / ctx.padded) ** 3
        yield ctx.diag(
            "DRC003", Severity.WARNING,
            f"n = {design.n} pads to {ctx.padded} (multiple of "
            f"m = {m}); {waste:.0%} of the compute cycles are padding",
            hint="shape the problem to a multiple of m, or pick a "
                 "smaller m",
            n=design.n, padded=ctx.padded, m=m)


@_rule("DRC004", "on-chip storage budget",
       "Table 1; Sections 5.1-5.2")
def _check_storage(ctx: _Context) -> Iterator[Diagnostic]:
    """2m² words for the MM block, the streamed vector for the Level
    1/2 designs, and the gang's striped SRAM C′/C storage must fit
    their Table 1 levels."""
    design, platform = ctx.design, ctx.platform
    if design.operation == "gemm":
        m = design.m if design.m is not None else ctx.block_m
        assert m is not None and ctx.padded is not None
        storage = 2 * m * m
        if storage > platform.bram_words:
            yield ctx.diag(
                "DRC004", Severity.ERROR,
                f"2m² = {storage} words exceed the {platform.bram_words}"
                f"-word on-chip memory of the {platform.device.name}",
                hint=f"keep m ≤ {int(math.isqrt(platform.bram_words // 2))}",
                storage_words=storage, bram_words=platform.bram_words)
        if design.blades > 1:
            b = ctx.padded
            sram_needed = 2 * b * b // design.blades
            if sram_needed > platform.sram_words:
                yield ctx.diag(
                    "DRC004", Severity.ERROR,
                    f"per-FPGA C′/C storage 2b²/l = {sram_needed} words "
                    f"exceeds the {platform.sram_words}-word SRAM of "
                    f"one blade (b = {b}, l = {design.blades})",
                    hint="decompose into smaller b-blocks or widen "
                         "the gang",
                    sram_words_needed=sram_needed,
                    sram_words=platform.sram_words)
            b_storage = 2 * b * m // design.blades
            if b_storage > platform.bram_words:
                yield ctx.diag(
                    "DRC004", Severity.ERROR,
                    f"double-buffered B block-columns 2bm/l = "
                    f"{b_storage} words exceed on-chip memory "
                    f"({platform.bram_words} words)",
                    b=b, m=m, l=design.blades)
        return
    # Level 1/2 and SpMXV keep the streamed vector in local storage.
    if design.n > platform.bram_words:
        yield ctx.diag(
            "DRC004", Severity.WARNING,
            f"the {design.n}-word vector exceeds the "
            f"{platform.bram_words}-word on-chip storage; the design "
            f"must fall back to block decomposition",
            hint="use run_blocked() / the block= option",
            n=design.n, bram_words=platform.bram_words)


@_rule("DRC005", "MM accumulation hazard",
       "Section 5.1; Section 6.3 discrepancy note")
def _check_mm_hazard(ctx: _Context) -> Iterator[Diagnostic]:
    """A C′ cell is touched every m²/k cycles; standalone, that must
    exceed the adder depth.  Inside a gang the check is legitimately
    relaxed: consecutive m-block MACs on one FPGA target different C
    blocks, so same-cell updates are a full block-sweep apart."""
    design = ctx.design
    if design.operation != "gemm":
        return
    m = design.m if design.m is not None else ctx.block_m
    assert m is not None
    if design.k < 1 or m % design.k:
        return  # DRC003 already owns the geometry error
    interval = m * m // design.k
    if interval > design.alpha_add:
        return
    if design.blades > 1:
        yield ctx.diag(
            "DRC005", Severity.INFO,
            f"m²/k = {interval} ≤ α = {design.alpha_add}, waived for "
            f"the hierarchical design: consecutive m-block MACs target "
            f"distinct C blocks (see EXPERIMENTS.md)",
            m=m, k=design.k, alpha=design.alpha_add)
    else:
        yield ctx.diag(
            "DRC005", Severity.ERROR,
            f"m²/k = {interval} must exceed the adder pipeline depth "
            f"α = {design.alpha_add} for hazard-free C′ accumulation",
            hint=f"grow m (m² > {design.alpha_add * design.k}) or "
                 "reduce k",
            m=m, k=design.k, alpha=design.alpha_add)


@_rule("DRC006", "bandwidth budget",
       "Sections 4.4, 5.1, 5.2; Table 1")
def _check_bandwidth(ctx: _Context) -> Iterator[Diagnostic]:
    """The design's words/cycle requirement must not exceed what the
    platform sustains at the design's clock."""
    design, platform = ctx.design, ctx.platform
    clock = ctx.clock_mhz
    sram_avail = platform.sram_words_per_cycle(clock)
    if design.operation == "gemm":
        m = design.m if design.m is not None else ctx.block_m
        assert m is not None and ctx.padded is not None
        if design.blades > 1:
            b = ctx.padded
            dram_needed = 3.0 * design.k * design.blades / b
            dram_avail = platform.dram_words_per_cycle(clock)
            if dram_needed > dram_avail:
                yield ctx.diag(
                    "DRC006", Severity.ERROR,
                    f"gang DRAM demand 3kl/b = {dram_needed:.3f} "
                    f"words/cycle exceeds the {dram_avail:.3f} the "
                    f"{platform.name} DRAM path sustains at "
                    f"{clock:.0f} MHz",
                    hint="grow the SRAM block b or narrow the gang",
                    required=round(dram_needed, 6),
                    available=round(dram_avail, 6))
            sram_needed = 2.0 * design.k / m + 2.0 * design.k / b
        else:
            sram_needed = 3.0 * design.k / m
    else:
        # Streaming designs read k words of the matrix per cycle.
        sram_needed = float(design.k)
    if sram_needed > sram_avail:
        yield ctx.diag(
            "DRC006", Severity.ERROR,
            f"SRAM demand {sram_needed:.3f} words/cycle exceeds the "
            f"{sram_avail:.3f} the {platform.name} SRAM sustains at "
            f"{clock:.0f} MHz",
            hint="reduce k or lower the clock",
            required=round(sram_needed, 6),
            available=round(sram_avail, 6))


@_rule("DRC007", "area and clock closure",
       "Tables 2-4; Figure 9; Section 5.3")
def _check_area(ctx: _Context) -> Iterator[Diagnostic]:
    """The Table 2 unit costs must fit the usable slices, and a
    requested clock must not exceed what the model says the design
    closes timing at."""
    design, platform = ctx.design, ctx.platform
    if ctx.area is None:
        yield ctx.diag(
            "DRC007", Severity.ERROR,
            f"no feasible placement: {ctx.area_error}",
            hint="reduce k", k=design.k)
        return
    if ctx.area.slices > platform.usable_slices:
        yield ctx.diag(
            "DRC007", Severity.ERROR,
            f"{ctx.area.slices} slices exceed the "
            f"{platform.usable_slices} usable on the "
            f"{platform.device.name} "
            f"({ctx.area.utilization:.0%} of the raw device)",
            hint="reduce k",
            slices=ctx.area.slices,
            usable_slices=platform.usable_slices)
    achievable = ctx.area.clock_mhz
    if platform.max_clock_mhz is not None:
        achievable = min(achievable, platform.max_clock_mhz)
    if (design.clock_mhz is not None
            and design.clock_mhz > achievable):
        yield ctx.diag(
            "DRC007", Severity.ERROR,
            f"requested {design.clock_mhz:.0f} MHz exceeds the "
            f"{achievable:.0f} MHz the design closes timing at on "
            f"{platform.name}",
            hint=f"request ≤ {achievable:.0f} MHz",
            requested_mhz=design.clock_mhz,
            achievable_mhz=achievable)


@_rule("DRC008", "gang width and co-location",
       "Sections 5.2, 6.4.1")
def _check_gang(ctx: _Context) -> Iterator[Diagnostic]:
    """An l-blade gang seats co-located on one chassis when it fits;
    a wider gang spans chassis over RapidArray (Section 6.4) and is
    noted, not rejected — only a gang the whole machine cannot seat,
    or one out-numbering the B m-block-columns it stripes over, is an
    error."""
    from repro.device.interconnect import chassis_span

    design, platform = ctx.design, ctx.platform
    if design.blades <= 1 or design.operation != "gemm":
        return
    if design.blades > platform.total_blades:
        yield ctx.diag(
            "DRC008", Severity.ERROR,
            f"an l = {design.blades} gang exceeds the "
            f"{platform.total_blades} blades of the whole "
            f"{platform.name} machine ({platform.chassis_count} "
            f"chassis × {platform.blades_per_chassis} blades)",
            hint=f"request l ≤ {platform.total_blades}",
            l=design.blades,
            blades_per_chassis=platform.blades_per_chassis,
            total_blades=platform.total_blades)
    elif design.blades > platform.blades_per_chassis:
        span = chassis_span(design.blades, platform.blades_per_chassis)
        yield ctx.diag(
            "DRC008", Severity.WARNING,
            f"an l = {design.blades} gang spans {span} "
            f"{platform.name} chassis of "
            f"{platform.blades_per_chassis} blades each; block "
            f"wavefronts cross {span - 1} RapidArray boundaries "
            f"(DRC010 checks the inter-chassis bandwidth)",
            hint=f"request l ≤ {platform.blades_per_chassis} to stay "
                 "on one chassis",
            l=design.blades, chassis=span,
            blades_per_chassis=platform.blades_per_chassis)
    m = design.m if design.m is not None else ctx.block_m
    assert m is not None and ctx.padded is not None
    if m and design.blades > ctx.padded // m:
        yield ctx.diag(
            "DRC008", Severity.ERROR,
            f"l = {design.blades} FPGAs exceed the {ctx.padded // m} "
            f"B m-block-columns (b/m) of this problem: some blades "
            f"would hold no work",
            hint=f"request l ≤ {ctx.padded // m} for n = {design.n}, "
                 f"m = {m}",
            l=design.blades, block_columns=ctx.padded // m)


#: Stepped-event count above which DRC009 points at the fast path.
#: Below it, cycle stepping is cheap enough that the note is noise.
FAST_FORWARD_EVENT_THRESHOLD = 100_000


@_rule("DRC009", "fast-forward eligibility",
       "docs/simulation.md; Section 4 cycle models")
def _check_fast_forward(ctx: _Context) -> Iterator[Diagnostic]:
    """Every design here has a proven-equivalent fast path
    (``--sim-mode fast``); note it when cycle stepping would walk a
    large number of simulated events.  The single-blade MM is excluded:
    its cycle model is already analytic, so fast mode buys nothing."""
    design = ctx.design
    if design.operation == "dot":
        events = -(-design.n // design.k)
    elif design.operation == "gemv":
        events = design.n * -(-design.n // design.k)
    elif design.operation == "spmxv":
        # Worst case one chunk per row; actual nnz is data-dependent.
        events = design.n
    elif design.blades > 1:
        assert ctx.block_m is not None and ctx.padded is not None
        events = (ctx.padded // ctx.block_m) ** 3
    else:
        return
    if events < FAST_FORWARD_EVENT_THRESHOLD:
        return
    yield ctx.diag(
        "DRC009", Severity.INFO,
        f"~{events} cycle-stepped events; the design is "
        f"fast-forward eligible — ``--sim-mode fast`` replays it "
        f"byte-identically without stepping",
        hint="see docs/simulation.md for the equivalence guarantees",
        estimated_events=events)


@_rule("DRC010", "inter-chassis bandwidth",
       "Section 6.4")
def _check_inter_chassis(ctx: _Context) -> Iterator[Diagnostic]:
    """A gang spanning chassis streams its block wavefronts over the
    RapidArray fabric; the paper observes the inter-chassis demand
    equals the DRAM demand — 3kl/b words/cycle — and that must fit
    what one RapidArray link sustains."""
    from repro.device.interconnect import (
        INTER_CHASSIS_WORDS_PER_CYCLE,
        chassis_span,
    )

    design, platform = ctx.design, ctx.platform
    if design.operation != "gemm" or design.blades <= 1:
        return
    if chassis_span(design.blades, platform.blades_per_chassis) <= 1:
        return
    assert ctx.padded is not None
    b = ctx.padded
    required = 3.0 * design.k * design.blades / b
    available = INTER_CHASSIS_WORDS_PER_CYCLE
    if required > available:
        yield ctx.diag(
            "DRC010", Severity.ERROR,
            f"inter-chassis demand 3kl/b = {required:.3f} words/cycle "
            f"exceeds the {available:.1f} one RapidArray link "
            f"sustains (l = {design.blades}, b = {b})",
            hint="grow the SRAM block b or narrow the gang to one "
                 "chassis",
            required=round(required, 6), available=available)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def check_design(design: DesignUnderCheck,
                 platform: "str | PlatformModel" = "xd1",
                 ) -> AnalysisReport:
    """Run every DRC rule over one design description."""
    resolved = get_platform(platform)
    ctx = _Context(design, resolved)
    diagnostics: List[Diagnostic] = []
    for rule in DRC_RULES.values():
        diagnostics.extend(rule.check(ctx))
    return AnalysisReport(diagnostics)


def check_specs(specs: Iterable[Mapping[str, object]],
                platform: "str | PlatformModel" = "xd1",
                ) -> AnalysisReport:
    """DRC a list of JSON design specs (the CLI ``--spec`` input)."""
    report = AnalysisReport()
    for spec in specs:
        report.extend(
            check_design(DesignUnderCheck.from_spec(spec), platform))
    return report
