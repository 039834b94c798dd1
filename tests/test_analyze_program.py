"""Program-verifier tests: pass/violate pairs for PRG001-007 at paper
constants, the zero-findings gate over the shipped solver programs,
spec↔live parity, the golden JSON report with a pinned fingerprint,
and the plan/execute/runtime admission wiring."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analyze import (
    PRG_RULES,
    ProgramUnderCheck,
    Severity,
    check_program,
    check_program_spec,
    shipped_programs,
)
from repro.analyze.drc import DesignRuleError
from repro.blas.program import BlasProgram, Ref, edge_cycles
from repro.runtime import BlasRequest, BlasRuntime, JobState
from repro.solvers.cg import cg_iteration_program, cg_iteration_spec
from repro.sparse.jacobi import (
    JacobiSolver,
    jacobi_iteration_program,
    jacobi_iteration_spec,
)
from repro.workloads import poisson_2d

SPEC_FILE = Path(__file__).resolve().parent.parent / "specs" \
    / "solver-programs.json"


@pytest.fixture
def rng():
    return np.random.default_rng(20050512)


def rules_of(report):
    return sorted({d.rule for d in report})


def errors_of(report):
    return [d for d in report if d.severity is Severity.ERROR]


def fed_cg(grid=32, k_spmxv=4, k_dot=2):
    matrix = poisson_2d(grid)
    program = cg_iteration_program(matrix, k_spmxv=k_spmxv,
                                   k_dot=k_dot)
    program.feed(p=np.zeros(matrix.ncols))
    return program


def fed_jacobi(grid=32, k=4):
    matrix = poisson_2d(grid)
    diag, remainder = JacobiSolver._split(matrix)
    inv_diag = 1.0 / diag
    b = np.zeros(matrix.ncols)
    program = jacobi_iteration_program(
        remainder, lambda rx: inv_diag * (b - rx), k=k)
    program.feed(x=np.zeros(matrix.ncols))
    return program


class TestRegistry:
    def test_all_seven_rules_registered(self):
        assert sorted(PRG_RULES) == [f"PRG00{i}" for i in
                                     range(1, 8)]

    def test_rules_carry_citations(self):
        assert all(rule.citation for rule in PRG_RULES.values())


class TestShippedProgramsGate:
    """Acceptance criterion: the shipped solver programs verify at
    literally zero findings, live and from spec, on both platforms."""

    @pytest.mark.parametrize("platform", ["xd1", "src"])
    def test_spec_catalog_is_clean(self, platform):
        for program in shipped_programs():
            report = check_program(program, platform)
            assert len(report) == 0, report.summary()

    @pytest.mark.parametrize("platform", ["xd1", "src"])
    def test_live_cg_is_clean(self, platform):
        assert len(check_program(fed_cg(), platform)) == 0

    @pytest.mark.parametrize("platform", ["xd1", "src"])
    def test_live_jacobi_is_clean(self, platform):
        assert len(check_program(fed_jacobi(), platform)) == 0

    def test_serve_cg_workload_shape_is_clean(self):
        # The exact program a serve `cg` submission materializes
        # (grid 12, k=4 — the CI smoke's parameters).
        report = check_program_spec(cg_iteration_spec(12 * 12,
                                                      k_spmxv=4))
        assert len(report) == 0, report.summary()

    def test_spec_file_matches_builders(self):
        payload = json.loads(SPEC_FILE.read_text())
        assert payload["programs"] == [cg_iteration_spec(1024),
                                       jacobi_iteration_spec(1024)]

    def test_spec_matches_live_structure(self, rng):
        live = ProgramUnderCheck.from_program(fed_cg())
        spec = ProgramUnderCheck.from_spec(cg_iteration_spec(1024))
        assert live.structure() == spec.structure()
        live_j = ProgramUnderCheck.from_program(fed_jacobi())
        spec_j = ProgramUnderCheck.from_spec(
            jacobi_iteration_spec(1024))
        assert live_j.structure() == spec_j.structure()


class TestPrg001Shapes:
    def test_pass_matching_geometry(self, rng):
        program = BlasProgram(name="ok")
        program.add_input("x")
        program.feed(x=rng.standard_normal(64))
        program.add_kernel(
            "y", "gemv", (np.ones((64, 64)), Ref("x", streamed=False)),
            k=4)
        assert "PRG001" not in rules_of(check_program(program))

    def test_violate_inner_dim_mismatch(self, rng):
        program = BlasProgram(name="bad")
        program.add_input("x")
        program.feed(x=rng.standard_normal(32))
        program.add_kernel(
            "y", "gemv", (np.ones((16, 64)), Ref("x", streamed=False)),
            k=4)
        report = check_program(program)
        assert rules_of(report) == ["PRG001"]
        assert "geometry mismatch" in report.errors[0].message

    def test_violate_sparse_into_dense_kernel(self, rng):
        matrix = poisson_2d(8)
        program = BlasProgram(name="bad")
        program.add_input("x")
        program.feed(x=rng.standard_normal(matrix.ncols))
        program.add_kernel("y", "gemv",
                           (matrix, Ref("x", streamed=False)), k=4)
        report = check_program(program)
        assert "PRG001" in rules_of(report)
        assert any("sparse" in d.message for d in report.errors)

    def test_violate_host_arity(self, rng):
        program = BlasProgram(name="bad")
        program.add_input("x")
        program.feed(x=rng.standard_normal(16))
        program.add_host("h", lambda a, b: a + b,
                         (Ref("x", streamed=False),))
        program.add_kernel(
            "d", "dot",
            (Ref("h", streamed=False), Ref("h", streamed=False)), k=2)
        report = check_program(program)
        assert "PRG001" in rules_of(report)
        assert any("host glue rejected" in d.message
                   for d in report.errors)

    def test_violate_dangling_ref_in_spec(self):
        report = check_program_spec({
            "name": "bad",
            "nodes": [
                {"name": "d", "kind": "kernel", "operation": "dot",
                 "operands": [{"ref": "ghost"},
                              {"shape": [64]}]},
            ]})
        assert any("unknown or later node" in d.message
                   for d in errors_of(report))


class TestPrg002Bandwidth:
    def test_pass_within_budget(self):
        # cg at paper constants: one streamed edge into the k=2 dot —
        # 2.0 words/cycle against the 4.0 intra-chassis budget.
        assert "PRG002" not in rules_of(check_program(fed_cg()))

    def test_violate_oversubscribed_link(self, rng):
        program = BlasProgram(name="bad")
        program.add_input("x")
        program.feed(x=rng.standard_normal(64))
        program.add_kernel(
            "a", "gemv", (np.ones((64, 64)), Ref("x", streamed=False)),
            k=4)
        program.add_kernel(
            "b", "gemv", (np.ones((64, 64)), Ref("x", streamed=False)),
            k=4)
        program.add_kernel("d", "dot", (Ref("a"), Ref("b")), k=4)
        report = check_program(program)
        assert "PRG002" in rules_of(report)
        finding = next(d for d in report if d.rule == "PRG002")
        assert finding.data["required"] == 8.0
        assert finding.data["available"] == 4.0


class TestPrg003DeadNodes:
    def test_pass_all_nodes_reach_output(self):
        assert "PRG003" not in rules_of(check_program(fed_cg()))

    def test_violate_dead_kernel_warns(self, rng):
        program = BlasProgram(name="bad")
        program.add_input("x")
        program.feed(x=rng.standard_normal(64))
        program.add_kernel(
            "dead", "dot",
            (Ref("x", streamed=False), Ref("x", streamed=False)), k=2)
        program.add_kernel(
            "out", "gemv",
            (np.ones((64, 64)), Ref("x", streamed=False)), k=4)
        report = check_program(program)
        finding = next(d for d in report if d.rule == "PRG003")
        assert finding.severity is Severity.WARNING
        assert "never reaches" in finding.message
        assert finding.hint

    def test_violate_unread_input_warns(self, rng):
        program = BlasProgram(name="bad")
        program.add_input("x")
        program.add_input("unused")
        program.feed(x=rng.standard_normal(64),
                     unused=rng.standard_normal(4))
        program.add_kernel(
            "d", "dot",
            (Ref("x", streamed=False), Ref("x", streamed=False)), k=2)
        report = check_program(program)
        finding = next(d for d in report if d.rule == "PRG003")
        assert "never read" in finding.message


class TestPrg004IllegalStreams:
    def test_pass_dram_edge_into_host(self):
        assert "PRG004" not in rules_of(check_program(fed_jacobi()))

    def test_violate_streamed_edge_into_host(self, rng):
        program = BlasProgram(name="bad")
        program.add_input("x")
        program.feed(x=rng.standard_normal(64))
        program.add_kernel(
            "d", "dot",
            (Ref("x", streamed=False), Ref("x", streamed=False)), k=2)
        program.add_host("h", lambda v: v * 2.0, (Ref("d"),))
        report = check_program(program)
        finding = next(d for d in report if d.rule == "PRG004")
        assert finding.severity is Severity.ERROR
        assert "host" in finding.message

    def test_violate_streamed_edge_into_spanning_gang(self, rng):
        # l = 8 > 6 blades/chassis on the XD1: the gang spans two
        # chassis, so no single intra-chassis link carries the edge.
        program = BlasProgram(name="bad")
        program.add_input("a")
        program.feed(a=rng.standard_normal((512, 512)))
        program.add_kernel(
            "c1", "gemm", (Ref("a", streamed=False),
                           np.ones((512, 512))), k=8, m=16)
        program.add_kernel(
            "c2", "gemm", (Ref("c1", streamed=True),
                           np.ones((512, 512))), k=4, m=16, blades=8)
        report = check_program(program, "xd1")
        finding = next(d for d in report if d.rule == "PRG004")
        assert "spanning 2 chassis" in finding.message
        assert finding.data["l"] == 8


class TestPrg005ReentrySafety:
    def test_pass_pure_host_update(self):
        assert "PRG005" not in rules_of(check_program(fed_jacobi()))

    def test_violate_in_place_mutation(self, rng):
        program = BlasProgram(name="bad")
        program.add_input("x")
        program.feed(x=rng.standard_normal(64))

        def mutate(v):
            v *= 2.0
            return np.array(v)

        program.add_host("h", mutate, (Ref("x", streamed=False),))
        program.add_kernel(
            "d", "dot",
            (Ref("h", streamed=False), Ref("h", streamed=False)), k=2)
        report = check_program(program)
        assert any(d.rule == "PRG005" and "mutates" in d.message
                   for d in errors_of(report))

    def test_violate_aliasing_view_of_input(self, rng):
        program = BlasProgram(name="bad")
        program.add_input("x")
        program.feed(x=rng.standard_normal(64))
        program.add_host("h", lambda v: v[:32],
                         (Ref("x", streamed=False),))
        program.add_kernel(
            "d", "dot",
            (Ref("h", streamed=False), Ref("h", streamed=False)), k=2)
        report = check_program(program)
        assert any(d.rule == "PRG005" and "alias" in d.message
                   for d in errors_of(report))

    def test_pass_view_of_kernel_output(self, rng):
        # Kernel outputs are fresh every pass, so a view is safe.
        program = BlasProgram(name="ok")
        program.add_input("x")
        program.feed(x=rng.standard_normal(64))
        program.add_kernel(
            "y", "gemv",
            (np.ones((64, 64)), Ref("x", streamed=False)), k=4)
        program.add_host("h", lambda v: v[:32],
                         (Ref("y", streamed=False),))
        report = check_program(program)
        assert "PRG005" not in rules_of(report)


class TestPrg006DrcDelegation:
    def test_pass_paper_constants(self):
        assert "PRG006" not in rules_of(check_program(fed_cg()))

    def test_violate_delegates_bandwidth_and_area(self):
        # k = 8 SpMXV blows both DRC006 (SRAM words/cycle) and DRC007
        # (slices) — surfaced as PRG006 with the delegated rule id.
        report = check_program_spec(cg_iteration_spec(1024,
                                                      k_spmxv=8))
        findings = [d for d in report if d.rule == "PRG006"]
        delegated = {d.data["delegated_rule"] for d in findings}
        assert {"DRC006", "DRC007"} <= delegated
        assert all(d.subject == "cg-iteration.Ap" for d in findings)


class TestPrg007Fusion:
    def test_pass_streamed_edge_already(self):
        assert "PRG007" not in rules_of(check_program(fed_cg()))

    def test_violate_unstreamed_colocatable_edge(self, rng):
        program = BlasProgram(name="fusible")
        program.add_input("x")
        program.feed(x=rng.standard_normal(1024))
        program.add_kernel(
            "a", "gemv",
            (np.ones((1024, 1024)), Ref("x", streamed=False)), k=4)
        program.add_kernel(
            "d", "dot",
            (Ref("x", streamed=False), Ref("a", streamed=False)), k=2)
        report = check_program(program)
        finding = next(d for d in report if d.rule == "PRG007")
        assert finding.severity is Severity.INFO
        saved = (edge_cycles(1024, streamed=False)
                 - edge_cycles(1024, streamed=True))
        assert finding.data["saved_cycles"] == saved


class TestSpecSchema:
    def test_unknown_field_raises(self):
        with pytest.raises(ValueError, match="unknown node field"):
            ProgramUnderCheck.from_spec({
                "name": "bad",
                "nodes": [{"name": "x", "kind": "input",
                           "bogus": 1}]})

    def test_duplicate_node_raises(self):
        with pytest.raises(ValueError, match="duplicate node"):
            ProgramUnderCheck.from_spec({
                "name": "bad",
                "nodes": [{"name": "x", "kind": "input"},
                          {"name": "x", "kind": "input"}]})

    def test_bad_kind_raises(self):
        with pytest.raises(ValueError, match="kind"):
            ProgramUnderCheck.from_spec({
                "name": "bad",
                "nodes": [{"name": "x", "kind": "blob"}]})

    def test_operand_needs_exactly_one_of_ref_or_shape(self):
        with pytest.raises(ValueError, match="exactly one"):
            ProgramUnderCheck.from_spec({
                "name": "bad",
                "nodes": [{"name": "d", "kind": "kernel",
                           "operation": "dot",
                           "operands": [{"ref": "x", "shape": [4]},
                                        {"shape": [4]}]}]})

    def test_non_positive_k_raises(self):
        with pytest.raises(ValueError, match="positive"):
            ProgramUnderCheck.from_spec({
                "name": "bad",
                "nodes": [{"name": "d", "kind": "kernel",
                           "operation": "dot", "k": 0,
                           "operands": [{"shape": [4]},
                                        {"shape": [4]}]}]})


class TestGoldenReport:
    # A fixed bad program pins the whole diagnostic surface: rule,
    # subject, message, citation and the baseline fingerprint (which
    # hashes all three) — any drift in wording is a deliberate,
    # reviewed change.
    GOLDEN_SPEC = {
        "name": "golden",
        "nodes": [
            {"name": "x", "kind": "input", "shape": [32]},
            {"name": "y", "kind": "kernel", "operation": "gemv",
             "k": 4,
             "operands": [{"shape": [16, 64]},
                          {"ref": "x", "streamed": False}]},
        ],
    }
    GOLDEN_FINGERPRINT = "04bbc700cf76c32a"

    def test_report_json_is_stable(self):
        report = check_program_spec(self.GOLDEN_SPEC)
        payload = json.loads(report.to_json())
        assert payload["schema"] == "repro.analyze/1"
        assert payload["counts"] == {"errors": 1, "warnings": 0,
                                     "info": 0, "suppressed": 0}
        [diag] = payload["diagnostics"]
        assert diag["rule"] == "PRG001"
        assert diag["subject"] == "golden.y"
        assert diag["fingerprint"] == self.GOLDEN_FINGERPRINT

    def test_fingerprint_is_deterministic(self):
        first = check_program_spec(self.GOLDEN_SPEC)
        second = check_program_spec(self.GOLDEN_SPEC)
        assert [d.fingerprint for d in first] == \
            [d.fingerprint for d in second]


class TestPlanExecuteWiring:
    def test_check_raises_on_bad_program(self, rng):
        program = BlasProgram(name="bad")
        program.add_input("x")
        program.feed(x=rng.standard_normal(32))
        program.add_kernel(
            "y", "gemv", (np.ones((16, 64)), Ref("x", streamed=False)),
            k=4)
        with pytest.raises(DesignRuleError, match="PRG001"):
            program.check()

    def test_check_passes_clean_program(self):
        program = fed_cg(grid=8)
        program.check()
        # Edge-charge parity holds on the checked program.
        plan = program.plan()
        run = program.execute()
        assert plan.streamed_edge_cycles == run.streamed_edge_cycles
        assert plan.dram_edge_cycles == run.dram_edge_cycles

    def test_runtime_rejects_invalid_program_pre_queue(self, rng):
        program = BlasProgram(name="bad")
        program.add_input("x")
        program.feed(x=rng.standard_normal(32))
        program.add_kernel(
            "y", "gemv", (np.ones((16, 64)), Ref("x", streamed=False)),
            k=4)
        runtime = BlasRuntime(chassis=1, blades=2)
        job = runtime.submit(BlasRequest("program", (program, None)))
        assert job.state is JobState.FAILED
        assert "PRG001" in (job.error or "")
        metrics = runtime.run()
        assert metrics.jobs_completed == 0

    def test_runtime_still_runs_valid_program(self, rng):
        matrix = poisson_2d(8)
        program = cg_iteration_program(matrix)
        program.feed(p=rng.standard_normal(matrix.ncols))
        runtime = BlasRuntime(chassis=1, blades=2)
        job = runtime.submit(BlasRequest("program", (program, None)))
        runtime.run()
        assert job.state is JobState.DONE
