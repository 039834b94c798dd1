"""Tests for :class:`repro.blas.program.BlasProgram` (streamed DAGs).

The program's contract mirrors the single-call API's: ``plan()`` and
``execute()`` must agree exactly whenever every node's own predictor is
exact, streamed edges must be strictly cheaper than the DRAM
round-trip they replace, and ``feed()`` must let a solver reuse one
graph across iterations without rebuilding it.
"""

import math

import numpy as np
import pytest

from repro.blas.api import BlasCall, dot
from repro.blas.program import (
    BlasProgram,
    DRAM_EDGE_WORDS_PER_CYCLE,
    ProgramError,
    Ref,
    edge_cycles,
)
from repro.device.area import AreaModel
from repro.device.interconnect import INTRA_CHASSIS_WORDS_PER_CYCLE
from repro.workloads import poisson_2d


@pytest.fixture
def rng():
    return np.random.default_rng(20050512)


def _chain(rng, n=64, streamed=True):
    """gemv → dot with the matvec result on a streamed (or DRAM)
    edge — the minimal two-kernel pipeline."""
    A = rng.standard_normal((n, n))
    x = rng.standard_normal(n)
    program = BlasProgram(name="chain")
    program.add_input("x", x)
    program.add_kernel("Ax", "gemv", (A, Ref("x", streamed=False)),
                       k=4)
    program.add_kernel("xAx", "dot",
                       (Ref("x", streamed=False),
                        Ref("Ax", streamed=streamed)), k=2)
    return program, A, x


class TestEdgeCycles:
    def test_streamed_rides_intra_chassis_link(self):
        assert edge_cycles(256, streamed=True) == math.ceil(
            256 / INTRA_CHASSIS_WORDS_PER_CYCLE)

    def test_dram_pays_round_trip(self):
        assert edge_cycles(256, streamed=False) == 2 * math.ceil(
            256 / DRAM_EDGE_WORDS_PER_CYCLE)

    def test_streamed_strictly_cheaper(self):
        for words in (1, 7, 64, 4096):
            assert (edge_cycles(words, True)
                    < edge_cycles(words, False))

    def test_empty_edge_free(self):
        assert edge_cycles(0, True) == 0
        assert edge_cycles(0, False) == 0


class TestConstruction:
    def test_refs_must_point_backwards(self):
        program = BlasProgram()
        with pytest.raises(ProgramError, match="unknown node"):
            program.add_kernel("y", "dot",
                               (Ref("nope"), Ref("nope")))

    def test_duplicate_node_rejected(self):
        program = BlasProgram()
        program.add_input("x")
        with pytest.raises(ProgramError, match="duplicate"):
            program.add_input("x")

    def test_unknown_operation_rejected(self):
        program = BlasProgram()
        with pytest.raises(ProgramError, match="unknown kernel"):
            program.add_kernel("y", "cholesky", ())

    def test_feed_rejects_non_input(self, rng):
        program, _, _ = _chain(rng)
        with pytest.raises(ProgramError, match="no input node"):
            program.feed(Ax=rng.standard_normal(4))

    def test_kernel_only_program_requires_fed_inputs(self):
        program = BlasProgram()
        program.add_input("u")
        program.add_kernel("d", "dot", (Ref("u"), Ref("u")))
        with pytest.raises(ProgramError, match="feed"):
            program.execute()

    def test_no_kernel_nodes_rejected(self):
        program = BlasProgram()
        program.add_input("x", np.zeros(4))
        program.add_host("y", lambda v: v + 1, (Ref("x"),))
        with pytest.raises(ProgramError, match="no kernel"):
            program.plan()

    def test_structure_key_ignores_data(self, rng):
        first, _, _ = _chain(rng)
        second, _, _ = _chain(rng)
        assert first.structure_key() == second.structure_key()
        dram, _, _ = _chain(rng, streamed=False)
        assert dram.structure_key() != first.structure_key()


class TestPlanExecuteParity:
    def test_gemv_dot_chain_exact(self, rng):
        program, _, _ = _chain(rng)
        plan = program.plan()
        run = program.execute()
        assert plan.predicted_cycles == run.report.total_cycles
        assert plan.streamed_edge_cycles == run.streamed_edge_cycles
        assert plan.dram_edge_cycles == run.dram_edge_cycles
        assert plan.flops == run.report.flops

    def test_kernel_cycles_sum_of_node_plans(self, rng):
        program, _, x = _chain(rng)
        plan = program.plan()
        n = len(x)
        assert plan.kernel_cycles == (
            BlasCall("gemv", shape=(n, n), k=4).plan().predicted_cycles
            + BlasCall("dot", shape=(n,), k=2).plan().predicted_cycles)
        assert set(plan.node_plans) == {"Ax", "xAx"}

    def test_edge_totals_split_by_class(self, rng):
        n = 64
        streamed_prog, _, _ = _chain(rng, n=n, streamed=True)
        dram_prog, _, _ = _chain(rng, n=n, streamed=False)
        s_run = streamed_prog.execute()
        d_run = dram_prog.execute()
        # The Ax→xAx edge carries n words; only its class changes.
        delta = (edge_cycles(n, False) - edge_cycles(n, True))
        assert (d_run.report.total_cycles
                == s_run.report.total_cycles + delta)
        assert s_run.streamed_edge_cycles == edge_cycles(n, True)
        assert d_run.streamed_edge_cycles == 0

    def test_host_edge_forced_to_dram(self, rng):
        # A Ref into a host node is charged as DRAM even when asked
        # to stream: the value must land in host memory.
        n = 32
        program = BlasProgram()
        program.add_input("x", rng.standard_normal(n))
        program.add_kernel("d", "dot",
                           (Ref("x", streamed=False),
                            Ref("x", streamed=False)), k=2)
        program.add_host("out", lambda v: v * 2.0,
                         (Ref("d", streamed=True),))
        run = program.execute()
        assert run.streamed_edge_cycles == 0
        # Two x→dot edges of n words each, plus the scalar d→host edge.
        assert run.dram_edge_cycles == (2 * edge_cycles(n, False)
                                        + edge_cycles(1, False))

    def test_spmxv_node_plans_close(self, rng):
        matrix = poisson_2d(10)
        program = BlasProgram(name="jacobi-ish")
        program.add_input("x", rng.standard_normal(matrix.ncols))
        program.add_kernel("Rx", "spmxv",
                           (matrix, Ref("x", streamed=False)), k=4)
        program.add_kernel("nrm", "dot", (Ref("Rx"), Ref("Rx")), k=2)
        plan = program.plan()
        run = program.execute(sim_mode="fast")
        # spmxv's predictor is approximate (data-dependent flush); the
        # program-level drift is bounded by the node-level drift.
        assert plan.predicted_cycles == pytest.approx(
            run.report.total_cycles, rel=0.1)
        assert plan.streamed_edge_cycles == run.streamed_edge_cycles


class TestExecution:
    def test_values_and_reference_match_numpy(self, rng):
        program, A, x = _chain(rng)
        run = program.execute()
        np.testing.assert_allclose(run.values["Ax"], A @ x,
                                   rtol=1e-11, atol=1e-11)
        assert run.value == pytest.approx(float(x @ (A @ x)),
                                          rel=1e-10)
        assert program.reference() == pytest.approx(run.value,
                                                    rel=1e-10)

    def test_feed_streams_new_vectors_through_one_graph(self, rng):
        program, A, _ = _chain(rng)
        for _ in range(3):
            x = rng.standard_normal(A.shape[0])
            run = program.feed(x=x).execute()
            assert run.value == pytest.approx(float(x @ (A @ x)),
                                              rel=1e-10)

    def test_host_node_runs_numpy_glue(self, rng):
        matrix = poisson_2d(6)
        b = rng.standard_normal(matrix.ncols)
        program = BlasProgram()
        program.add_input("x", rng.standard_normal(matrix.ncols))
        program.add_kernel("Ax", "spmxv",
                           (matrix, Ref("x", streamed=False)), k=4)
        program.add_host("residual", lambda ax: b - ax,
                         (Ref("Ax"),))
        run = program.execute()
        np.testing.assert_allclose(
            run.values["residual"],
            b - matrix.to_dense() @ program.nodes[0].value,
            rtol=1e-10, atol=1e-10)

    def test_sim_mode_fast_identical_cycles(self, rng):
        program, _, _ = _chain(rng)
        cycle = program.execute(sim_mode="cycle")
        fast = program.execute(sim_mode="fast")
        assert cycle.report.total_cycles == fast.report.total_cycles
        assert cycle.value == pytest.approx(fast.value, rel=1e-12)

    def test_call_options_pass_through(self, rng):
        n = 64
        u = rng.standard_normal(n)
        program = BlasProgram()
        program.add_input("u", u)
        program.add_kernel("d", "dot",
                           (Ref("u", streamed=False),
                            Ref("u", streamed=False)),
                           k=2, clock_mhz=85.0, on_xd1=True)
        run = program.execute(sim_mode="fast")
        report = run.node_reports["d"]
        assert report.clock_mhz == 85.0
        assert report.area_slices == AreaModel().dot_product_design(
            2, on_xd1=True).slices
        assert run.value == dot(u, u, k=2, clock_mhz=85.0, on_xd1=True,
                                sim_mode="fast").value
