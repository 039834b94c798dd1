"""Service tests: the sync core end-to-end, then the TCP layer.

The deterministic core (:class:`BlasService`) carries all the
behaviour, so most coverage drives it directly with message dicts; a
final class round-trips the same flows over a real asyncio socket.
"""

import asyncio
import hashlib
import json
import logging
import socket
import struct
import threading

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.serve import protocol
from repro.serve.server import (
    BlasServer,
    BlasService,
    ServeConfig,
    materialize,
    result_digest,
    run_server,
)
from repro.serve.tenant import TenantQuota
from repro.obs.slo import BurnWindow, SloObjective, SloSpec


def submit(service, tenant, spec, *, at=0.0, client_id=None):
    return service.handle({"op": "submit", "id": client_id,
                           "tenant": tenant, "at": at, "call": spec})


class TestMaterialize:
    def test_same_seed_same_operands(self):
        spec = {"operation": "gemv", "n": 16, "seed": 9}
        a = materialize(spec)
        b = materialize(spec)
        assert np.array_equal(a.operands[0], b.operands[0])
        assert np.array_equal(a.operands[1], b.operands[1])

    def test_spmxv_n_is_grid_width(self):
        request = materialize({"operation": "spmxv", "n": 6, "seed": 1})
        matrix, x = request.operands
        assert matrix.nrows == 36
        assert len(x) == 36

    def test_cg_materializes_a_program(self):
        request = materialize({"operation": "cg", "n": 6, "seed": 4})
        assert request.operation == "program"
        program = request.operands[0]
        assert program.nodes[0].value is not None
        assert len(program.nodes[0].value) == 36
        assert [n.name for n in program.nodes] == ["p", "Ap", "pAp"]

    def test_cg_same_seed_same_descent_vector(self):
        spec = {"operation": "cg", "n": 6, "seed": 4}
        a = materialize(spec).operands[0]
        b = materialize(spec).operands[0]
        np.testing.assert_array_equal(a.nodes[0].value,
                                      b.nodes[0].value)


class TestResultDigest:
    def test_deterministic_and_shape_sensitive(self):
        value = np.arange(6, dtype=np.float64)
        assert result_digest(value) == result_digest(value.copy())
        assert result_digest(value) != result_digest(value[:-1])
        assert result_digest(1.5) == result_digest(np.array([1.5]))


class TestServiceCore:
    def test_submit_drain_metrics_flow(self):
        service = BlasService()
        for i in range(6):
            response = submit(service, "astro",
                              {"operation": "dot", "n": 64, "seed": i},
                              at=i * 1e-3, client_id=i)
            assert response["type"] == "accepted"
            assert response["seq"] == i
        drained = service.handle({"op": "drain"})
        assert drained["type"] == "drained"
        assert drained["epoch"] == 1
        assert len(drained["results"]) == 6
        assert all(r["state"] == "done" for r in drained["results"])
        assert all(len(r["digest"]) == 16 for r in drained["results"])
        metrics = service.handle({"op": "metrics"})["metrics"]
        assert metrics["jobs"]["completed"] == 6
        assert metrics["tenants"]["astro"]["jobs"]["completed"] == 6
        assert metrics["starved_tenants"] == []

    def test_cg_program_drains_end_to_end(self):
        service = BlasService()
        for i in range(3):
            response = submit(
                service, "solver",
                {"operation": "cg", "n": 6, "k": 4, "seed": i},
                at=i * 1e-3, client_id=i)
            assert response["type"] == "accepted"
        drained = service.handle({"op": "drain"})
        assert all(r["state"] == "done" for r in drained["results"])
        # Same seeds replay byte-identically: digests are the
        # fingerprint the smoke job compares across runs.
        replay = BlasService()
        for i in range(3):
            submit(replay, "solver",
                   {"operation": "cg", "n": 6, "k": 4, "seed": i},
                   at=i * 1e-3, client_id=i)
        redrained = replay.handle({"op": "drain"})
        assert ([r["digest"] for r in drained["results"]]
                == [r["digest"] for r in redrained["results"]])

    def test_results_keep_submission_order(self):
        service = BlasService()
        for i in range(4):
            submit(service, "t",
                   {"operation": "dot", "n": 32, "seed": i},
                   at=0.0, client_id=100 + i)
        drained = service.handle({"op": "drain"})
        assert [r["id"] for r in drained["results"]] == [100, 101,
                                                         102, 103]

    def test_invalid_call_typed_reject(self):
        service = BlasService()
        response = submit(service, "astro", {"operation": "dot"})
        assert response["type"] == "rejected"
        assert response["reason"] == protocol.REJECT_INVALID
        metrics = service.handle({"op": "metrics"})["metrics"]
        assert metrics["tenants"]["astro"]["jobs"]["rejected"] == 1

    def test_clock_mhz_is_rejected_not_ignored(self):
        # Every design runs at its own achievable clock, so a requested
        # clock would be silently dropped; the call is refused instead.
        service = BlasService()
        response = submit(service, "astro",
                          {"operation": "dot", "n": 64,
                           "clock_mhz": 1.0})
        assert response["type"] == "rejected"
        assert response["reason"] == protocol.REJECT_INVALID
        assert "clock_mhz" in response["detail"]
        assert service.handle({"op": "drain"})["results"] == []

    def test_invalid_program_typed_reject_pre_admission(self):
        # cg with k=8 passes protocol validation but fails static
        # program verification (PRG006: the spmxv node's SRAM demand
        # exceeds the XD1 budget) — rejected before any job exists.
        service = BlasService()
        response = submit(service, "solver",
                          {"operation": "cg", "n": 12, "k": 8,
                           "seed": 0})
        assert response["type"] == "rejected"
        assert response["reason"] == protocol.REJECT_PROGRAM
        assert response["diagnostic"]["rule"] == "PRG006"
        assert response["diagnostic"]["message"]
        assert "PRG006" in response["detail"]
        metrics = service.handle({"op": "metrics"})["metrics"]
        assert metrics["tenants"]["solver"]["jobs"]["rejected"] == 1
        assert metrics["jobs"]["completed"] == 0
        drained = service.handle({"op": "drain"})
        assert drained["results"] == []

    def test_valid_program_passes_the_verifier(self):
        service = BlasService()
        response = submit(service, "solver",
                          {"operation": "cg", "n": 12, "k": 4,
                           "seed": 0})
        assert response["type"] == "accepted"

    def test_missing_tenant_rejected(self):
        service = BlasService()
        response = service.handle({
            "op": "submit", "at": 0.0,
            "call": {"operation": "dot", "n": 8}})
        assert response["reason"] == protocol.REJECT_INVALID

    def test_bad_arrival_time_rejected(self):
        service = BlasService()
        for at in (-1.0, float("nan"), "soon", True):
            response = service.handle({
                "op": "submit", "tenant": "t", "at": at,
                "call": {"operation": "dot", "n": 8}})
            assert response["reason"] == protocol.REJECT_INVALID

    def test_huge_integer_arrival_time_rejected(self):
        # 10**400 has no float value; it must be a typed reject, not a
        # TypeError out of the finiteness check.
        service = BlasService()
        response = service.handle({
            "op": "submit", "tenant": "t", "at": 10 ** 400,
            "call": {"operation": "dot", "n": 8}})
        assert response["reason"] == protocol.REJECT_INVALID

    def test_quota_exhaustion_typed_reject(self):
        """Satellite scenario end-to-end: burst spent at t=0 -> every
        further submit rejected with reason quota_exhausted."""
        service = BlasService(
            quotas={"greedy": TenantQuota(rate=1.0, burst=3)})
        spec = {"operation": "dot", "n": 32, "seed": 0}
        verdicts = [submit(service, "greedy", spec)["type"]
                    for _ in range(5)]
        assert verdicts == ["accepted"] * 3 + ["rejected"] * 2
        response = submit(service, "greedy", spec)
        assert response["reason"] == protocol.REJECT_QUOTA
        metrics = service.handle({"op": "metrics"})["metrics"]
        tenant_jobs = metrics["tenants"]["greedy"]["jobs"]
        assert tenant_jobs["quota_throttles"] == 3
        assert tenant_jobs["admitted"] == 3
        assert metrics["jobs"]["quota_throttles"] == 3

    def test_pending_cap_typed_reject_and_drain_resets(self):
        service = BlasService(quotas={
            "t": TenantQuota(rate=1e6, burst=1000, max_pending=2)})
        spec = {"operation": "dot", "n": 32, "seed": 0}
        assert submit(service, "t", spec)["type"] == "accepted"
        assert submit(service, "t", spec)["type"] == "accepted"
        response = submit(service, "t", spec)
        assert response["reason"] == protocol.REJECT_PENDING
        service.handle({"op": "drain"})
        assert submit(service, "t", spec,
                      at=1e-3)["type"] == "accepted"

    def test_empty_drain(self):
        service = BlasService()
        drained = service.handle({"op": "drain"})
        assert drained["results"] == []
        assert drained["makespan_seconds"] == 0.0

    def test_unplannable_call_fails_job_not_server(self):
        # gemm n=8 at k=8 violates the m^2/k > alpha hazard rule; the
        # service must report a failed job, not crash the epoch.
        service = BlasService()
        submit(service, "t", {"operation": "gemm", "n": 8, "k": 8,
                              "seed": 0})
        submit(service, "t", {"operation": "dot", "n": 64, "seed": 0})
        drained = service.handle({"op": "drain"})
        states = sorted(r["state"] for r in drained["results"])
        assert states == ["done", "failed"]

    @pytest.mark.parametrize("operation", ["dot", "gemm", "spmxv", "cg"])
    def test_unbuildable_call_fails_alone(self, operation):
        # n = 2**62 passes validation, but NumPy refuses the operand
        # size before allocating anything: that one call fails with
        # the error text and the rest of the epoch still runs.
        service = BlasService()
        submit(service, "t", {"operation": "dot", "n": 64, "seed": 0},
               client_id=0)
        submit(service, "t", {"operation": operation, "n": 2**62,
                              "seed": 0}, client_id=1)
        submit(service, "u", {"operation": "gemv", "n": 16, "seed": 0},
               client_id=2)
        drained = service.handle({"op": "drain"})
        by_id = {r["id"]: r for r in drained["results"]}
        assert [by_id[i]["state"] for i in range(3)] == [
            "done", "failed", "done"]
        assert "operands could not be built" in by_id[1]["error"]
        jobs = service.handle({"op": "metrics"})["metrics"]["jobs"]
        assert (jobs["completed"], jobs["failed"]) == (2, 1)
        assert (jobs["completed"] + jobs["failed"] + jobs["rejected"]
                + jobs["quota_throttles"]) == jobs["submitted"]

    def test_hello_binds_and_unknown_op_errors(self):
        service = BlasService()
        hello = service.handle({"op": "hello", "tenant": "astro"})
        assert hello["type"] == "hello"
        assert service.handle({"op": "nope"})["type"] == "error"
        assert service.handle({"op": "hello", "tenant": ""})[
            "type"] == "error"

    def test_multi_epoch_accumulation(self):
        service = BlasService()
        spec = {"operation": "dot", "n": 64, "seed": 3}
        submit(service, "a", spec)
        service.handle({"op": "drain"})
        submit(service, "a", spec, at=1e-3)
        submit(service, "b", spec, at=1e-3)
        service.handle({"op": "drain"})
        metrics = service.handle({"op": "metrics"})["metrics"]
        assert metrics["epochs"] == 2
        assert metrics["tenants"]["a"]["jobs"]["completed"] == 2
        assert metrics["tenants"]["b"]["jobs"]["completed"] == 1

    def test_same_seed_metrics_byte_identical(self):
        def run():
            service = BlasService()
            rng = np.random.default_rng(11)
            for i in range(40):
                op = ("dot", "gemv", "gemm")[i % 3]
                n = (64, 16, 32)[i % 3]
                submit(service, ("a", "b")[i % 2],
                       {"operation": op, "n": n,
                        "seed": int(rng.integers(0, 2**31))},
                       at=i * 1e-4, client_id=i)
            drained = service.handle({"op": "drain"})
            metrics = service.handle({"op": "metrics"})
            return (protocol.encode(drained),
                    protocol.encode(metrics))

        assert run() == run()

    def test_fair_share_rank_orders_execution(self):
        """A flood from one tenant must not run entirely before a
        later-submitting tenant's call on a single blade."""
        config = ServeConfig(blades=1, coalesce_window=0.0)
        service = BlasService(config)
        for i in range(12):
            submit(service, "hostile",
                   {"operation": "dot", "n": 64, "seed": i},
                   client_id=i)
        submit(service, "victim",
               {"operation": "gemv", "n": 24, "seed": 99},
               client_id=99)
        drained = service.handle({"op": "drain"})
        victim = next(r for r in drained["results"] if r["id"] == 99)
        hostile_waits = sorted(
            r["wait_seconds"] for r in drained["results"]
            if r["tenant"] == "hostile")
        # The victim is served ahead of most of the flood.
        assert victim["wait_seconds"] < hostile_waits[-3]

    def test_gang_option_flows_through(self):
        config = ServeConfig(blades=4, max_gang=2)
        service = BlasService(config)
        submit(service, "t", {"operation": "gemm", "n": 48,
                              "blades": 2, "seed": 0})
        drained = service.handle({"op": "drain"})
        assert drained["results"][0]["state"] == "done"
        registry = service.metrics()["registry"]["metrics"]
        assert registry["runtime.gangs"]["value"] == 1.0

    def test_gang_without_a_one_blade_design_fails_alone(self):
        # Two single-blade gemms hold two of the three one-blade
        # chassis, so the m = 8 gemm's 2-blade gang falls back to the
        # last blade, where the single-blade array refuses m²/k = 8:
        # that call fails and the epoch still reports all three.
        service = BlasService(ServeConfig(chassis=3, blades=1,
                                          max_gang=2))
        for i, n in enumerate((128, 96)):
            submit(service, "t", {"operation": "gemm", "n": n, "m": 32,
                                  "blades": 1, "seed": i}, client_id=i)
        submit(service, "t", {"operation": "gemm", "n": 64, "m": 8,
                              "seed": 2}, client_id=2)
        drained = service.handle({"op": "drain"})
        states = {r["id"]: r["state"] for r in drained["results"]}
        assert states == {0: "done", 1: "done", 2: "failed"}
        jobs = service.handle({"op": "metrics"})["metrics"]["jobs"]
        assert (jobs["completed"], jobs["failed"]) == (2, 1)
        assert (jobs["completed"] + jobs["failed"] + jobs["rejected"]
                + jobs["quota_throttles"]) == jobs["submitted"]

    def test_hybrid_clock_same_results_as_virtual(self):
        def run(mode):
            config = ServeConfig(clock_mode=mode, time_scale=1e6)
            service = BlasService(config)
            for i in range(8):
                submit(service, "t",
                       {"operation": "dot", "n": 64, "seed": i},
                       at=i * 1e-4, client_id=i)
            return protocol.encode(service.handle({"op": "drain"}))

        assert run("virtual") == run("hybrid")


def _start_server(service):
    box = {}
    ready = threading.Event()

    def grab(port):
        box["port"] = port
        ready.set()

    thread = threading.Thread(target=run_server, args=(service,),
                              kwargs={"ready": grab}, daemon=True)
    thread.start()
    assert ready.wait(10)
    return thread, box["port"]


async def _roundtrip(port, messages):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    responses = []
    for message in messages:
        writer.write(protocol.encode(message))
        await writer.drain()
        responses.append(protocol.decode(await reader.readline()))
    writer.close()
    return responses


async def _raw_roundtrip(port, lines):
    """Send each raw line and read one reply to it, on one
    connection."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    replies = []
    for line in lines:
        writer.write(line)
        await writer.drain()
        replies.append(protocol.decode(await reader.readline()))
    writer.close()
    return replies


class TestTcpServer:
    def test_full_session_over_socket(self):
        service = BlasService()
        thread, port = _start_server(service)
        spec = {"operation": "dot", "n": 64, "seed": 4}
        responses = asyncio.run(_roundtrip(port, [
            {"op": "hello", "tenant": "astro"},
            # hello bound the connection's tenant: none on the submit
            {"op": "submit", "id": 0, "at": 0.0, "call": spec},
            {"op": "drain"},
            {"op": "metrics"},
            {"op": "bogus"},
            {"op": "shutdown"},
        ]))
        thread.join(10)
        assert not thread.is_alive()
        hello, accepted, drained, metrics, bogus, bye = responses
        assert hello["type"] == "hello"
        assert accepted["type"] == "accepted"
        assert drained["results"][0]["tenant"] == "astro"
        assert drained["results"][0]["state"] == "done"
        assert metrics["metrics"]["jobs"]["completed"] == 1
        assert bogus["type"] == "error"
        assert bye["type"] == "shutdown"

    def test_shutdown_closes_idle_peers_without_error(self, caplog):
        service = BlasService()
        thread, port = _start_server(service)

        async def scenario():
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(protocol.encode({"op": "hello",
                                          "tenant": "idle"}))
            await writer.drain()
            await reader.readline()  # its handler is running
            bye = await _roundtrip(port, [{"op": "shutdown"}])
            rest = await asyncio.wait_for(reader.read(), 10)
            writer.close()
            return bye, rest

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            (bye,), rest = asyncio.run(scenario())
            thread.join(10)
        assert not thread.is_alive()
        assert bye["type"] == "shutdown"
        assert rest == b""  # the idle peer reads EOF
        assert [record for record in caplog.records
                if record.name == "asyncio"] == []

    def test_unbuildable_call_fails_alone_over_socket(self):
        service = BlasService()
        thread, port = _start_server(service)
        responses = asyncio.run(_roundtrip(port, [
            {"op": "hello", "tenant": "astro"},
            {"op": "submit", "id": 0, "at": 0.0,
             "call": {"operation": "dot", "n": 2**62, "seed": 0}},
            {"op": "submit", "id": 1, "at": 0.0,
             "call": {"operation": "dot", "n": 64, "seed": 1}},
            {"op": "drain"},
            {"op": "metrics"},
            {"op": "shutdown"},
        ]))
        thread.join(10)
        assert not thread.is_alive()
        _, first, second, drained, metrics, bye = responses
        assert first["type"] == second["type"] == "accepted"
        states = {r["id"]: r["state"] for r in drained["results"]}
        assert states == {0: "failed", 1: "done"}
        jobs = metrics["metrics"]["jobs"]
        assert (jobs["completed"], jobs["failed"], jobs["submitted"]) \
            == (1, 1, 2)
        assert bye["type"] == "shutdown"

    def test_invalid_program_rejected_over_socket(self):
        # The wire-level round trip of the static-verifier reject:
        # the typed reason and first diagnostic survive the protocol.
        service = BlasService()
        thread, port = _start_server(service)
        responses = asyncio.run(_roundtrip(port, [
            {"op": "hello", "tenant": "solver"},
            {"op": "submit", "id": 0, "at": 0.0,
             "call": {"operation": "cg", "n": 12, "k": 8, "seed": 0}},
            {"op": "submit", "id": 1, "at": 0.0,
             "call": {"operation": "cg", "n": 12, "k": 4, "seed": 0}},
            {"op": "shutdown"},
        ]))
        thread.join(10)
        assert not thread.is_alive()
        hello, rejected, accepted, bye = responses
        assert rejected["ok"] is False
        assert rejected["reason"] == "invalid_program"
        assert rejected["diagnostic"]["rule"] == "PRG006"
        assert "static verification" in rejected["detail"]
        assert accepted["type"] == "accepted"

    def test_malformed_line_gets_error_response(self):
        service = BlasService()
        thread, port = _start_server(service)

        async def scenario():
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"this is not json\n")
            await writer.drain()
            first = protocol.decode(await reader.readline())
            writer.write(protocol.encode({"op": "shutdown"}))
            await writer.drain()
            second = protocol.decode(await reader.readline())
            writer.close()
            return first, second

        first, second = asyncio.run(scenario())
        thread.join(10)
        assert first["type"] == "error"
        assert second["type"] == "shutdown"

    def test_non_utf8_line_gets_error_and_connection_survives(
            self, caplog):
        service = BlasService()
        thread, port = _start_server(service)

        async def scenario():
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b'{"op": "metrics"}\xff\n')
            await writer.drain()
            first = protocol.decode(await reader.readline())
            writer.write(protocol.encode({"op": "hello",
                                          "tenant": "astro"}))
            await writer.drain()
            second = protocol.decode(await reader.readline())
            writer.write(protocol.encode({"op": "shutdown"}))
            await writer.drain()
            third = protocol.decode(await reader.readline())
            writer.close()
            return first, second, third

        first, second, third = asyncio.run(scenario())
        thread.join(10)
        assert first["type"] == "error"
        assert "UTF-8" in first["detail"]
        assert second["type"] == "hello"
        assert third["type"] == "shutdown"
        assert "client_connected_cb" not in caplog.text

    def test_deeply_nested_line_gets_error_and_connection_survives(
            self, caplog):
        service = BlasService()
        thread, port = _start_server(service)

        async def scenario():
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(b"[" * 100_000 + b"]" * 100_000 + b"\n")
            await writer.drain()
            first = protocol.decode(await reader.readline())
            writer.write(protocol.encode({"op": "metrics"}))
            await writer.drain()
            second = protocol.decode(await reader.readline())
            writer.write(protocol.encode({"op": "shutdown"}))
            await writer.drain()
            third = protocol.decode(await reader.readline())
            writer.close()
            return first, second, third

        first, second, third = asyncio.run(scenario())
        thread.join(10)
        assert not thread.is_alive()
        assert first["type"] == "error"
        assert "nested" in first["detail"]
        assert second["type"] == "metrics"
        assert third["type"] == "shutdown"
        assert "client_connected_cb" not in caplog.text

    def test_huge_integer_arrival_time_gets_reject_and_connection_survives(
            self, caplog):
        service = BlasService()
        thread, port = _start_server(service)
        huge_at = (b'{"op":"submit","tenant":"astro","at":1'
                   + b"0" * 400
                   + b',"call":{"operation":"dot","n":8}}\n')
        first, second, third = asyncio.run(_raw_roundtrip(port, [
            huge_at,
            protocol.encode({"op": "metrics"}),
            protocol.encode({"op": "shutdown"})]))
        thread.join(10)
        assert not thread.is_alive()
        assert first["type"] == "rejected"
        assert first["reason"] == protocol.REJECT_INVALID
        assert second["type"] == "metrics"
        assert third["type"] == "shutdown"
        assert "client_connected_cb" not in caplog.text

    def test_integer_past_digit_limit_gets_error_and_connection_survives(
            self, caplog):
        service = BlasService()
        thread, port = _start_server(service)
        first, second, third = asyncio.run(_raw_roundtrip(port, [
            b'{"op":"submit","at":' + b"1" * 5000 + b"}\n",
            protocol.encode({"op": "metrics"}),
            protocol.encode({"op": "shutdown"})]))
        thread.join(10)
        assert first["type"] == "error"
        assert "not valid JSON" in first["detail"]
        assert second["type"] == "metrics"
        assert third["type"] == "shutdown"
        assert "client_connected_cb" not in caplog.text

    def test_fault_in_handle_gets_error_and_connection_survives(
            self, monkeypatch, caplog):
        service = BlasService()

        def broken_drain():
            raise RuntimeError("drain broke")

        monkeypatch.setattr(service, "drain", broken_drain)
        thread, port = _start_server(service)
        first, second, third = asyncio.run(_roundtrip(port, [
            {"op": "drain"}, {"op": "metrics"}, {"op": "shutdown"}]))
        thread.join(10)
        assert first["type"] == "error"
        assert "RuntimeError: drain broke" in first["detail"]
        assert second["type"] == "metrics"
        assert third["type"] == "shutdown"
        assert "drain broke" in caplog.text  # logged with its traceback
        assert "client_connected_cb" not in caplog.text

    def test_oversize_line_gets_one_error_then_close(
            self, monkeypatch, caplog):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "STREAM_LIMIT", 1024)
        service = BlasService()
        thread, port = _start_server(service)

        async def scenario():
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=1 << 20)
            writer.write(b'{"op": "' + b"x" * 4096 + b'"}\n')
            await writer.drain()
            replies = []
            while True:
                line = await reader.readline()
                if not line:
                    break
                replies.append(protocol.decode(line))
            writer.close()
            # The service keeps serving other connections.
            return replies, await _roundtrip(port, [
                {"op": "shutdown"}])

        replies, (bye,) = asyncio.run(scenario())
        thread.join(10)
        assert len(replies) == 1
        assert replies[0]["type"] == "error"
        assert "1024-byte limit" in replies[0]["detail"]
        assert bye["type"] == "shutdown"
        assert "client_connected_cb" not in caplog.text

    @staticmethod
    async def _served(rude: bool):
        """One server on this loop: optionally a client that queues
        3000 submits and resets the connection (TCP RST via SO_LINGER
        0) without reading a reply, then a well-behaved client's
        session.  Returns the loop's unhandled-exception contexts and
        the well-behaved client's (id, state, digest) results."""
        loop = asyncio.get_running_loop()
        unhandled = []
        loop.set_exception_handler(
            lambda _, context: unhandled.append(context))

        async def settle():
            handlers = asyncio.all_tasks() - {asyncio.current_task()}
            if handlers:
                _, pending = await asyncio.wait(handlers, timeout=30)
                assert not pending

        server = BlasServer(BlasService())
        await server.start()
        if rude:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(protocol.encode({"op": "hello",
                                          "tenant": "rude"}))
            await reader.readline()  # its handler is running
            writer.write(protocol.encode(
                {"op": "submit", "at": 0.0,
                 "call": {"operation": "dot", "n": 16, "seed": 0}})
                * 3000)
            await writer.drain()
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                struct.pack("ii", 1, 0))
            writer.close()
            await settle()
        replies = await _roundtrip(server.port, [
            {"op": "submit", "id": i, "tenant": "calm", "at": i * 1e-4,
             "call": {"operation": ("dot", "gemv", "gemm")[i % 3],
                      "n": 32, "seed": i}}
            for i in range(6)] + [{"op": "drain"}])
        await settle()
        server._server.close()
        await server._server.wait_closed()
        return unhandled, [(r["id"], r["state"], r["digest"])
                           for r in replies[-1]["results"]
                           if r["tenant"] == "calm"]

    def test_client_reset_ends_its_connection_quietly(self):
        unhandled, results = asyncio.run(self._served(rude=True))
        assert unhandled == []
        quiet_unhandled, quiet = asyncio.run(self._served(rude=False))
        assert quiet_unhandled == []
        assert len(quiet) == 6
        assert all(state == "done" for _, state, _ in quiet)
        assert results == quiet

    def test_ephemeral_port_allocation(self):
        async def scenario():
            server = BlasServer(BlasService(), port=0)
            await server.start()
            assert server.port > 0
            server._server.close()
            await server._server.wait_closed()

        asyncio.run(scenario())


class TestObservability:
    """Live telemetry: registry, SLO monitor, flight recorder."""

    @staticmethod
    def _tight_slo():
        return SloSpec(objectives=(
            SloObjective(name="lat-tight", kind="latency",
                         threshold=1e-9, quantile=0.5,
                         windows=(BurnWindow(0.25), BurnWindow(2.0))),
        ))

    @staticmethod
    def _drive(service, count=12):
        for i in range(count):
            submit(service, "astro",
                   {"operation": "dot", "n": 64, "seed": i},
                   at=i * 1e-4, client_id=i)
        service.handle({"op": "drain"})

    def test_metrics_payload_has_observability_keys(self):
        service = BlasService()
        self._drive(service)
        metrics = service.handle({"op": "metrics"})["metrics"]
        assert metrics["slo"] is None
        registry = metrics["registry"]["metrics"]
        assert registry["runtime.jobs.completed"]["value"] == 12.0
        assert registry["serve.submitted"]["value"] == 12.0
        assert registry["serve.latency_seconds"]["count"] == 12
        assert metrics["flight"]["seen"] == 12
        assert metrics["trace"]["events"] >= 1

    def test_metrics_read_the_registry_without_adding_to_it(self):
        service = BlasService()
        self._drive(service)
        service.handle({"op": "hello", "tenant": "idle"})
        size = len(service.registry)
        metrics = service.metrics()
        assert len(service.registry) == size
        registry = metrics["registry"]["metrics"]
        for block in ("wait_seconds", "latency_seconds"):
            assert metrics[block]["p99"] == \
                registry[f"serve.{block}"]["p99"]
            tenant = registry[f'serve.{block}.tenant{{tenant="astro"}}']
            assert metrics["tenants"]["astro"][block] == {
                "p50": tenant["p50"], "p99": tenant["p99"]}
        assert registry['serve.results.tenant{state="done",'
                        'tenant="astro"}']["value"] == 12.0
        assert metrics["tenants"]["idle"]["latency_seconds"] == {
            "p50": 0.0, "p99": 0.0}

    def test_registry_tracks_runtime_counters(self):
        service = BlasService()
        self._drive(service)
        registry = service.handle(
            {"op": "metrics"})["metrics"]["registry"]["metrics"]
        assert registry["serve.epochs"]["value"] == 1.0
        assert registry["runtime.flops"]["value"] > 0.0
        assert registry["serve.pending"]["value"] == 0.0

    def test_tight_slo_breaches_with_trace_instant(self):
        service = BlasService(ServeConfig(slo=self._tight_slo()))
        self._drive(service)
        verdict = service.handle({"op": "slo"})["slo"]
        assert verdict["ok"] is False
        assert verdict["breached"] == ["lat-tight"]
        breaches = [i for i in service.recorder.instants
                    if i.name == "slo.breach"]
        assert len(breaches) == 1
        assert breaches[0].args["objective"] == "lat-tight"
        assert service.flight.breaches_seen == 1

    def test_loose_slo_stays_ok(self):
        spec = SloSpec(objectives=(
            SloObjective(name="lat-loose", kind="latency",
                         threshold=1e3, quantile=0.5,
                         windows=(BurnWindow(2.0),)),))
        service = BlasService(ServeConfig(slo=spec))
        self._drive(service)
        verdict = service.handle({"op": "slo"})["slo"]
        assert verdict["ok"] is True

    def test_slo_op_without_spec_is_null(self):
        service = BlasService()
        response = service.handle({"op": "slo"})
        assert response["type"] == "slo"
        assert response["slo"] is None

    def test_observability_snapshot_byte_identical(self):
        def run():
            service = BlasService(ServeConfig(
                slo=self._tight_slo(), flight_tail_latency=1e-3))
            self._drive(service)
            return json.dumps(service.observability_snapshot(),
                              sort_keys=True,
                              separators=(",", ":"))

        first, second = run(), run()
        assert first == second
        snapshot = json.loads(first)
        assert set(snapshot) == {"flight", "registry", "service",
                                 "slo"}

    def test_rejects_feed_the_registry(self):
        service = BlasService()
        submit(service, "astro", {"operation": "dot"})  # invalid: no n
        registry = service.handle(
            {"op": "metrics"})["metrics"]["registry"]["metrics"]
        ident = 'serve.rejected{reason="invalid_request"}'
        assert registry[ident]["value"] == 1.0

    def test_trace_ring_is_bounded(self):
        service = BlasService(ServeConfig(trace_max_events=2))
        self._drive(service)
        service.handle({"op": "drain"})
        assert len(service.recorder) <= 2
        metrics = service.handle({"op": "metrics"})["metrics"]
        assert metrics["trace"]["events"] <= 2


def _golden_traffic(service, seed, tenants=("astro", "fusion", "solver"),
                    doomed="fusion", epochs=4, per_epoch=14):
    """Drive ``epochs`` drains of mixed traffic.  Each epoch adds a
    burst of three same-shape gemms (one coalescing group), invalid
    submits (no ``n``, a negative ``at``, no tenant, a cg program the
    verifier rejects) and one unplannable gemm from ``doomed``."""
    rng = np.random.default_rng(seed)
    kinds = (("dot", 128), ("gemv", 24), ("gemm", 32), ("spmxv", 6),
             ("cg", 6))
    at = 0.0
    client_id = 0
    for epoch in range(epochs):
        for _ in range(per_epoch):
            at += float(rng.uniform(2e-5, 3e-4))
            operation, n = kinds[int(rng.integers(len(kinds)))]
            spec = {"operation": operation, "n": n,
                    "seed": int(rng.integers(0, 2**31))}
            if operation == "cg":
                spec["k"] = 4
            submit(service, tenants[int(rng.integers(len(tenants)))],
                   spec, at=at, client_id=client_id)
            client_id += 1
        for i in range(3):
            submit(service, tenants[i % len(tenants)],
                   {"operation": "gemm", "n": 16, "seed": i}, at=at)
        submit(service, tenants[epoch % len(tenants)],
               {"operation": "dot"}, at=at)
        submit(service, tenants[0], {"operation": "dot", "n": 8},
               at=-1.0)
        service.handle({"op": "submit", "at": at,
                        "call": {"operation": "dot", "n": 8}})
        submit(service, tenants[-1],
               {"operation": "cg", "n": 12, "k": 8, "seed": 0}, at=at)
        submit(service, doomed,
               {"operation": "gemm", "n": 8, "k": 8, "seed": epoch},
               at=at)
        service.handle({"op": "drain"})


def _tenants_invalid_cg():
    """Three tenants with unequal weights and one throttled tenant,
    plus a tenant that only said hello."""
    service = BlasService(quotas={
        "astro": TenantQuota(weight=2.0),
        "fusion": TenantQuota(rate=500.0, burst=6)})
    service.handle({"op": "hello", "tenant": "idle"})
    _golden_traffic(service, seed=3)
    return service


def _fault_storm_small_queue():
    """The same traffic through a four-slot queue while crashes,
    failed bitstream loads and stalls strike every epoch."""
    storm = FaultPlan.storm(seed=11, horizon=0.01, crash_rate=300.0,
                            reconfig_rate=300.0, stall_rate=600.0,
                            crash_duration=5e-4)
    service = BlasService(
        ServeConfig(queue_capacity=4, fault_plan=storm),
        quotas={"fusion": TenantQuota(rate=500.0, burst=6)})
    service.handle({"op": "hello", "tenant": "idle"})
    _golden_traffic(service, seed=3)
    return service


def _tight_quota():
    """Every tenant on a small token bucket and pending cap; a fourth
    tenant submits only unplannable calls and is reported starved."""
    service = BlasService(default_quota=TenantQuota(
        rate=400.0, burst=6, max_pending=4))
    _golden_traffic(service, seed=5, doomed="lost")
    return service


GOLDEN_SCENARIOS = {
    "tenants_invalid_cg": _tenants_invalid_cg,
    "fault_storm_small_queue": _fault_storm_small_queue,
    "tight_quota": _tight_quota,
}

#: sha256 of the canonical ``metrics()`` JSON (without the registry
#: snapshot) per scenario.
GOLDEN_METRICS = {
    "fault_storm_small_queue":
        "4b16f92fb09c301c7ce55d2ec872bcf0f78f6cb5db8a81fb0b50ffe6357712e3",
    "tenants_invalid_cg":
        "b71e258382553082e1c54365bb2049dbca5dc6d2322a8d8e007e4cde28fc03c6",
    "tight_quota":
        "b171c417c02fc9ade0d54a9e98c6f682b4ebf428bf880548cbf3f83509c04e82",
}


def _canonical_metrics(service):
    metrics = service.metrics()
    del metrics["registry"]
    return json.dumps(metrics, sort_keys=True, separators=(",", ":"))


class TestMetricsGolden:
    """``metrics()`` pinned by digest: a change to how the service
    keeps its telemetry must reproduce every count and percentile of
    the code that recorded these digests.  The fault storm carries no
    bit flips, so nothing value-dependent (and so nothing host-BLAS
    dependent) reaches the report."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_scenario_exercises_every_outcome(self, name):
        metrics = GOLDEN_SCENARIOS[name]().metrics()
        jobs = metrics["jobs"]
        assert jobs["completed"] > 0
        assert jobs["failed"] > 0
        assert jobs["quota_throttles"] > 0
        assert sum(t["jobs"]["rejected"]
                   for t in metrics["tenants"].values()) > 0

    @pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
    def test_metrics_match_golden_digest(self, name):
        text = _canonical_metrics(GOLDEN_SCENARIOS[name]())
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == GOLDEN_METRICS[name]


#: One epoch of every kernel serve reaches, as (tenant, call spec):
#: gemm at n = 16 and 128 runs unpadded, at 24, 48 and 96 padded to a
#: multiple of its m; spmxv and cg take ``n`` as the Poisson grid.
RESULTS_EPOCH = (
    [("astro", {"operation": "dot", "n": 1000, "seed": 1}),
     ("fusion", {"operation": "gemv", "n": 96, "seed": 2}),
     ("solver", {"operation": "gemv", "n": 96, "architecture": "column",
                 "seed": 3})]
    + [(("astro", "fusion")[i % 2], {"operation": "gemm", "n": n,
                                    "seed": 10 + i})
       for i, n in enumerate((16, 24, 48, 96, 128))]
    + [("solver", {"operation": "spmxv", "n": grid, "seed": 20 + grid})
       for grid in (1, 8, 13, 20)]
    + [("solver", {"operation": "cg", "n": grid, "k": 4, "seed": 30})
       for grid in (8, 16)])

#: sha256 of the canonical drain JSON of ``RESULTS_EPOCH``.
GOLDEN_RESULTS = (
    "e4faeafa923a6203599a99c4d4c61e80e0fa38ca5f9c649e106784fdf5959591")


def _results_drain():
    service = BlasService()
    for i, (tenant, spec) in enumerate(RESULTS_EPOCH):
        reply = submit(service, tenant, spec, at=i * 1e-4, client_id=i)
        assert reply["type"] == "accepted", reply
    return service.handle({"op": "drain"})


class TestResultsGolden:
    """The drain's value bits pinned by digest: every result digest,
    charged cycle count and virtual latency of one multi-tenant epoch.
    ``TestMetricsGolden`` pins counts but no value bits.  No kernel on
    this path calls BLAS, so the digest holds on any host."""

    def test_every_request_completes(self):
        results = _results_drain()["results"]
        assert len(results) == len(RESULTS_EPOCH)
        assert all(r["state"] == "done" for r in results), results

    def test_drain_matches_golden_digest(self):
        text = json.dumps(_results_drain(), sort_keys=True,
                          separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_RESULTS
