"""Unit tests for the command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dot_defaults(self):
        args = build_parser().parse_args(["dot"])
        assert args.n == 2048 and args.k == 2

    def test_gemm_custom(self):
        args = build_parser().parse_args(["gemm", "-n", "64", "-k", "4",
                                          "-m", "16"])
        assert (args.n, args.k, args.m) == (64, 4, 16)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "XC2VP50" in out
        assert "fp_adder_64" in out
        assert "Cray XD1" in out

    def test_dot(self, capsys):
        assert main(["dot", "-n", "128"]) == 0
        out = capsys.readouterr().out
        assert "MFLOPS" in out
        assert "numpy" in out

    def test_gemv_tree(self, capsys):
        assert main(["gemv", "-n", "64"]) == 0
        assert "gemv[tree]" in capsys.readouterr().out

    def test_gemv_column(self, capsys):
        assert main(["gemv", "-n", "64", "--architecture", "column"]) == 0
        assert "gemv[column]" in capsys.readouterr().out

    def test_gemm(self, capsys):
        assert main(["gemm", "-n", "32", "-k", "4", "-m", "16"]) == 0
        assert "gemm" in capsys.readouterr().out

    def test_reduce_adversarial(self, capsys):
        assert main(["reduce", "--alpha", "6"]) == 0
        out = capsys.readouterr().out
        assert "paper (1 adder" in out
        assert "stalling baseline" in out

    def test_reduce_mvm(self, capsys):
        assert main(["reduce", "--alpha", "6", "--workload", "mvm"]) == 0
        assert "dual adder" in capsys.readouterr().out

    def test_project(self, capsys):
        assert main(["project"]) == 0
        out = capsys.readouterr().out
        assert "GFLOPS" in out
        assert "12 chassis" in out

    def test_project_xc2vp100(self, capsys):
        assert main(["project", "--device", "xc2vp100"]) == 0
        assert "XC2VP100" in capsys.readouterr().out


class TestNewCommands:
    def test_explore(self, capsys):
        assert main(["explore"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "GFLOPS" in out

    def test_explore_xc2vp100(self, capsys):
        assert main(["explore", "--device", "xc2vp100", "--top", "3"]) == 0
        assert "XC2VP100" in capsys.readouterr().out

    def test_solve_cg(self, capsys):
        assert main(["solve", "cg", "--grid", "8"]) == 0
        out = capsys.readouterr().out
        assert "converged=True" in out

    def test_solve_cg_jacobi(self, capsys):
        assert main(["solve", "cg", "--grid", "8", "--jacobi"]) == 0
        assert "converged" in capsys.readouterr().out

    def test_solve_lu(self, capsys):
        assert main(["solve", "lu", "-n", "24"]) == 0
        out = capsys.readouterr().out
        assert "FPGA flop share" in out


class TestRuntimeCommand:
    def test_defaults_parse(self):
        args = build_parser().parse_args(["runtime"])
        assert (args.chassis, args.blades, args.jobs) == (1, 6, 200)
        assert args.policy == "area"

    def test_mixed_replay(self, capsys):
        assert main(["runtime", "--jobs", "12", "--blades", "2"]) == 0
        out = capsys.readouterr().out
        assert "GFLOPS" in out
        assert "util %" in out
        assert "blade" in out

    def test_gemm_burst_replay(self, capsys):
        assert main(["runtime", "--jobs", "6", "--mix", "gemm",
                     "--gemm-n", "32", "--blades", "3",
                     "--policy", "sjf"]) == 0
        out = capsys.readouterr().out
        assert "policy=sjf" in out

    def test_json_output(self, capsys):
        import json

        assert main(["runtime", "--jobs", "4", "--blades", "2",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"]["completed"] == 4
        assert len(payload["devices"]) == 2

    def test_cg_program_mix(self, capsys):
        import json

        assert main(["runtime", "--jobs", "3", "--mix", "cg",
                     "--cg-grid", "8", "--blades", "2",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"]["completed"] == 3
        assert payload["jobs"]["failed"] == 0

    def test_multichassis_gang_replay(self, capsys):
        import json

        assert main(["runtime", "--jobs", "1", "--mix", "gemm",
                     "--gemm-n", "512", "--gemm-m", "32",
                     "--chassis", "12", "--blades", "6",
                     "--max-gang", "16", "--sim-mode", "fast",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gangs"]["multichassis"] == 1
        assert payload["gangs"]["inter_chassis_cycles"] > 0

    def test_max_gang_forms_gangs(self, capsys):
        import json

        assert main(["runtime", "--jobs", "3", "--mix", "gemm",
                     "--gemm-n", "512", "--blades", "6",
                     "--max-gang", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gangs"]["formed"] == 3
        assert payload["gangs"]["blades_per_job"] == {"4": 3}

    def test_gang_fallback_without_a_design_fails_the_run(self, capsys):
        # The first 2-blade gang spans two one-blade chassis; the other
        # two fall back to the last blade, whose single-blade array
        # refuses m²/k = 8.  They fail; the command reports it.
        assert main(["runtime", "--chassis", "3", "--blades", "1",
                     "--max-gang", "2", "--mix", "gemm",
                     "--gemm-n", "64", "--gemm-m", "8",
                     "--jobs", "3"]) == 1
        captured = capsys.readouterr()
        assert "1 done / 2 failed" in captured.out
        assert ("runtime FAILED: 2 job(s) ended FAILED and 0 were "
                "REJECTED (of 3 submitted)") in captured.err

    @pytest.mark.parametrize("flag", ["--gemm-n", "--gemm-m"])
    def test_non_positive_gemm_size_is_a_usage_error(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["runtime", "--mix", "gemm", flag, "0", "--jobs", "2"])
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_max_gang_default_off(self, capsys):
        import json

        args = build_parser().parse_args(["runtime"])
        assert args.max_gang == 1
        assert main(["runtime", "--jobs", "2", "--mix", "gemm",
                     "--gemm-n", "512", "--blades", "6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gangs"]["formed"] == 0

    def test_trace_out_writes_chrome_trace(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        assert main(["runtime", "--jobs", "8", "--blades", "2",
                     "--trace-out", str(out)]) == 0
        assert f"written to {out}" in capsys.readouterr().out
        trace = json.loads(out.read_text())
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert {"M", "X", "i", "C"} <= phases


class TestTraceCommand:
    def test_defaults_parse(self):
        args = build_parser().parse_args(["trace"])
        assert (args.jobs, args.out, args.jsonl) == (60, None, None)
        assert not args.strict

    def test_prints_drift_report(self, capsys):
        assert main(["trace", "--jobs", "10", "--blades", "2"]) == 0
        out = capsys.readouterr().out
        assert "plan-vs-actual drift" in out
        assert "gemm" in out
        assert "counter samples" in out

    def test_writes_both_exports(self, capsys, tmp_path):
        import json

        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "events.jsonl"
        assert main(["trace", "--jobs", "8", "--blades", "2",
                     "--out", str(chrome),
                     "--jsonl", str(jsonl)]) == 0
        trace = json.loads(chrome.read_text())
        assert trace["traceEvents"]
        lines = jsonl.read_text().strip().split("\n")
        assert all(json.loads(line)["type"] in
                   ("span", "instant", "counter") for line in lines)

    def test_trace_outputs_deterministic(self, capsys, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for path in (first, second):
            assert main(["trace", "--jobs", "8", "--blades", "2",
                         "--seed", "3", "--out", str(path)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_drift_json_output(self, capsys):
        import json

        assert main(["trace", "--jobs", "6", "--blades", "2",
                     "--drift-json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["ok"] is True
        assert "operations" in payload

    def test_strict_mode_passes_on_standard_mix(self):
        assert main(["trace", "--jobs", "12", "--blades", "2",
                     "--strict"]) == 0


class TestFaultsCommand:
    def test_defaults_parse(self):
        args = build_parser().parse_args(["faults"])
        assert args.jobs == 60
        assert args.crash_rate == 200.0
        assert args.faults_spec is None and args.horizon is None

    def test_faults_spec_flag_is_canonical(self, tmp_path):
        spec = tmp_path / "faults.json"
        spec.write_text('{"events": []}')
        args = build_parser().parse_args(
            ["faults", "--faults-spec", str(spec)])
        assert args.faults_spec == str(spec)

    def test_storm_replay(self, capsys):
        rc = main(["faults", "--jobs", "20", "--blades", "4",
                   "--arrival-rate", "3000", "--fault-seed", "11"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault plan:" in out
        assert "injected faults" in out

    def test_storm_json_is_deterministic(self, capsys):
        argv = ["faults", "--jobs", "15", "--blades", "3",
                "--arrival-rate", "2500", "--fault-seed", "7", "--json"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
        import json

        payload = json.loads(first)
        assert "faults" in payload
        assert payload["faults"]["injected"] >= 0

    def test_explicit_spec(self, capsys, tmp_path):
        import json

        spec = tmp_path / "faults.json"
        spec.write_text(json.dumps(
            {"seed": 3,
             "events": [{"kind": "mem_stall", "at": 0.0001,
                         "multiplier": 2.0}]}))
        rc = main(["faults", "--jobs", "6", "--blades", "2",
                   "--faults-spec", str(spec), "--json"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert rc == 0
        assert payload["faults"]["injected"] == 1

    def test_trace_out_records_fault_instants(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        main(["faults", "--jobs", "20", "--blades", "3",
              "--arrival-rate", "3000", "--fault-seed", "23",
              "--crash-rate", "500", "--trace-out", str(out)])
        capsys.readouterr()
        trace = json.loads(out.read_text())
        names = {e.get("name") for e in trace["traceEvents"]}
        assert "fault.injected" in names


class TestFailureExitCodes:
    def test_runtime_exits_nonzero_on_rejected_jobs(self, capsys):
        rc = main(["runtime", "--jobs", "10", "--queue-capacity", "1",
                   "--arrival-rate", "1e9"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "runtime FAILED" in captured.err
        assert "REJECTED" in captured.err

    def test_runtime_faults_spec_flag(self, capsys, tmp_path):
        import json

        spec = tmp_path / "faults.json"
        spec.write_text(json.dumps(
            {"events": [{"kind": "reconfig_fail", "at": 0.0}]}))
        rc = main(["runtime", "--jobs", "4", "--blades", "2",
                   "--faults-spec", str(spec), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["faults"]["injected"] == 1

    def test_faults_accepts_the_unified_faults_spec_flag(self, capsys,
                                                         tmp_path):
        # --faults-spec is the one canonical explicit-plan flag across
        # 'repro faults', 'repro runtime', 'repro trace' and
        # 'repro serve'; an empty plan replays fault-free.
        spec = tmp_path / "faults.json"
        spec.write_text('{"events": []}')
        assert main(["faults", "--jobs", "2",
                     "--faults-spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "fault plan:" in out

    def test_faults_exits_nonzero_when_jobs_are_lost(self, capsys):
        # one blade, instantly quarantined: every job is rejected for
        # lost capacity and the command must say so and exit 1
        rc = main(["faults", "--jobs", "3", "--blades", "1",
                   "--arrival-rate", "1000", "--horizon", "0.001",
                   "--crash-rate", "5000", "--crash-duration", "0.0001",
                   "--quarantine-after", "1",
                   "--reconfig-rate", "0", "--stall-rate", "0",
                   "--corrupt-rate", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "runtime FAILED" in captured.err
        assert "QUARANTINED" in captured.out


class TestServeLoadgen:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.clock == "virtual"
        assert args.port == 7070
        assert args.policy == "fifo"
        assert args.coalesce_window == pytest.approx(5e-5)

    def test_loadgen_parser_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.count == 10000
        assert args.drain_every == 2500
        assert args.arrival_rate == pytest.approx(1000.0)

    def test_tenant_weight_flag(self):
        args = build_parser().parse_args(
            ["serve", "--tenant", "astro=2", "--tenant", "climate=1"])
        assert args.tenant == ["astro=2", "climate=1"]

    def test_bad_tenant_weight_rejected(self):
        import argparse

        from repro.cli import _parse_tenant_weights

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_tenant_weights(["astro"])

    def test_serve_loadgen_round_trip(self, capsys, tmp_path):
        import socket
        import threading

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        server = threading.Thread(
            target=main,
            args=(["serve", "--port", str(port), "--blades", "2"],),
            daemon=True)
        server.start()
        deadline = 50
        while deadline:
            with socket.socket() as ping:
                try:
                    ping.connect(("127.0.0.1", port))
                    break
                except OSError:
                    deadline -= 1
                    threading.Event().wait(0.1)
        out = tmp_path / "report.json"
        rc = main(["loadgen", "--port", str(port), "--count", "60",
                   "--seed", "5", "--drain-every", "30",
                   "--out", str(out), "--shutdown", "--strict"])
        server.join(10)
        captured = capsys.readouterr()
        assert rc == 0
        assert "replayed 60 requests" in captured.out
        assert "results digest:" in captured.out
        assert '"starved_tenants": []' in out.read_text()


class TestTopAndObservabilityFlags:
    @staticmethod
    def _start_serve(argv):
        import socket
        import threading

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        box = {}

        def run():
            box["rc"] = main(["serve", "--port", str(port)] + argv)

        server = threading.Thread(target=run, daemon=True)
        server.start()
        deadline = 50
        while deadline:
            with socket.socket() as ping:
                try:
                    ping.connect(("127.0.0.1", port))
                    break
                except OSError:
                    deadline -= 1
                    threading.Event().wait(0.1)
        return server, port, box

    @staticmethod
    def _shutdown(port):
        import json
        import socket

        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(b'{"op":"shutdown"}\n')
            sock.recv(4096)

    def test_top_parser_defaults(self):
        args = build_parser().parse_args(["top"])
        assert args.port == 7070
        assert args.interval == pytest.approx(2.0)
        assert not args.watch and not args.json and not args.prom

    def test_serve_observability_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.slo_spec is None
        assert args.flight_capacity == 256
        assert args.flight_sample == pytest.approx(0.01)
        assert args.sim_mode == "fast"

    def test_top_renders_the_pending_count(self):
        from repro.cli import _render_top
        from repro.serve.server import BlasService

        service = BlasService()
        for i in range(3):
            service.handle({"op": "submit", "id": i, "tenant": "astro",
                            "at": 0.0,
                            "call": {"operation": "dot", "n": 64}})
        status = _render_top(service.metrics()).splitlines()[0]
        assert "pending 3" in status

    def test_top_views_against_live_serve(self, capsys, tmp_path):
        import json

        spec = tmp_path / "slo.json"
        spec.write_text(json.dumps({"objectives": [
            {"name": "lat-tight", "kind": "latency",
             "threshold": 1e-9, "quantile": 0.5,
             "windows": [0.25, 2.0]}]}))
        server, port, box = self._start_serve(
            ["--slo-spec", str(spec),
             "--metrics-out", str(tmp_path / "obs.json"),
             "--prom-out", str(tmp_path / "metrics.prom")])
        rc = main(["loadgen", "--port", str(port), "--count", "40",
                   "--seed", "5", "--drain-every", "20"])
        assert rc == 0
        capsys.readouterr()

        assert main(["top", "--port", str(port)]) == 0
        table = capsys.readouterr().out
        assert "slo: BREACHED (lat-tight)" in table
        assert "flight: seen" in table
        assert "(histogram quantiles)" in table

        assert main(["top", "--port", str(port), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slo"]["breached"] == ["lat-tight"]

        assert main(["top", "--port", str(port), "--prom"]) == 0
        from repro.obs.metrics import parse_prom_text
        samples = parse_prom_text(capsys.readouterr().out)
        assert samples["serve_epochs"] >= 1.0

        rc_strict = main(["top", "--port", str(port), "--strict"])
        assert rc_strict == 1
        capsys.readouterr()

        self._shutdown(port)
        server.join(10)
        assert box["rc"] == 0  # breached, but --slo-strict not set
        obs = json.loads((tmp_path / "obs.json").read_text())
        assert set(obs) == {"flight", "registry", "service", "slo"}
        assert obs["slo"]["ok"] is False
        parse_prom_text((tmp_path / "metrics.prom").read_text())

    def test_serve_slo_strict_exit_code(self, capsys, tmp_path):
        import json

        spec = tmp_path / "slo.json"
        spec.write_text(json.dumps({"objectives": [
            {"name": "lat-tight", "kind": "latency",
             "threshold": 1e-9, "quantile": 0.5,
             "windows": [2.0]}]}))
        server, port, box = self._start_serve(
            ["--slo-strict", "--slo-spec", str(spec)])
        rc = main(["loadgen", "--port", str(port), "--count", "20",
                   "--seed", "1", "--shutdown"])
        assert rc == 0
        server.join(10)
        capsys.readouterr()
        assert box["rc"] == 1


class TestKernelSizes:
    @pytest.mark.parametrize("argv", [
        ["dot", "-k", "0"], ["dot", "-n", "0"], ["gemv", "-n", "-3"],
        ["gemv", "-k", "0"], ["gemm", "-n", "0"], ["gemm", "-k", "0"],
        ["gemm", "-m", "0"]])
    def test_non_positive_kernel_size_is_a_usage_error(self, capsys,
                                                       deadline, argv):
        with deadline(10), pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_gemm_k_zero_exits_instead_of_hanging(self):
        # In a subprocess under a timeout: a k that reaches the block
        # geometry unchecked loops forever.
        result = subprocess.run(
            [sys.executable, "-m", "repro", "gemm", "-n", "16", "-k", "0"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": SRC})
        assert result.returncode == 2
        assert "must be a positive integer" in result.stderr
