"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Device, memory and system catalog (Tables 1-2, Section 3).
``dot`` / ``gemv`` / ``gemm``
    Run one simulated BLAS operation on random operands and print its
    performance report.
``reduce``
    Reduction-circuit shoot-out on a chosen workload shape.
``runtime``
    Replay a synthetic BLAS workload on the concurrent job scheduler
    and print per-blade utilization and aggregate throughput
    (``--trace-out`` also records a Chrome trace of the run).
``trace``
    Trace a runtime replay: structured spans/instants/counters in
    virtual time, exported as Chrome trace JSON and/or JSON lines,
    plus the plan-vs-actual predictor drift report.
``faults``
    Replay a workload under a seeded fault storm — blade crashes,
    reconfiguration failures, memory stalls, result corruption — and
    report how the runtime's retry/quarantine/verification machinery
    coped (``repro runtime --faults-spec`` injects an explicit plan
    instead).
``analyze``
    Static analysis: the design-rule checker over the shipped design
    catalog (or a ``--spec`` JSON of designs) plus the determinism
    lint pass over the source tree — no execution, machine-readable
    diagnostics, distinct exit codes for "violations" (1) vs
    "analyzer crashed" (2).
``serve``
    Run the asyncio multi-tenant BLAS service: newline-delimited JSON
    over TCP, per-tenant admission quotas, weighted fair-share
    ordering, gemm coalescing, virtual or hybrid (wall-paced) clock.
``loadgen``
    Replay a seeded multi-tenant request stream against a running
    ``repro serve`` and report per-tenant p50/p99 wait/latency plus a
    fairness verdict (same seed against a virtual-clock server →
    byte-identical report).
``top``
    Live telemetry view of a running ``repro serve``: job totals,
    tenant table, SLO verdict, flight-recorder stats — one shot, or
    refreshed with ``--watch``; ``--json``/``--prom`` for machines.
``project``
    The chassis / multi-chassis projections (Figures 11-12,
    Section 6.4).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.device.fpga import XC2VP50, XC2VP100
    from repro.fparith.units import (
        FP_ADDER_64,
        FP_MULTIPLIER_64,
        REDUCTION_CIRCUIT_SPEC,
    )
    from repro.memory.model import CRAY_XD1_MEMORY, SRC_MAPSTATION_MEMORY
    from repro.perf.peak import device_peak_gflops

    print("Devices:")
    for device in (XC2VP50, XC2VP100):
        print(f"  {device.name}: {device.slices} slices, "
              f"{device.bram_bits / 1e6:.1f} Mb BRAM, "
              f"{device.io_pins} I/O pins "
              f"(peak {device_peak_gflops(device):.2f} GFLOPS with the "
              "paper's FP units)")
    print("\nFP units (Table 2):")
    for unit in (FP_ADDER_64, FP_MULTIPLIER_64, REDUCTION_CIRCUIT_SPEC):
        print(f"  {unit.name}: {unit.pipeline_stages} stages, "
              f"{unit.area_slices} slices, {unit.clock_mhz:.0f} MHz")
    print("\nMemory hierarchies (Table 1):")
    for hierarchy in (SRC_MAPSTATION_MEMORY, CRAY_XD1_MEMORY):
        print(f"  {hierarchy.name}:")
        for level, spec in sorted(hierarchy.levels.items(),
                                  key=lambda kv: kv[0].value):
            print(f"    level {level.value}: "
                  f"{spec.size_bytes / 1024:.0f} KB, "
                  f"{spec.bandwidth_gbytes:.1f} GB/s, "
                  f"{spec.banks} bank(s)")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from repro.blas import dot

    rng = np.random.default_rng(args.seed)
    u = rng.standard_normal(args.n)
    v = rng.standard_normal(args.n)
    outcome = dot(u, v, k=args.k, sim_mode=args.sim_mode)
    error = abs(outcome.value - float(np.dot(u, v)))
    print(outcome.report.summary())
    print(f"|simulated - numpy| = {error:.3e}")
    return 0


def _cmd_gemv(args: argparse.Namespace) -> int:
    from repro.blas import gemv

    rng = np.random.default_rng(args.seed)
    A = rng.standard_normal((args.n, args.n))
    x = rng.standard_normal(args.n)
    outcome = gemv(A, x, k=args.k, architecture=args.architecture,
                   sim_mode=args.sim_mode)
    error = float(np.max(np.abs(outcome.value - A @ x)))
    print(outcome.report.summary())
    print(f"max |simulated - numpy| = {error:.3e}")
    return 0


def _cmd_gemm(args: argparse.Namespace) -> int:
    from repro.blas import gemm

    rng = np.random.default_rng(args.seed)
    A = rng.standard_normal((args.n, args.n))
    B = rng.standard_normal((args.n, args.n))
    outcome = gemm(A, B, k=args.k, m=args.m, sim_mode=args.sim_mode)
    error = float(np.max(np.abs(outcome.value - A @ B)))
    print(outcome.report.summary())
    print(f"max |simulated - numpy| = {error:.3e}")
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    import math

    from repro.reduction.analysis import latency_bound, run_reduction
    from repro.reduction.baselines import (
        DualAdderReduction,
        NiHwangReduction,
        StallingReduction,
    )
    from repro.reduction.single_adder import SingleAdderReduction
    from repro.workloads import adversarial_stream, mvm_stream

    rng = np.random.default_rng(args.seed)
    if args.workload == "mvm":
        sets = mvm_stream(48, 4 * args.alpha, rng)
    else:
        sets = adversarial_stream(args.alpha, rng)
    sizes = [len(s) for s in sets]
    methods = {
        "paper (1 adder, 2α² buffer)": SingleAdderReduction(args.alpha),
        "stalling baseline": StallingReduction(args.alpha),
        "Ni-Hwang [21]": NiHwangReduction(args.alpha),
        "dual adder [19]": DualAdderReduction(args.alpha),
    }
    print(f"workload: {len(sets)} sets, {sum(sizes)} values, "
          f"α = {args.alpha}, bound Σs+2α² = "
          f"{latency_bound(sizes, args.alpha)}")
    print(f"{'method':<30} {'adders':>6} {'buffer':>7} {'cycles':>8} "
          f"{'stalls':>7}")
    for name, circuit in methods.items():
        run = run_reduction(circuit, sets)
        for got, s in zip(run.results_by_set(), sets):
            want = math.fsum(s)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        print(f"{name:<30} {circuit.num_adders:>6} "
              f"{circuit.buffer_words:>7} {run.total_cycles:>8} "
              f"{run.stall_cycles:>7}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.reproduce import run_reproduction

    report, all_ok = run_reproduction(full=args.full, seed=args.seed)
    print(report)
    return 0 if all_ok else 1


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.device.fpga import XC2VP50, XC2VP100
    from repro.perf.explorer import (
        ExplorerBudget,
        enumerate_configurations,
        pareto_frontier,
    )

    device = XC2VP100 if args.device == "xc2vp100" else XC2VP50
    budget = ExplorerBudget(device=device)
    configs = enumerate_configurations(budget, l=args.fpgas)
    frontier = pareto_frontier(configs)
    print(f"{len(configs)} feasible MM configurations on {device.name} "
          f"(l = {args.fpgas}); Pareto frontier:")
    print(f"{'k':>3} {'m':>4} {'b':>5} {'MHz':>5} {'slices':>7} "
          f"{'GFLOPS':>7}")
    for config in frontier[:args.top]:
        print(f"{config.k:>3} {config.m:>4} {config.b:>5} "
              f"{config.clock_mhz:>5.0f} {config.slices:>7} "
              f"{config.gflops:>7.2f}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.solvers import BlockedLu, ConjugateGradientSolver
    from repro.workloads import poisson_2d

    rng = np.random.default_rng(args.seed)
    if args.method == "cg":
        matrix = poisson_2d(args.grid)
        b = np.ones(matrix.nrows)
        solver = ConjugateGradientSolver(
            preconditioner="jacobi" if args.jacobi else None)
        result = solver.solve(matrix, b)
        residual = float(np.linalg.norm(matrix.matvec(result.x) - b))
        print(f"CG on {args.grid}x{args.grid} Poisson "
              f"(n = {matrix.nrows}): converged={result.converged} in "
              f"{result.iterations} iterations, residual {residual:.2e}")
        print(f"FPGA cycles: {result.fpga_cycles}")
    else:
        n = args.n
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        lu = BlockedLu(block=min(16, n), k=4, m=8)
        x = lu.solve(A, b)
        result = lu.factor(A)
        print(f"LU on a dense {n}x{n} system: residual "
              f"{float(np.linalg.norm(A @ x - b)):.2e}")
        print(f"FPGA flop share: {100 * result.fpga_fraction:.1f}% "
              f"({result.fpga_cycles} cycles)")
    return 0


def _submitted_runtime(args: argparse.Namespace, recorder=None,
                       fault_plan=None):
    """Build the runtime + workload stream shared by ``runtime``,
    ``trace`` and ``faults`` and submit every request (not yet run)."""
    from repro.runtime import BlasRuntime
    from repro.workloads import (
        blas_request_mix,
        cg_program_stream,
        gemm_burst,
    )

    rng = np.random.default_rng(args.seed)
    if args.mix == "gemm":
        stream = gemm_burst(args.jobs, args.gemm_n, rng, m=args.gemm_m)
    elif args.mix == "cg":
        stream = cg_program_stream(args.jobs, args.cg_grid, rng)
    else:
        stream = blas_request_mix(args.jobs, rng,
                                  arrival_rate=args.arrival_rate)
    if fault_plan is None and getattr(args, "faults_spec", None):
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.from_json_file(args.faults_spec)
    runtime = BlasRuntime(
        chassis=args.chassis,
        blades=args.blades,
        policy=args.policy,
        queue_capacity=args.queue_capacity,
        batching=not args.no_batch,
        recorder=recorder,
        fault_plan=fault_plan,
        max_retries=getattr(args, "max_retries", 3),
        quarantine_after=getattr(args, "quarantine_after", 3),
        verify_results=(False if getattr(args, "no_verify", False)
                        else None),
        degrade=not getattr(args, "no_degrade", False),
        max_gang=getattr(args, "max_gang", 1),
        sim_mode=getattr(args, "sim_mode", "cycle"),
    )
    for at, request in stream:
        runtime.submit(request, at=at)
    return runtime


def _workload_exit(metrics) -> int:
    """Shared exit policy: a replay only succeeds when every accepted
    job completed — failed or rejected jobs make the command exit 1
    with the reason on stderr."""
    if metrics.jobs_failed or metrics.jobs_rejected:
        print(f"runtime FAILED: {metrics.jobs_failed} job(s) ended "
              f"FAILED and {metrics.jobs_rejected} were REJECTED "
              f"(of {metrics.jobs_submitted} submitted)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_runtime(args: argparse.Namespace) -> int:
    recorder = None
    if args.trace_out:
        from repro.obs import TraceRecorder

        recorder = TraceRecorder()
    runtime = _submitted_runtime(args, recorder)
    metrics = runtime.run()
    if args.json:
        print(metrics.to_json())
    else:
        print(f"replayed {args.jobs} jobs ({args.mix} mix) on "
              f"{args.chassis} chassis x {args.blades} blades")
        print(metrics.summary())
    if recorder is not None:
        from repro.obs import write_chrome_trace

        write_chrome_trace(recorder, args.trace_out)
        # With --json, stdout is the metrics document; the notice
        # must not corrupt it for piped consumers.
        print(f"Chrome trace ({len(recorder)} recorded events) written "
              f"to {args.trace_out} — open in Perfetto or "
              f"chrome://tracing",
              file=sys.stderr if args.json else sys.stdout)
    return _workload_exit(metrics)


def _cmd_faults(args: argparse.Namespace) -> int:
    """Replay a workload under a fault storm (or an explicit spec)."""
    from repro.faults import FaultKind, FaultPlan

    if args.faults_spec:
        plan = FaultPlan.from_json_file(args.faults_spec)
    else:
        horizon = args.horizon
        if horizon is None:
            # Size the storm to the workload: a fault-free dry run
            # measures the makespan the events should fall inside.
            dry = _submitted_runtime(args, fault_plan=FaultPlan.empty())
            horizon = dry.run().makespan_seconds
            if horizon <= 0.0:
                horizon = 1e-3
        plan = FaultPlan.storm(
            args.fault_seed, horizon,
            crash_rate=args.crash_rate,
            reconfig_rate=args.reconfig_rate,
            stall_rate=args.stall_rate,
            corrupt_rate=args.corrupt_rate,
            crash_duration=args.crash_duration,
            stall_multiplier=args.stall_multiplier)
    recorder = None
    if args.trace_out:
        from repro.obs import TraceRecorder

        recorder = TraceRecorder()
    runtime = _submitted_runtime(args, recorder, fault_plan=plan)
    metrics = runtime.run()
    if args.json:
        print(metrics.to_json())
    else:
        counts = ", ".join(
            f"{plan.count(kind)} {kind.value}" for kind in FaultKind
            if plan.count(kind))
        print(f"fault plan: {len(plan)} event(s) "
              f"({counts or 'none'}), seed {plan.seed}")
        print(f"replayed {args.jobs} jobs ({args.mix} mix) on "
              f"{args.chassis} chassis x {args.blades} blades under "
              "injected faults")
        print(metrics.summary())
    if recorder is not None:
        from repro.obs import write_chrome_trace

        write_chrome_trace(recorder, args.trace_out)
        print(f"Chrome trace ({len(recorder)} recorded events) written "
              f"to {args.trace_out}",
              file=sys.stderr if args.json else sys.stdout)
    return _workload_exit(metrics)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        TraceRecorder,
        drift_report,
        write_chrome_trace,
        write_jsonl,
    )

    recorder = TraceRecorder()
    runtime = _submitted_runtime(args, recorder)
    metrics = runtime.run()
    print(f"traced {args.jobs} jobs ({args.mix} mix, policy "
          f"{args.policy}) on {args.chassis} chassis x {args.blades} "
          f"blades: {len(recorder.spans)} spans, "
          f"{len(recorder.instants)} instants, "
          f"{len(recorder.counters)} counter samples over "
          f"{metrics.makespan_seconds * 1e3:.3f} ms of virtual time")
    if args.out:
        write_chrome_trace(recorder, args.out)
        print(f"Chrome trace written to {args.out}")
    if args.jsonl:
        write_jsonl(recorder, args.jsonl)
        print(f"JSON-lines event log written to {args.jsonl}")
    report = drift_report(runtime.jobs)
    if args.drift_json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print("plan-vs-actual drift (predicted vs executed cycles):")
        print(report.summary())
    if args.strict and not report.ok:
        print(f"drift check FAILED: {len(report.flagged)} job(s) "
              "exceeded their predictor bound")
        return 1
    return _workload_exit(metrics)


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Design-rule check + program verifier + lint pass; exit 0 clean,
    1 on violations, 2 when the analyzer itself crashed."""
    from repro.analyze import EXIT_CRASH

    try:
        return _run_analyze(args)
    except Exception as exc:  # noqa: BLE001 — crash vs violation split
        print(f"analyzer crashed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_CRASH


def _list_rules() -> int:
    """Print every registered rule across the three layers."""
    from repro.analyze import DRC_RULES, EXIT_OK, PRG_RULES
    from repro.analyze.lint import LINT_RULES

    for rule in DRC_RULES.values():
        print(f"{rule.rule_id}  {rule.title}  [{rule.citation}]")
    for rule in PRG_RULES.values():
        print(f"{rule.rule_id}  {rule.title}  [{rule.citation}]")
    for rule in LINT_RULES.values():
        print(f"{rule.rule_id}  {rule.title} ({rule.name})  "
              f"[{rule.citation}]")
    return EXIT_OK


def _run_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.analyze import (
        EXIT_OK,
        EXIT_VIOLATIONS,
        AnalysisReport,
        Baseline,
        check_design,
        check_program,
        check_program_specs,
        check_specs,
        get_platform,
        lint_paths,
        shipped_designs,
        shipped_programs,
    )

    if args.list_rules:
        return _list_rules()
    platform = get_platform(args.platform)
    report = AnalysisReport()
    if not args.no_drc:
        if args.spec:
            with open(args.spec) as handle:
                specs = json.load(handle)
            if isinstance(specs, dict):
                specs = specs.get("designs", [specs])
            report.extend(check_specs(specs, platform))
        elif not args.program_spec:
            for design in shipped_designs():
                report.extend(check_design(design, platform))
    if args.program_spec:
        with open(args.program_spec) as handle:
            programs = json.load(handle)
        if isinstance(programs, dict):
            programs = programs.get("programs", [programs])
        report.extend(check_program_specs(programs, platform))
    elif not args.no_drc and not args.spec:
        for program in shipped_programs():
            report.extend(check_program(program, platform))
    if not args.no_lint:
        report.extend(lint_paths(args.paths))
    if args.rules:
        report = report.filter_rules(args.rules.split(","))
    if args.write_baseline:
        baseline = Baseline.from_report(report)
        baseline.save(args.write_baseline, report)
        print(f"baseline of {len(baseline.fingerprints)} finding(s) "
              f"written to {args.write_baseline}")
        return EXIT_OK
    if args.prune_baseline and not args.baseline:
        raise ValueError("--prune-baseline needs --baseline FILE")
    if args.baseline:
        baseline = Baseline.load(args.baseline)
        current = {d.fingerprint for d in report}
        stale = sorted(baseline.fingerprints - current)
        if stale:
            if args.prune_baseline:
                pruned = Baseline(baseline.fingerprints - set(stale))
                pruned.save(args.baseline, report)
                print(f"pruned {len(stale)} stale entr"
                      f"{'y' if len(stale) == 1 else 'ies'} from "
                      f"{args.baseline} "
                      f"({len(pruned.fingerprints)} kept)",
                      file=sys.stderr)
                baseline = pruned
            else:
                one = len(stale) == 1
                print(f"warning: {len(stale)} stale baseline entr"
                      f"{'y' if one else 'ies'} in {args.baseline} "
                      f"{'matches' if one else 'match'} no current "
                      "finding (re-run with --prune-baseline to drop "
                      f"{'it' if one else 'them'}): " + ", ".join(stale),
                      file=sys.stderr)
        report = report.apply_baseline(baseline)
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
    counts = report.counts()
    if counts["errors"] or (args.strict and counts["warnings"]):
        return EXIT_VIOLATIONS
    return EXIT_OK


def _parse_tenant_weights(entries) -> dict:
    """``NAME=WEIGHT`` pairs from repeated ``--tenant`` flags."""
    weights = {}
    for entry in entries or ():
        name, _, raw = entry.partition("=")
        if not name or not raw:
            raise argparse.ArgumentTypeError(
                f"--tenant expects NAME=WEIGHT, got {entry!r}")
        weights[name] = float(raw)
    return weights


def _canonical_json(payload) -> str:
    import json

    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import (
        BlasService,
        ServeConfig,
        TenantQuota,
        run_server,
    )

    fault_plan = None
    if args.faults_spec:
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.from_json_file(args.faults_spec)
    slo_spec = None
    if args.slo_spec:
        from repro.obs.slo import SloSpec

        slo_spec = SloSpec.from_file(args.slo_spec)
    config = ServeConfig(
        chassis=args.chassis,
        blades=args.blades,
        policy=args.policy,
        queue_capacity=args.queue_capacity,
        batching=not args.no_batch,
        max_gang=args.max_gang,
        coalesce_window=args.coalesce_window,
        clock_mode=args.clock,
        time_scale=args.time_scale,
        fault_plan=fault_plan,
        slo=slo_spec,
        flight_capacity=args.flight_capacity,
        flight_head_probability=args.flight_sample,
        flight_tail_latency=args.flight_tail_latency,
        flight_seed=args.flight_seed,
        sim_mode=args.sim_mode,
    )
    default_quota = TenantQuota(rate=args.quota_rate,
                                burst=args.quota_burst,
                                max_pending=args.max_pending)
    quotas = {
        name: TenantQuota(rate=args.quota_rate, burst=args.quota_burst,
                          max_pending=args.max_pending, weight=weight)
        for name, weight in _parse_tenant_weights(args.tenant).items()}
    service = BlasService(config, quotas=quotas,
                          default_quota=default_quota)

    def announce(port: int) -> None:
        print(f"repro serve listening on {args.host}:{port} "
              f"({args.clock} clock, {args.chassis} chassis x "
              f"{args.blades} blades)", flush=True)

    run_server(service, host=args.host, port=args.port, ready=announce)
    print("repro serve: shutdown requested, exiting")
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            handle.write(
                _canonical_json(service.observability_snapshot()) + "\n")
        print(f"observability snapshot written to {args.metrics_out}")
    if args.prom_out:
        from repro.obs.metrics import to_prom_text

        with open(args.prom_out, "w") as handle:
            handle.write(to_prom_text(service.registry.snapshot()))
        print(f"exposition text written to {args.prom_out}")
    if args.trace_out:
        from repro.obs.export import to_chrome_trace

        with open(args.trace_out, "w") as handle:
            handle.write(_canonical_json(
                to_chrome_trace(service.recorder)) + "\n")
        print(f"service trace written to {args.trace_out}")
    if service.slo is not None:
        verdict = service.slo.verdict()
        if not verdict["ok"]:
            print(f"SLO BREACH: {', '.join(verdict['breached'])}",
                  file=sys.stderr)
            if args.slo_strict:
                return 1
    return 0


def _fetch_metrics(host: str, port: int) -> dict:
    """Synchronously ask a running serve for its ``metrics`` payload."""
    import socket

    from repro.serve import protocol

    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(protocol.encode({"op": "metrics"}))
        chunks = b""
        while not chunks.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks += chunk
    response = protocol.decode(chunks)
    if response.get("type") != "metrics":
        raise protocol.ProtocolError(
            f"expected a metrics reply, got {response}")
    return response["metrics"]


def _render_top(metrics: dict) -> str:
    """One ``repro top`` frame: service, tenants, SLO, flight, trace."""
    lines = []
    jobs = metrics.get("jobs", {})
    lines.append(
        f"epochs {metrics.get('epochs', 0)}  "
        f"pending {jobs.get('pending', 0)}  "
        f"done {jobs.get('completed', 0)}  "
        f"failed {jobs.get('failed', 0)}  "
        f"rejected {jobs.get('rejected', 0)}  "
        f"throttled {jobs.get('quota_throttles', 0)}")
    wait = metrics.get("wait_seconds", {})
    latency = metrics.get("latency_seconds", {})
    lines.append(
        f"wait p50/p99 {wait.get('p50', 0.0) * 1e3:.3f}/"
        f"{wait.get('p99', 0.0) * 1e3:.3f} ms  "
        f"latency p50/p99 {latency.get('p50', 0.0) * 1e3:.3f}/"
        f"{latency.get('p99', 0.0) * 1e3:.3f} ms  (histogram quantiles)")
    tenants = metrics.get("tenants", {})
    if tenants:
        lines.append(f"{'tenant':<12} {'subm':>6} {'done':>6} "
                     f"{'rej':>5} {'thr':>5} {'lat p99 ms':>11}")
        for name in sorted(tenants):
            block = tenants[name]
            tenant_jobs = block["jobs"]
            lines.append(
                f"{name:<12} {tenant_jobs['submitted']:>6} "
                f"{tenant_jobs['completed']:>6} "
                f"{tenant_jobs['rejected']:>5} "
                f"{tenant_jobs['quota_throttles']:>5} "
                f"{block['latency_seconds']['p99'] * 1e3:>11.3f}")
    verdict = metrics.get("slo")
    if verdict is None:
        lines.append("slo: no spec loaded")
    else:
        state = "OK" if verdict["ok"] else \
            f"BREACHED ({', '.join(verdict['breached'])})"
        burning = [name for name, obj in verdict["objectives"].items()
                   if obj["breached_now"]]
        lines.append(f"slo: {state}"
                     + (f"  burning now: {', '.join(burning)}"
                        if burning else ""))
    flight = metrics.get("flight", {})
    if flight:
        lines.append(
            f"flight: seen {flight.get('seen', 0)}  "
            f"head {flight.get('head_held', 0)}/"
            f"{flight.get('capacity', 0)}  "
            f"tail {flight.get('tail_held', 0)}  "
            f"breach dumps {flight.get('breach_dumps', 0)}")
    trace = metrics.get("trace", {})
    if trace:
        lines.append(f"trace: {trace.get('events', 0)} events "
                     f"({trace.get('dropped_events', 0)} dropped)")
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs.metrics import to_prom_text

    while True:
        metrics = _fetch_metrics(args.host, args.port)
        if args.json:
            print(_canonical_json(metrics))
        elif args.prom:
            print(to_prom_text(metrics.get("registry", {"metrics": {}})),
                  end="")
        else:
            print(_render_top(metrics))
        if not args.watch:
            break
        print(flush=True)
        time.sleep(args.interval)
    verdict = metrics.get("slo")
    if args.strict and verdict is not None and not verdict["ok"]:
        return 1
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import (
        LoadgenConfig,
        render_report,
        run_loadgen,
    )

    tenants = _parse_tenant_weights(args.tenant)
    config = LoadgenConfig(
        count=args.count,
        seed=args.seed,
        tenants=tuple(sorted(tenants.items())) if tenants else None,
        arrival_rate=args.arrival_rate,
        drain_every=args.drain_every,
        shutdown=args.shutdown,
    )
    report = run_loadgen(config, host=args.host, port=args.port)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(render_report(report) + "\n")
        print(f"report written to {args.out}")
    if args.json:
        print(render_report(report))
    else:
        metrics = report["server_metrics"]
        jobs = metrics.get("jobs", {})
        print(f"replayed {config.count} requests "
              f"({len(report['config']['tenants'])} tenants, seed "
              f"{config.seed}) over {metrics.get('epochs', 0)} "
              f"epoch(s): {jobs.get('completed', 0)} done, "
              f"{jobs.get('failed', 0)} failed, "
              f"{jobs.get('rejected', 0)} rejected, "
              f"{jobs.get('quota_throttles', 0)} quota-throttled")
        header = (f"{'tenant':<12} {'subm':>6} {'done':>6} {'rej':>5} "
                  f"{'thr':>5} {'wait p99 ms':>12} {'lat p50 ms':>11} "
                  f"{'lat p99 ms':>11}")
        print(header)
        for name, block in metrics.get("tenants", {}).items():
            tenant_jobs = block["jobs"]
            print(f"{name:<12} {tenant_jobs['submitted']:>6} "
                  f"{tenant_jobs['completed']:>6} "
                  f"{tenant_jobs['rejected']:>5} "
                  f"{tenant_jobs['quota_throttles']:>5} "
                  f"{block['wait_seconds']['p99'] * 1e3:>12.3f} "
                  f"{block['latency_seconds']['p50'] * 1e3:>11.3f} "
                  f"{block['latency_seconds']['p99'] * 1e3:>11.3f}")
        print(f"results digest: "
              f"{report['client']['results_digest']}")
    starved = report["fairness"]["starved_tenants"]
    if starved:
        print(f"FAIRNESS VIOLATION: starved tenant(s) "
              f"{', '.join(starved)}", file=sys.stderr)
    failed = report["client"]["result_states"].get("failed", 0)
    if args.strict and (starved or failed):
        return 1
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    from repro.device.fpga import XC2VP50, XC2VP100
    from repro.perf.projection import (
        project_chassis,
        project_multi_chassis,
    )

    device = XC2VP100 if args.device == "xc2vp100" else XC2VP50
    p = project_chassis(args.pe_slices, args.pe_clock, device=device)
    print(f"one chassis, {device.name}, PE {args.pe_slices} slices @ "
          f"{args.pe_clock:.0f} MHz:")
    print(f"  {p.pes_per_fpga} PEs/FPGA -> {p.gflops:.1f} GFLOPS")
    print(f"  needs {p.dram_mbytes_per_s:.1f} MB/s DRAM "
          f"(feasible: {p.dram_feasible}), "
          f"{p.sram_gbytes_per_s:.2f} GB/s SRAM "
          f"(feasible: {p.sram_feasible})")
    mc = project_multi_chassis(args.chassis)
    print(f"{args.chassis} chassis of the measured design: "
          f"{mc.gflops:.1f} GFLOPS, {mc.dram_mbytes_per_s:.1f} MB/s "
          f"DRAM, +{mc.added_latency_cycles} cycles array latency "
          f"(feasible: {mc.feasible})")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _add_workload_options(parser: argparse.ArgumentParser,
                          jobs_default: int = 200,
                          faults_spec: bool = True) -> None:
    """Workload/system flags shared by ``runtime``, ``trace`` and
    ``faults`` (the latter registers ``--faults-spec`` itself and
    loads the plan explicitly — it must not leak into the fault-free
    sizing dry run)."""
    parser.add_argument("--chassis", type=_positive_int, default=1)
    parser.add_argument("--blades", type=_positive_int, default=6)
    parser.add_argument("--jobs", type=int, default=jobs_default)
    parser.add_argument("--policy",
                        choices=("fifo", "sjf", "edf", "area"),
                        default="area")
    parser.add_argument("--mix", choices=("mixed", "gemm", "cg"),
                        default="mixed")
    parser.add_argument("--gemm-n", type=_positive_int, default=64,
                        help="matrix order for --mix gemm")
    parser.add_argument("--gemm-m", type=_positive_int, default=None,
                        help="block size for --mix gemm (smaller m "
                             "raises the b/m gang ceiling; the "
                             "12-chassis partitioned runs use 32)")
    parser.add_argument("--cg-grid", type=_positive_int, default=16,
                        help="Poisson grid width for --mix cg (each "
                             "job is one CG descent step as a "
                             "streaming BlasProgram)")
    parser.add_argument("--arrival-rate", type=float, default=None,
                        help="requests per virtual second (default: "
                             "all at t=0)")
    parser.add_argument("--queue-capacity", type=int, default=None)
    parser.add_argument("--no-batch", action="store_true",
                        help="disable same-shape gemm coalescing")
    parser.add_argument("--max-gang", type=_positive_int, default=1,
                        help="widest multi-FPGA gang a gemm may plan "
                             "(blades per job; 1 disables gangs)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sim-mode",
                        choices=("cycle", "fast"),
                        default="cycle",
                        help="cycle = step every kernel cycle-accurately; "
                             "fast = analytic fast-forward / vectorized "
                             "replay (proven byte-identical; see "
                             "docs/simulation.md)")
    if faults_spec:
        parser.add_argument("--faults-spec", metavar="PATH",
                            default=None,
                            help="JSON fault-plan spec to inject "
                                 "during the replay (see "
                                 "docs/faults.md)")
    parser.add_argument("--max-retries", type=int, default=3,
                        help="attempts after the first before a faulted "
                             "job fails permanently")
    parser.add_argument("--quarantine-after", type=int, default=3,
                        help="faults on one blade before it is "
                             "quarantined")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the NumPy residual check on results "
                             "(default: on when the plan injects "
                             "corruption)")
    parser.add_argument("--no-degrade", action="store_true",
                        help="reject capacity-lost jobs instead of "
                             "re-planning them at smaller k")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FPGA BLAS library simulation "
                    "(Zhuo & Prasanna, SC 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="device/memory/unit catalog")

    def _sim_mode_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sim-mode",
                       choices=("cycle", "fast"),
                       default="cycle",
                       help="cycle-accurate stepping or the proven "
                            "fast path (docs/simulation.md)")

    p_dot = sub.add_parser("dot", help="simulate a dot product")
    p_dot.add_argument("-n", type=_positive_int, default=2048)
    p_dot.add_argument("-k", type=_positive_int, default=2)
    p_dot.add_argument("--seed", type=int, default=0)
    _sim_mode_flag(p_dot)

    p_gemv = sub.add_parser("gemv", help="simulate matrix-vector multiply")
    p_gemv.add_argument("-n", type=_positive_int, default=512)
    p_gemv.add_argument("-k", type=_positive_int, default=4)
    p_gemv.add_argument("--architecture", choices=("tree", "column"),
                        default="tree")
    p_gemv.add_argument("--seed", type=int, default=0)
    _sim_mode_flag(p_gemv)

    p_gemm = sub.add_parser("gemm", help="simulate matrix multiply")
    p_gemm.add_argument("-n", type=_positive_int, default=128)
    p_gemm.add_argument("-k", type=_positive_int, default=8)
    p_gemm.add_argument("-m", type=_positive_int, default=None)
    p_gemm.add_argument("--seed", type=int, default=0)
    _sim_mode_flag(p_gemm)

    p_red = sub.add_parser("reduce", help="reduction circuit shoot-out")
    p_red.add_argument("--alpha", type=int, default=14)
    p_red.add_argument("--workload", choices=("mvm", "adversarial"),
                       default="adversarial")
    p_red.add_argument("--seed", type=int, default=0)

    p_proj = sub.add_parser("project", help="chassis projections")
    p_proj.add_argument("--pe-slices", type=int, default=1600)
    p_proj.add_argument("--pe-clock", type=float, default=200.0)
    p_proj.add_argument("--device", choices=("xc2vp50", "xc2vp100"),
                        default="xc2vp50")
    p_proj.add_argument("--chassis", type=int, default=12)

    p_explore = sub.add_parser("explore",
                               help="MM design-space exploration")
    p_explore.add_argument("--device", choices=("xc2vp50", "xc2vp100"),
                           default="xc2vp50")
    p_explore.add_argument("--fpgas", type=int, default=1)
    p_explore.add_argument("--top", type=int, default=10)

    p_solve = sub.add_parser("solve", help="run a linear solver")
    p_solve.add_argument("method", choices=("cg", "lu"))
    p_solve.add_argument("--grid", type=int, default=12)
    p_solve.add_argument("-n", type=int, default=48)
    p_solve.add_argument("--jacobi", action="store_true")
    p_solve.add_argument("--seed", type=int, default=0)

    p_rt = sub.add_parser(
        "runtime", help="replay a BLAS workload on the job scheduler")
    _add_workload_options(p_rt)
    p_rt.add_argument("--json", action="store_true",
                      help="emit the metrics JSON instead of the table")
    p_rt.add_argument("--trace-out", metavar="PATH", default=None,
                      help="also record the run and write a Chrome "
                           "trace-event JSON file (open in Perfetto)")

    p_tr = sub.add_parser(
        "trace", help="trace a runtime replay: Chrome trace / JSONL "
                      "export + plan-vs-actual drift report")
    _add_workload_options(p_tr, jobs_default=60)
    p_tr.add_argument("--out", metavar="PATH", default=None,
                      help="write Chrome trace-event JSON here")
    p_tr.add_argument("--jsonl", metavar="PATH", default=None,
                      help="write the JSON-lines event log here")
    p_tr.add_argument("--drift-json", action="store_true",
                      help="emit the drift report as JSON instead of "
                           "the table")
    p_tr.add_argument("--strict", action="store_true",
                      help="exit 1 when any kernel exceeds its "
                           "predictor drift bound")

    p_fl = sub.add_parser(
        "faults", help="replay a BLAS workload under a seeded fault "
                       "storm (crashes, stalls, corruption)")
    _add_workload_options(p_fl, jobs_default=60, faults_spec=False)
    p_fl.add_argument("--faults-spec", dest="faults_spec",
                      metavar="PATH", default=None,
                      help="explicit fault-plan JSON (overrides the "
                           "storm flags); same flag name as "
                           "repro runtime/trace/serve")
    p_fl.add_argument("--fault-seed", type=int, default=0,
                      help="storm seed (also drives retry jitter and "
                           "bit/word choices)")
    p_fl.add_argument("--horizon", type=float, default=None,
                      help="storm window in virtual seconds (default: "
                           "the makespan of a fault-free dry run)")
    p_fl.add_argument("--crash-rate", type=float, default=200.0,
                      help="blade crashes per virtual second")
    p_fl.add_argument("--reconfig-rate", type=float, default=100.0,
                      help="transient bitstream-load failures per "
                           "virtual second")
    p_fl.add_argument("--stall-rate", type=float, default=100.0,
                      help="memory/interconnect stalls per virtual "
                           "second")
    p_fl.add_argument("--corrupt-rate", type=float, default=100.0,
                      help="output bit flips per virtual second")
    p_fl.add_argument("--crash-duration", type=float, default=0.002,
                      help="blade downtime per crash (virtual seconds)")
    p_fl.add_argument("--stall-multiplier", type=float, default=4.0,
                      help="execution-time stretch per stall")
    p_fl.add_argument("--json", action="store_true",
                      help="emit the metrics JSON instead of the table")
    p_fl.add_argument("--trace-out", metavar="PATH", default=None,
                      help="record the faulted run as Chrome trace JSON")

    p_an = sub.add_parser(
        "analyze", help="static analysis: design-rule checker + "
                        "program verifier + determinism lint "
                        "(no execution)")
    p_an.add_argument("paths", nargs="*", default=["src"],
                      help="files/directories to lint (default: src)")
    p_an.add_argument("--platform", choices=("xd1", "src"),
                      default="xd1",
                      help="platform model the DRC checks against")
    p_an.add_argument("--spec", metavar="PATH", default=None,
                      help="JSON design spec(s) to check instead of "
                           "the shipped design catalog")
    p_an.add_argument("--program-spec", metavar="PATH", default=None,
                      help="JSON program spec(s) to verify "
                           "(PRG001-007) instead of the shipped "
                           "solver programs")
    p_an.add_argument("--rules", metavar="IDS", default=None,
                      help="comma-separated rule ids to keep "
                           "(e.g. DRC001,PRG002,LINT003)")
    p_an.add_argument("--list-rules", action="store_true",
                      help="print every registered DRC/PRG/LINT rule "
                           "and exit 0")
    p_an.add_argument("--json", action="store_true",
                      help="emit the diagnostics report as JSON")
    p_an.add_argument("--strict", action="store_true",
                      help="treat warnings as violations (exit 1)")
    p_an.add_argument("--baseline", metavar="PATH", default=None,
                      help="suppress findings recorded in this "
                           "baseline file (stale entries warn)")
    p_an.add_argument("--write-baseline", metavar="PATH", default=None,
                      help="record current findings as the baseline "
                           "and exit 0")
    p_an.add_argument("--prune-baseline", action="store_true",
                      help="rewrite --baseline without entries "
                           "matching no current finding")
    p_an.add_argument("--no-drc", action="store_true",
                      help="skip the design-rule and program checks")
    p_an.add_argument("--no-lint", action="store_true",
                      help="skip the source lint pass")

    p_srv = sub.add_parser(
        "serve", help="run the async multi-tenant BLAS service "
                      "(JSON-over-TCP front-end to the runtime)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=7070,
                       help="TCP port (0 = ephemeral; the bound port "
                            "is announced on stdout)")
    p_srv.add_argument("--chassis", type=_positive_int, default=1)
    p_srv.add_argument("--blades", type=_positive_int, default=6)
    p_srv.add_argument("--policy",
                       choices=("fifo", "sjf", "edf", "area"),
                       default="fifo",
                       help="executor policy under the fair-share rank "
                            "(fifo preserves the rank exactly)")
    p_srv.add_argument("--queue-capacity", type=int, default=None)
    p_srv.add_argument("--no-batch", action="store_true",
                       help="disable the executor's same-shape gemm "
                            "batching")
    p_srv.add_argument("--max-gang", type=_positive_int, default=1,
                       help="widest multi-FPGA gang a gemm may plan")
    p_srv.add_argument("--coalesce-window", type=float, default=5e-5,
                       help="hold window (virtual s) for same-shape "
                            "gemm coalescing; 0 disables")
    p_srv.add_argument("--clock", choices=("virtual", "hybrid"),
                       default="virtual",
                       help="virtual = instant epochs (deterministic "
                            "replay); hybrid = pace wall-clock sleeps")
    p_srv.add_argument("--time-scale", type=float, default=1.0,
                       help="hybrid clock speed-up (virtual seconds "
                            "per wall second)")
    p_srv.add_argument("--quota-rate", type=float, default=2000.0,
                       help="admission tokens per virtual second per "
                            "tenant")
    p_srv.add_argument("--quota-burst", type=_positive_int, default=256,
                       help="admission token-bucket capacity")
    p_srv.add_argument("--max-pending", type=_positive_int,
                       default=4096,
                       help="admitted-but-undrained cap per tenant")
    p_srv.add_argument("--tenant", action="append", metavar="NAME=W",
                       default=None,
                       help="pre-register a tenant with a fair-share "
                            "weight (repeatable); unknown tenants get "
                            "weight 1")
    p_srv.add_argument("--faults-spec", metavar="PATH", default=None,
                       help="JSON fault-plan spec injected into every "
                            "epoch (see docs/faults.md)")
    p_srv.add_argument("--slo-spec", metavar="PATH", default=None,
                       help="JSON SLO spec to monitor live (see "
                            "docs/observability.md)")
    p_srv.add_argument("--slo-strict", action="store_true",
                       help="exit 1 if any objective ever breached")
    p_srv.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write the full observability snapshot "
                            "(registry + SLO verdict + flight dump) "
                            "as canonical JSON on shutdown")
    p_srv.add_argument("--prom-out", metavar="PATH", default=None,
                       help="write the metrics registry in "
                            "Prometheus-style exposition text on "
                            "shutdown")
    p_srv.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write the service-level Chrome trace "
                            "(epoch spans, slo.breach instants) on "
                            "shutdown")
    p_srv.add_argument("--flight-capacity", type=_positive_int,
                       default=256,
                       help="flight-recorder ring size (head and "
                            "tail each)")
    p_srv.add_argument("--flight-sample", type=float, default=0.01,
                       help="head sampling probability (deterministic "
                            "hash admission)")
    p_srv.add_argument("--flight-tail-latency", type=float,
                       default=None, metavar="SECONDS",
                       help="always capture requests at least this "
                            "slow (virtual s)")
    p_srv.add_argument("--flight-seed", type=int, default=0,
                       help="head-sampling hash seed")
    p_srv.add_argument("--sim-mode",
                       choices=("cycle", "fast"),
                       default="fast",
                       help="kernel simulation mode for the epoch "
                            "runtimes (serve defaults to fast: replay "
                            "determinism holds in every mode)")

    p_lg = sub.add_parser(
        "loadgen", help="replay a seeded multi-tenant request stream "
                        "against a running repro serve")
    p_lg.add_argument("--host", default="127.0.0.1")
    p_lg.add_argument("--port", type=int, default=7070)
    p_lg.add_argument("--count", type=_positive_int, default=10000)
    p_lg.add_argument("--seed", type=int, default=0)
    p_lg.add_argument("--tenant", action="append", metavar="NAME=W",
                      default=None,
                      help="tenant traffic share (repeatable; default "
                           "astro/climate/fusion equally weighted)")
    p_lg.add_argument("--arrival-rate", type=float, default=1000.0,
                      help="total requests per virtual second")
    p_lg.add_argument("--drain-every", type=_positive_int, default=2500,
                      help="submissions per epoch")
    p_lg.add_argument("--out", metavar="PATH", default=None,
                      help="write the canonical JSON report here")
    p_lg.add_argument("--json", action="store_true",
                      help="print the full JSON report instead of the "
                           "summary table")
    p_lg.add_argument("--shutdown", action="store_true",
                      help="send shutdown to the server afterwards")
    p_lg.add_argument("--strict", action="store_true",
                      help="exit 1 on starved tenants or failed jobs")

    p_top = sub.add_parser(
        "top", help="one-shot (or --watch) live telemetry view of a "
                    "running repro serve")
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int, default=7070)
    p_top.add_argument("--json", action="store_true",
                       help="print the raw metrics payload as "
                            "canonical JSON")
    p_top.add_argument("--prom", action="store_true",
                       help="print the registry in Prometheus-style "
                            "exposition text")
    p_top.add_argument("--watch", action="store_true",
                       help="refresh every --interval seconds until "
                            "interrupted or the server goes away")
    p_top.add_argument("--interval", type=float, default=2.0,
                       help="--watch refresh period (wall seconds)")
    p_top.add_argument("--strict", action="store_true",
                       help="exit 1 if the server's SLO verdict is "
                            "breached")

    p_repro = sub.add_parser(
        "reproduce", help="regenerate every paper table/figure")
    p_repro.add_argument("--full", action="store_true",
                         help="paper-size problems (slower)")
    p_repro.add_argument("--seed", type=int, default=20050512)
    return parser


_COMMANDS = {
    "info": _cmd_info,
    "dot": _cmd_dot,
    "gemv": _cmd_gemv,
    "gemm": _cmd_gemm,
    "reduce": _cmd_reduce,
    "project": _cmd_project,
    "runtime": _cmd_runtime,
    "trace": _cmd_trace,
    "faults": _cmd_faults,
    "explore": _cmd_explore,
    "analyze": _cmd_analyze,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "top": _cmd_top,
    "solve": _cmd_solve,
    "reproduce": _cmd_reproduce,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
