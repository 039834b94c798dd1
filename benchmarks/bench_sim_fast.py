"""Cycle-vs-fast wall-time baseline: regenerates BENCH_sim_fast.json.

Usage::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \
        python benchmarks/bench_sim_fast.py \
        [--out BENCH_sim_fast.json] [--gang-n 1024]

One BLAS thread keeps the gang case steady on a shared host: there a
multi-threaded matmul stalls whenever another process holds a core,
which swings the gang's fast time several-fold between runs.

Each case runs once in cycle mode and twice in fast mode: the first
fast run pays any one-time schedule recording / slab calibration, the
second shows the warm-cache speedup the runtime and serve layers see
in steady state.  Results are verified byte-identical with the
comparator from :mod:`repro.sim.diff` before a timing is reported —
a fast path that drifted would fail the regeneration, not publish a
wrong baseline.

The committed ``BENCH_sim_fast.json`` is a *descriptive* baseline for
this container; the CI gate only enforces the >=10x gang bound (see
``tests/test_sim_fast_differential.py``).
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np


def _timed(func, *args, **kwargs):
    start = time.perf_counter()
    out = func(*args, **kwargs)
    return out, time.perf_counter() - start


def bench_api_case(name, func, run_args, **kwargs):
    from repro.sim.diff import compare_api_results

    cycle_out, cycle_s = _timed(func, *run_args,
                                sim_mode="cycle", **kwargs)
    fast_cold_out, fast_cold_s = _timed(func, *run_args,
                                        sim_mode="fast", **kwargs)
    fast_warm_out, fast_warm_s = _timed(func, *run_args,
                                        sim_mode="fast", **kwargs)
    for fast_out in (fast_cold_out, fast_warm_out):
        mismatches = compare_api_results(cycle_out, fast_out)
        assert not mismatches, (name, mismatches)
    return {
        "case": name,
        "cycle_seconds": round(cycle_s, 6),
        "fast_cold_seconds": round(fast_cold_s, 6),
        "fast_warm_seconds": round(fast_warm_s, 6),
        "speedup_cold": round(cycle_s / fast_cold_s, 1),
        "speedup_warm": round(cycle_s / fast_warm_s, 1),
        "total_cycles": cycle_out.report.total_cycles,
    }


def bench_gang(n):
    from repro.blas.multi_fpga import (MultiFpgaMatrixMultiply,
                                       _slab_matmul_consistent)
    from repro.sim import fast as fastsim
    from repro.sim.diff import compare_runs

    rng = np.random.default_rng(20050512)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    design = MultiFpgaMatrixMultiply(l=6, k=8, m=8, b=n)
    cycle_run, cycle_s = _timed(design.run, A, B)
    fast_cold_run, fast_cold_s = _timed(fastsim.fast_multi_fpga_mm,
                                        design, A, B)
    fast_warm_run, fast_warm_s = _timed(fastsim.fast_multi_fpga_mm,
                                        design, A, B)
    assert _slab_matmul_consistent(design.b, design.m), \
        "gang fast path declined eligibility"
    for fast_run in (fast_cold_run, fast_warm_run):
        mismatches = compare_runs(cycle_run, fast_run)
        assert not mismatches, mismatches
    return {
        "case": f"gang_gemm_n{n}_l6_k8_m8",
        "cycle_seconds": round(cycle_s, 6),
        "fast_cold_seconds": round(fast_cold_s, 6),
        "fast_warm_seconds": round(fast_warm_s, 6),
        "speedup_cold": round(cycle_s / fast_cold_s, 1),
        "speedup_warm": round(cycle_s / fast_warm_s, 1),
        "total_cycles": cycle_run.total_cycles,
    }


def run_benchmarks(gang_n=1024):
    from repro.blas import api
    from repro.sparse import CsrMatrix

    rng = np.random.default_rng(20050512)
    cases = []

    n = 16384
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    cases.append(bench_api_case(f"dot_n{n}_k2", api.dot, (u, v), k=2))

    n = 256
    A, x = rng.standard_normal((n, n)), rng.standard_normal(n)
    cases.append(bench_api_case(f"gemv_tree_n{n}_k4", api.gemv,
                                (A, x), k=4))
    cases.append(bench_api_case(f"gemv_column_n{n}_k8", api.gemv,
                                (A, x), k=8, architecture="column"))

    n = 96
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    cases.append(bench_api_case(f"gemm_n{n}_k8_m16", api.gemm,
                                (A, B), k=8, m=16))

    n = 512
    matrix = CsrMatrix.random(n, n, density=0.02, rng=rng)
    cases.append(bench_api_case(f"spmxv_n{n}_k4", api.spmxv,
                                (matrix, rng.standard_normal(n)), k=4))

    cases.append(bench_gang(gang_n))
    return {
        "schema": "repro.bench.sim_fast/1",
        "note": "wall-clock seconds on the build container; "
                "byte-identity verified before each timing is "
                "reported (repro.sim.diff)",
        "gate": "gang case must clear 10x (CI fast-sim-smoke)",
        "cases": cases,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="regenerate the BENCH_sim_fast.json baseline")
    parser.add_argument("--out", default="BENCH_sim_fast.json")
    parser.add_argument("--gang-n", type=int, default=1024,
                        help="gang benchmark order (1024 = the "
                             "headline case; smaller for a quick run)")
    args = parser.parse_args(argv)
    payload = run_benchmarks(gang_n=args.gang_n)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    width = max(len(c["case"]) for c in payload["cases"])
    for case in payload["cases"]:
        print(f"{case['case']:<{width}}  "
              f"cycle {case['cycle_seconds']:>9.3f}s  "
              f"fast(warm) {case['fast_warm_seconds']:>9.3f}s  "
              f"{case['speedup_warm']:>7.1f}x")
    print(f"baseline written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
