"""Cycle-vs-fast wall-time baseline: regenerates BENCH_sim_fast.json.

Usage::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \
        python benchmarks/bench_sim_fast.py \
        [--out BENCH_sim_fast.json] [--gang-n 1024]

One BLAS thread keeps the timings steady on a shared host, where a
multi-threaded BLAS call stalls whenever another process holds a core.

The process is warmed before anything is timed: the exact-order gemm
kernel is loaded, and every case runs once untimed in each mode, so no
case's first timed run pays an import, a kernel load or a first-call
cache.  A case with two modes (dot, both gemvs, spmxv) then runs once
in cycle mode and twice in fast mode: the first fast run starts from an
empty reduction-schedule cache and pays the recording, the second
shows the warm-cache speedup the runtime and serve layers see in
steady state.  Gemm, on one blade or a gang, runs the same kernel with
closed-form counters in both modes, so its row is one warm ``seconds``
value and no speedup.  Results are verified byte-identical across the
modes with the comparator from :mod:`repro.sim.diff` before a timing
is reported — a fast path that drifted would fail the regeneration,
not publish a wrong baseline.

The committed ``BENCH_sim_fast.json`` is a *descriptive* baseline for
this container; nothing gates on it.
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


def _checked(name, cycle_out, fast_out):
    from repro.sim.diff import compare_api_results

    mismatches = compare_api_results(cycle_out, fast_out)
    assert not mismatches, (name, mismatches)


def bench_modes(name, func, run_args, **kwargs):
    """A case whose two modes run different code: cycle, then fast from
    an empty schedule cache (cold) and from a full one (warm)."""
    from repro.sim import fast as fastsim

    cycle_out, cycle_s = _timed(func, *run_args,
                                sim_mode="cycle", **kwargs)
    fastsim.reduction_program.cache_clear()
    fast_cold_out, fast_cold_s = _timed(func, *run_args,
                                        sim_mode="fast", **kwargs)
    fast_warm_out, fast_warm_s = _timed(func, *run_args,
                                        sim_mode="fast", **kwargs)
    for fast_out in (fast_cold_out, fast_warm_out):
        _checked(name, cycle_out, fast_out)
    return {
        "case": name,
        "cycle_seconds": round(cycle_s, 6),
        "fast_cold_seconds": round(fast_cold_s, 6),
        "fast_warm_seconds": round(fast_warm_s, 6),
        "speedup_cold": round(cycle_s / fast_cold_s, 1),
        "speedup_warm": round(cycle_s / fast_warm_s, 1),
        "total_cycles": cycle_out.report.total_cycles,
    }


def bench_one_path(name, func, run_args, **kwargs):
    """A gemm case: one path in both modes, timed once in fast mode."""
    cycle_out = func(*run_args, sim_mode="cycle", **kwargs)
    fast_out, seconds = _timed(func, *run_args, sim_mode="fast", **kwargs)
    _checked(name, cycle_out, fast_out)
    return {
        "case": name,
        "seconds": round(seconds, 6),
        "total_cycles": fast_out.report.total_cycles,
    }


def run_benchmarks(gang_n=1024):
    from repro.blas import api, exact_gemm
    from repro.sparse import CsrMatrix

    rng = np.random.default_rng(20050512)
    n = 16384
    u, v = rng.standard_normal(n), rng.standard_normal(n)
    A256, x256 = rng.standard_normal((256, 256)), rng.standard_normal(256)
    A96, B96 = rng.standard_normal((96, 96)), rng.standard_normal((96, 96))
    matrix = CsrMatrix.random(512, 512, density=0.02, rng=rng)
    x512 = rng.standard_normal(512)
    A = rng.standard_normal((gang_n, gang_n))
    B = rng.standard_normal((gang_n, gang_n))
    cases = [
        (bench_modes, f"dot_n{n}_k2", api.dot, (u, v), {"k": 2}),
        (bench_modes, "gemv_tree_n256_k4", api.gemv, (A256, x256),
         {"k": 4}),
        (bench_modes, "gemv_column_n256_k8", api.gemv, (A256, x256),
         {"k": 8, "architecture": "column"}),
        (bench_one_path, "gemm_n96_k8_m16", api.gemm, (A96, B96),
         {"k": 8, "m": 16}),
        (bench_modes, "spmxv_n512_k4", api.spmxv, (matrix, x512),
         {"k": 4}),
        (bench_one_path, f"gang_gemm_n{gang_n}_l6_k8_m8", api.gemm_multi,
         (A, B), {"l": 6, "k": 8, "m": 8}),
    ]
    exact_gemm.kernel()
    for _, _, func, run_args, kwargs in cases:
        for mode in ("cycle", "fast"):
            func(*run_args, sim_mode=mode, **kwargs)
    return {
        "schema": "repro.bench.sim_fast/2",
        "note": "wall-clock seconds on the build container, in a "
                "warmed process; byte-identity verified before each "
                "timing is reported (repro.sim.diff)",
        "cases": [bench(name, func, run_args, **kwargs)
                  for bench, name, func, run_args, kwargs in cases],
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
        if "seconds" in case:
            print(f"{case['case']:<{width}}  "
                  f"one path {case['seconds']:>9.4f}s")
        else:
            print(f"{case['case']:<{width}}  "
                  f"cycle {case['cycle_seconds']:>9.4f}s  "
                  f"fast(warm) {case['fast_warm_seconds']:>9.4f}s  "
                  f"{case['speedup_warm']:>7.1f}x")
    print(f"baseline written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
