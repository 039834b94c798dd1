"""Differential comparator: fast mode vs the cycle-accurate substrate.

Each design's fast branch (``run(..., sim_mode="fast")``, reached
through :mod:`repro.sim.fast`) claims *byte-identical* results and
*identical* charged cycles.  This module is the proof apparatus:
it compares whole Run objects field by field (arrays bytewise — no
tolerance, ``==`` on floats is the contract), and it can sweep a shape
grid under both modes producing the machine-readable comparison report
the CI ``fast-sim-smoke`` job archives.

Usage (CI / manual)::

    PYTHONPATH=src python -m repro.sim.diff --out report.json

The module exits non-zero if any grid point diverges, so the report
doubles as a gate.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np


def compare_values(name: str, cycle: Any, fast: Any) -> List[str]:
    """Mismatch descriptions for one field (empty = identical)."""
    if isinstance(cycle, np.ndarray) or isinstance(fast, np.ndarray):
        cycle_arr, fast_arr = np.asarray(cycle), np.asarray(fast)
        if cycle_arr.shape != fast_arr.shape:
            return [f"{name}: shape {cycle_arr.shape} != "
                    f"{fast_arr.shape}"]
        if cycle_arr.dtype != fast_arr.dtype:
            return [f"{name}: dtype {cycle_arr.dtype} != "
                    f"{fast_arr.dtype}"]
        if cycle_arr.tobytes() != fast_arr.tobytes():
            bad = int(np.sum(cycle_arr != fast_arr))
            return [f"{name}: {bad} element(s) differ bytewise"]
        return []
    if isinstance(cycle, float) and isinstance(fast, float):
        # Bitwise, not approximate: fast mode promises the same
        # float64, so 0.0 vs -0.0 or any ULP drift is a failure.
        if np.float64(cycle).tobytes() != np.float64(fast).tobytes():
            return [f"{name}: {cycle!r} != {fast!r} (bitwise)"]
        return []
    if cycle != fast:
        return [f"{name}: {cycle!r} != {fast!r}"]
    return []


def compare_runs(cycle_run: Any, fast_run: Any) -> List[str]:
    """Field-by-field diff of two kernel Run dataclasses.

    Every dataclass field is compared — cycle counters, word traffic,
    FLOP counts and the numeric payload alike.  Returns a list of
    human-readable mismatches; empty means the runs are equivalent.
    """
    if type(cycle_run) is not type(fast_run):
        return [f"type: {type(cycle_run).__name__} != "
                f"{type(fast_run).__name__}"]
    mismatches: List[str] = []
    for field in dataclasses.fields(cycle_run):
        mismatches.extend(compare_values(
            field.name,
            getattr(cycle_run, field.name),
            getattr(fast_run, field.name)))
    return mismatches


def compare_api_results(cycle: Any, fast: Any) -> List[str]:
    """Diff two :class:`repro.blas.api.BlasResult` outcomes."""
    mismatches = compare_values("value", cycle.value, fast.value)
    for field in dataclasses.fields(cycle.report):
        mismatches.extend(compare_values(
            f"report.{field.name}",
            getattr(cycle.report, field.name),
            getattr(fast.report, field.name)))
    return mismatches


# ----------------------------------------------------------------------
# grid sweep + report
# ----------------------------------------------------------------------
def _timed(func, *call_args, **call_kwargs):
    # Wall-clock is legitimate here: the sweep *measures* the two
    # substrates' wall cost for the CI report; nothing simulated ever
    # reads it, so replay determinism is untouched.
    start = time.perf_counter()  # repro: allow(LINT001)
    out = func(*call_args, **call_kwargs)
    return out, time.perf_counter() - start  # repro: allow(LINT001)


def sweep_case(case: Dict[str, Any]) -> Dict[str, Any]:
    """Run one grid point under both modes and diff the outcome."""
    from repro.blas import api

    op = case["operation"]
    rng = np.random.default_rng(case.get("seed", 0))
    kwargs = {key: case[key] for key in
              ("k", "m", "architecture", "block")
              if key in case}
    if "blades" in case:
        kwargs["l"] = case["blades"]
    if op == "dot":
        n = case["n"]
        run_args: Tuple[Any, ...] = (rng.standard_normal(n),
                                     rng.standard_normal(n))
        func = api.dot
    elif op == "gemv":
        n = case["n"]
        run_args = (rng.standard_normal((n, n)),
                    rng.standard_normal(n))
        func = api.gemv
    elif op == "gemm":
        n = case["n"]
        run_args = (rng.standard_normal((n, n)),
                    rng.standard_normal((n, n)))
        func = api.gemm_multi if "blades" in case else api.gemm
    elif op == "spmxv":
        from repro.sparse import CsrMatrix

        matrix = CsrMatrix.random(case["n"], case["n"],
                                  density=case.get("density", 0.05),
                                  rng=rng)
        run_args = (matrix, rng.standard_normal(case["n"]))
        func = api.spmxv
    else:  # pragma: no cover - grid is static
        raise ValueError(f"unknown operation {op!r}")

    cycle_out, cycle_s = _timed(func, *run_args,
                                sim_mode="cycle", **kwargs)
    fast_out, fast_s = _timed(func, *run_args,
                              sim_mode="fast", **kwargs)
    mismatches = compare_api_results(cycle_out, fast_out)
    return {
        "case": {key: value for key, value in case.items()},
        "identical": not mismatches,
        "mismatches": mismatches,
        "cycle_seconds": round(cycle_s, 6),
        "fast_seconds": round(fast_s, 6),
        "speedup": round(cycle_s / fast_s, 2) if fast_s > 0 else None,
    }


#: The default differential grid: every kernel, both MVM
#: architectures, blocked paths, sparse, and a real gang.
DEFAULT_GRID: List[Dict[str, Any]] = [
    {"operation": "dot", "n": 64, "k": 2},
    {"operation": "dot", "n": 2048, "k": 2},
    {"operation": "dot", "n": 4096, "k": 4},
    {"operation": "gemv", "n": 64, "k": 4},
    {"operation": "gemv", "n": 256, "k": 4},
    {"operation": "gemv", "n": 256, "k": 8, "architecture": "column"},
    {"operation": "gemv", "n": 512, "k": 4, "block": 128},
    {"operation": "gemv", "n": 448, "k": 2, "architecture": "column",
     "block": 112},
    {"operation": "gemm", "n": 64, "k": 8},
    {"operation": "gemm", "n": 96, "k": 8, "m": 16},
    {"operation": "gemm", "n": 128, "k": 8, "m": 16, "blades": 4},
    {"operation": "spmxv", "n": 256, "k": 4},
    {"operation": "spmxv", "n": 512, "k": 8, "density": 0.02},
]


def differential_report(grid: Optional[List[Dict[str, Any]]] = None
                        ) -> Dict[str, Any]:
    """Sweep the grid under both modes; report every comparison."""
    cases = [sweep_case(case) for case in (grid or DEFAULT_GRID)]
    return {
        "schema": "repro.sim.diff/1",
        "cases": cases,
        "total": len(cases),
        "identical": sum(1 for c in cases if c["identical"]),
        "ok": all(c["identical"] for c in cases),
    }


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.diff",
        description="differential fast-vs-cycle comparison sweep")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the JSON comparison report here")
    args = parser.parse_args(argv)
    report = differential_report()
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    for case in report["cases"]:
        label = ", ".join(f"{k}={v}" for k, v in case["case"].items())
        status = "identical" if case["identical"] else "DIVERGED"
        print(f"{status:>10}  {label}  "
              f"(cycle {case['cycle_seconds']}s, "
              f"fast {case['fast_seconds']}s)")
        for mismatch in case["mismatches"]:
            print(f"            {mismatch}")
    print(f"{report['identical']}/{report['total']} grid points "
          f"byte-identical")
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
