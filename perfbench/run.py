"""Host-time benchmark of the BLAS stack: one command, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload serve_tcp --seed 1 \\
        --seconds 20 --trace 0

``--workload`` is one of ``serve_tcp``, ``runtime_cycle`` and
``gang_scaleout`` (see ``perfbench/workloads.py``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; each metric carries its
value and unit, the names and units being those of ``BENCHMARK.json``.

* ``--trace 0`` reports the end-to-end metrics: set-up time, then
  rounds of the workload until ``--seconds`` host seconds have been
  measured, then the correctness gate.
* ``--trace 1`` reports the per-layer metrics: after the same set-up,
  ``TRACE_PAIRS`` pairs of an untraced round and a round with the layer
  wrappers of ``perfbench/layers.py`` installed.  The layers come from
  the last traced round; the tracing overhead compares the medians of
  the two kinds of round.  The spans are written to
  ``.perfbench_out/spans-<workload>-seed<seed>.jsonl``.

Every round of one run must produce the same result digest sequence,
and the first round's results must pass the workload's gate; any
failure counts in ``failed``, sets ``correct`` to false, withholds every
host-time metric and makes the command exit 1.

``setup_s`` runs from this module's first statement to the timed
phase: the imports once, plus the median of three cold set-ups (input
generation, server start and warm-up, after emptying the program's
caches).  ``--scale tiny`` shrinks every workload for the self-tests
(``python3 -m pytest perfbench``).
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before NumPy loads: a multi-threaded matmul
# stalls whenever another process holds one of the cores, which turns
# host noise into threefold swings of the gang workload.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Seeds, warm-up choices and per-layer targets (see its ``about``).
DESIGN = os.path.join(ROOT, "perfbench", "design.json")
#: Cold set-ups per run; ``setup_s`` takes their median.
SETUP_REPEATS = 3
#: Untraced/traced round pairs of a traced run: one pair measures host
#: noise between its two rounds more than the cost of the wrappers.
TRACE_PAIRS = 3


def _load_program() -> None:
    """Put this checkout's sources first on the path (refusing to run
    against anything else) and import everything the workloads use."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if os.path.dirname(os.path.dirname(repro.__file__)) != SRC:
        raise SystemExit(f"perfbench: imported repro from "
                         f"{repro.__file__}, not from {SRC}")
    # Modules the serve path imports lazily on its first program
    # submission: importing them here keeps them in the import time.
    import repro.analyze.program  # noqa: F401
    import repro.solvers.cg  # noqa: F401
    from perfbench import layers, workloads  # noqa: F401


def metric_units(trace: bool) -> dict:
    """``{name: unit}`` of the metrics a run reports, from
    ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _set_up(cls, seed: int, scale: str):
    """Run the workload's set-up ``SETUP_REPEATS`` times from cold;
    returns the last workload and the median set-up seconds."""
    from perfbench import workloads

    seconds = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None  # release the previous inputs first
        workloads.clear_caches()
        gc.collect()
        start = time.perf_counter()
        workload = cls(seed, scale, OUT_DIR)
        workload.setup()
        seconds.append(time.perf_counter() - start)
    return workload, statistics.median(seconds)


def _check_rounds(workload, rounds) -> list:
    """Gate the first round; every later round must repeat its result
    digest sequence.  Returns the failures found, one per request."""
    first = rounds[0]
    failures = list(first.failures) + workload.gate(first)
    for index, rnd in enumerate(rounds[1:], start=2):
        failures += rnd.failures
        failures += [f"round {index}: request {i} digest differs from "
                     "round 1"
                     for i, (a, b) in enumerate(zip(first.digests,
                                                    rnd.digests))
                     if a != b]
    return failures


def _round(workload, rounds: list, log=None) -> None:
    """Run one round and append it to ``rounds``.  It starts on a
    collected heap so that garbage left by set-up or by the previous
    round is not charged to it; only round 1 keeps its results, which
    the gate checks."""
    gc.collect()
    rnd = workload.round(log)
    if rounds:
        rnd.results = None
    rounds.append(rnd)


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            scale: str = "full") -> dict:
    """One benchmark run in this process; returns the result object."""
    from repro.runtime.metrics import percentile

    from perfbench import layers, workloads

    import_s = time.perf_counter() - _STARTED
    os.makedirs(OUT_DIR, exist_ok=True)
    cls = workloads.WORKLOADS[workload_name]
    workload, setup_median = _set_up(cls, seed, scale)
    log = None
    rounds = []
    if trace:
        for _ in range(TRACE_PAIRS):
            _round(workload, rounds)
            log = layers.SpanLog()
            log.client_threads.add(threading.get_ident())
            with layers.Tracer(log):
                _round(workload, rounds, log)
    else:
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            _round(workload, rounds)
    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   / 1024.0)
    failures = _check_rounds(workload, rounds)
    for failure in failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    failed = min(len(failures), attempted)
    correct = not failures
    first = rounds[0]
    values = {
        "success_ratio": 1.0 - failed / attempted,
        "virtual_makespan_s": first.virtual_makespan_s,
        "virtual_tail_latency_ms": first.virtual_tail_latency_s * 1e3,
    }
    if correct and trace:
        traced = rounds[-1]
        overhead = (statistics.median(r.seconds for r in rounds[1::2])
                    / statistics.median(r.seconds for r in rounds[::2])
                    - 1.0)
        values = layers.layer_metrics(
            log, traced.seconds, overhead, traced.schedule_misses,
            traced.program_requests)
        log.write(os.path.join(
            OUT_DIR, f"spans-{workload_name}-seed{seed}.jsonl"))
    elif correct:
        # Medians over rounds: a round is a fixed amount of work, and
        # the median keeps a burst of host contention from moving them.
        values.update({
            "setup_s": import_s + setup_median,
            "throughput_rps": statistics.median(
                r.completed / r.seconds for r in rounds),
            "latency_p50_ms": statistics.median(
                percentile(r.latencies, 50) for r in rounds) * 1e3,
            "latency_p99_ms": statistics.median(
                percentile(r.latencies, 99) for r in rounds) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        })
    units = metric_units(trace)
    if correct:
        missing = sorted(set(units) - set(values))
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    return {"correct": correct, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the BLAS stack.")
    parser.add_argument("--workload", required=True,
                        choices=("serve_tcp", "runtime_cycle",
                                 "gang_scaleout"))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: design.json's)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds of rounds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"),
                        default="full",
                        help="'tiny' shrinks every workload (self-tests)")
    args = parser.parse_args(argv)
    if args.seed is None:
        with open(DESIGN) as handle:
            args.seed = json.load(handle)["seeds"]["default"]
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    _load_program()
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.scale)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
