"""Alternating parent/change pairs of the host-time benchmark.

Runs two checkouts' own ``perfbench/run.py --trace 0`` on one workload
and seed, in pairs that alternate which checkout goes first, each run
at ``BENCHMARK.json``'s ``run_seconds``::

    python3 benchmarks/bench_stack.py --parent ../parent --change . \\
        --workload serve_tcp --seed 1 --pairs 10 --out BENCH_stack.json

Nothing is written, and the exit status is 1, when any run reports
``correct: false`` or the two checkouts disagree on a virtual-time
metric (those are modeled, so they must be identical).  Otherwise the
output file gains one entry: the pair count, each checkout's ``git``
commit (``null`` when the checkout is not the root of a git work tree,
as a ``git archive`` extract is not; make the parent with ``git clone``
to record it) and whether it has uncommitted changes other than to the
output file; a host calibration taken before the first pair and after
the last (the CPUs in this process's affinity mask, and the wall
seconds of a fixed pure-Python loop run alone and as two concurrent
processes on two CPUs of that mask, so a series whose second CPU is
busy or missing shows); and, for every ``end_to_end`` metric of the
change's ``BENCHMARK.json``, each side's runs, median and quartiles,
the median of the paired ratios change/parent, and the number of pairs
the change won by that metric's ``better`` direction (ties count for
neither side).  Entries are keyed by workload, seed and the two
checkouts' revisions: a new key is appended after the earlier entries,
which stay as they are, and a rerun of the same key replaces its entry.
``BENCHMARK.json`` is only read.  The script imports only the standard
library.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

#: A run gets this many times its measured seconds, plus set-up slack,
#: before it counts as hung.
TIMEOUT_FACTOR = 20
TIMEOUT_SLACK_S = 600
#: The calibration loop: fixed pure-Python work that prints its own
#: wall seconds, interpreter start-up excluded, on the CPU given as its
#: argument when there is one.
CALIBRATION_LOOP = """
import os, sys, time
if len(sys.argv) > 1:
    os.sched_setaffinity(0, {int(sys.argv[1])})
start = time.perf_counter()
x = 0
for i in range(1_000_000):
    x = (x * 31 + i) % 1_000_003
print(time.perf_counter() - start)
"""


def run_once(tree, command, workload, seed, seconds):
    """One ``--trace 0`` run in ``tree``; returns its JSON report."""
    argv = list(command) + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=TIMEOUT_FACTOR * seconds + TIMEOUT_SLACK_S)
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines else {"correct": False}
    if proc.returncode != 0 and report.get("correct", False):
        report["correct"] = False
    if not report.get("correct", False):
        sys.stderr.write(proc.stderr[-4000:])
    return report


def loop_seconds(cpus):
    """The calibration loop's wall seconds in one process per entry of
    ``cpus``, run concurrently, each pinned to its CPU (unpinned where
    an entry is ``None``)."""
    procs = [subprocess.Popen(
        [sys.executable, "-c", CALIBRATION_LOOP]
        + ([] if cpu is None else [str(cpu)]),
        stdout=subprocess.PIPE, text=True) for cpu in cpus]
    return [float(proc.communicate(timeout=TIMEOUT_SLACK_S)[0])
            for proc in procs]


def host():
    """The host calibration: the CPUs this process may run on, and the
    loop's seconds alone and, for the slower of two, side by side on
    the first two of those CPUs (one when it has one).  The pair is
    pinned because on a small VM a new process can share its parent's
    CPU for hundreds of milliseconds before the scheduler moves it to
    an idle one."""
    try:
        mask = sorted(os.sched_getaffinity(0))
    except AttributeError:
        mask = [None] * (os.cpu_count() or 1)
    return {"cpus": len(mask), "loop_s": loop_seconds(mask[:1])[0],
            "loop_pair_s": max(loop_seconds((mask * 2)[:2]))}


def revision(tree, out):
    """The checkout's HEAD commit and whether it has uncommitted
    changes other than to the output file ``out``, both ``None``
    unless ``tree`` is the root of a git work tree."""
    unknown = {"commit": None, "dirty": None}
    root, out = os.path.realpath(tree), os.path.realpath(out)
    status = ["git", "status", "--porcelain"]
    if out.startswith(root + os.sep):
        status += ["--", ".", f":(exclude){os.path.relpath(out, root)}"]
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=tree,
            capture_output=True, text=True, check=True).stdout.split()
        changes = subprocess.run(status, cwd=tree, capture_output=True,
                                 text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return unknown
    if len(top) != 2 or os.path.realpath(top[0]) != root:
        return unknown
    return {"commit": top[1], "dirty": bool(changes.strip())}


def key(entry):
    """What an entry compares: a rerun with the same key replaces it."""
    return (entry["workload"], entry["seed"], entry.get("parent"),
            entry.get("change"))


def summary(values):
    """Median and inclusive quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def entry(metrics, runs, revisions, hosts, workload, seed, seconds):
    """The merged entry of one (workload, seed) from paired runs of the
    two checkouts at ``revisions`` on a host calibrated as ``hosts``."""
    out = {"workload": workload, "seed": seed,
           "pairs": len(runs["parent"]), "run_seconds": seconds,
           "host": hosts, "metrics": {}, **revisions}
    for metric in metrics:
        name = metric["name"]
        sides = {side: [run["metrics"][name]["value"]
                        for run in runs[side]]
                 for side in ("parent", "change")}
        sign = 1 if metric["better"] == "higher" else -1
        pairs = list(zip(sides["parent"], sides["change"]))
        wins = sum(1 for old, new in pairs if sign * (new - old) > 0)
        ratios = [new / old for old, new in pairs if old]
        out["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": dict(summary(sides["parent"]),
                           runs=sides["parent"]),
            "change": dict(summary(sides["change"]),
                           runs=sides["change"]),
            "change_wins": wins,
            "median_ratio": statistics.median(ratios) if ratios else None,
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Alternating parent/change perfbench pairs.")
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True,
                        help="JSON file to merge the entry into")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    with open(os.path.join(args.change, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]
    trees = {"parent": args.parent, "change": args.change}
    revisions = {side: revision(tree, args.out)
                 for side, tree in trees.items()}
    runs = {"parent": [], "change": []}
    hosts = {"before": host()}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                           "parent")
        for side in order:
            report = run_once(trees[side], benchmark["command"],
                              args.workload, args.seed, seconds)
            if not report.get("correct", False):
                print(f"bench_stack: {side} run {pair} is not correct",
                      file=sys.stderr)
                return 1
            runs[side].append(report)
            print(f"pair {pair} {side}: " + ", ".join(
                f"{name}={m['value']:.6g}"
                for name, m in sorted(report["metrics"].items())),
                file=sys.stderr)
    hosts["after"] = host()
    virtual = sorted(name for name in runs["parent"][0]["metrics"]
                     if name.startswith("virtual_"))
    seen = {name: {run["metrics"][name]["value"]
                   for side in runs.values() for run in side}
            for name in virtual}
    differ = sorted(name for name, values in seen.items()
                    if len(values) > 1)
    if differ:
        print(f"bench_stack: virtual metrics differ: {differ}",
              file=sys.stderr)
        return 1

    merged = {"entries": []}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            merged = json.load(handle)
    new = entry(benchmark["end_to_end"], runs, revisions, hosts,
                args.workload, args.seed, seconds)
    merged["entries"] = [e for e in merged["entries"]
                         if key(e) != key(new)] + [new]
    with open(args.out, "w") as handle:
        json.dump(merged, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
