"""Alternating parent/change pairs of the host-time benchmark.

Runs two checkouts' own ``perfbench/run.py --trace 0`` on one workload
and seed, in pairs that alternate which checkout goes first, each run
at ``BENCHMARK.json``'s ``run_seconds``::

    python3 benchmarks/bench_stack.py --parent ../parent --change . \\
        --workload serve_tcp --seed 1 --pairs 10 --out BENCH_stack.json

Nothing is written, and the exit status is 1, when any run reports
``correct: false`` or the two checkouts disagree on a virtual-time
metric (those are modeled, so they must be identical).  Otherwise the
output file gains (or replaces) the entry of this ``(workload, seed)``:
the pair count and, for every ``end_to_end`` metric of the change's
``BENCHMARK.json``, each side's runs, median and quartiles and the
number of pairs the change won by that metric's ``better`` direction
(ties count for neither side).  ``BENCHMARK.json`` is only read.
The script imports only the standard library.
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


def summary(values):
    """Median and inclusive quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def entry(metrics, runs, workload, seed, seconds):
    """The merged entry of one (workload, seed) from paired runs."""
    out = {"workload": workload, "seed": seed,
           "pairs": len(runs["parent"]), "run_seconds": seconds,
           "metrics": {}}
    for metric in metrics:
        name = metric["name"]
        sides = {side: [run["metrics"][name]["value"]
                        for run in runs[side]]
                 for side in ("parent", "change")}
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(1 for old, new in zip(sides["parent"], sides["change"])
                   if sign * (new - old) > 0)
        out["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": dict(summary(sides["parent"]),
                           runs=sides["parent"]),
            "change": dict(summary(sides["change"]),
                           runs=sides["change"]),
            "change_wins": wins,
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
    runs = {"parent": [], "change": []}
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
    new = entry(benchmark["end_to_end"], runs, args.workload, args.seed,
                seconds)
    merged["entries"] = sorted(
        [e for e in merged["entries"]
         if (e["workload"], e["seed"]) != (args.workload, args.seed)]
        + [new], key=lambda e: (e["workload"], e["seed"]))
    with open(args.out, "w") as handle:
        json.dump(merged, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
