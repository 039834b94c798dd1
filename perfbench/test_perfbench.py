"""Self-tests of the benchmark, on tiny inputs::

    python3 -m pytest perfbench

Each test runs the benchmark command in a fresh process, as the
benchmark is meant to be run.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("serve_tcp", "runtime_cycle", "gang_scaleout")
#: Host-time metrics, which a run failing its gate must not publish.
TIMINGS = ("setup_s", "throughput_rps", "latency_p50_ms",
           "latency_p99_ms", "peak_rss_mb")

#: Installs a wrapper on ``BlasRuntime.run`` that flips the lowest bit
#: of the first completed job's result, then runs the benchmark.
FLIP_ONE_BIT = """
import sys
import numpy as np
sys.path.insert(0, {perfbench!r})
import run
run._load_program()
from repro.runtime.executor import BlasRuntime
from repro.runtime.job import JobState

original = BlasRuntime.run

def flip_one_bit(self):
    metrics = original(self)
    for job in self.jobs:
        if job.state is JobState.DONE:
            value = np.array(job.result, dtype=np.float64)
            value.reshape(-1).view(np.uint64)[0] ^= np.uint64(1)
            job.result = value if value.ndim else float(value)
            break
    return metrics

BlasRuntime.run = flip_one_bit
sys.exit(run.main({argv!r}))
"""


def _tiny_args(workload, trace):
    return ["--workload", workload, "--seed", "3", "--seconds", "0.5",
            "--trace", str(trace), "--scale", "tiny"]


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.fixture(scope="module")
def tiny_runs():
    """Each workload once untraced and once traced, run lazily."""
    done = {}

    def get(workload, trace):
        if (workload, trace) not in done:
            done[workload, trace] = subprocess.run(
                [sys.executable, RUN] + _tiny_args(workload, trace),
                cwd=ROOT, capture_output=True, text=True, timeout=600)
        return done[workload, trace]

    return get


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(tiny_runs, workload,
                                                   trace):
    proc = tiny_runs(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = _units("per_layer" if trace else "end_to_end")
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_time_stays_within_traced_wall(tiny_runs, workload):
    metrics = _result(tiny_runs(workload, 1))["metrics"]
    self_total = sum(metric["value"] for name, metric in metrics.items()
                     if name.endswith(".self_s")
                     and name != "unattributed.self_s")
    assert self_total <= metrics["trace.wall_s"]["value"]
    assert metrics["unattributed.self_s"]["value"] >= 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_layer_is_measured_where_design_says(tiny_runs, workload):
    with open(os.path.join(ROOT, "perfbench", "design.json")) as handle:
        targets = json.load(handle)["per_layer_targets"]
    metrics = _result(tiny_runs(workload, 1))["metrics"]
    unmeasured = [name for name, target in targets.items()
                  if name.endswith(".calls") and workload in target["on"]
                  and metrics[name]["value"] == 0]
    assert unmeasured == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_flipped_result_bit_fails_the_gate(workload):
    code = FLIP_ONE_BIT.format(perfbench=os.path.dirname(RUN),
                               argv=_tiny_args(workload, 0))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1, proc.stderr
    result = _result(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert not set(TIMINGS) & set(result["metrics"])


def test_refuses_to_run_without_the_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.dirname(RUN)):
        path = os.path.join(os.path.dirname(RUN), name)
        if os.path.isfile(path):
            with open(path) as src:
                (bench / name).write_text(src.read())
    with open(os.path.join(ROOT, "BENCHMARK.json")) as src:
        (tmp_path / "BENCHMARK.json").write_text(src.read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py")]
        + _tiny_args("runtime_cycle", 0),
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_design_record_covers_every_workload_and_layer_metric():
    with open(os.path.join(ROOT, "perfbench", "design.json")) as handle:
        design = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert set(design["warm_up"]) == {w["name"] for w in spec["workloads"]}
    assert set(design["per_layer_targets"]) == set(_units("per_layer"))
    assert set(design["end_to_end"]) == set(_units("end_to_end"))
    assert design["seeds"]["default"] != design["seeds"]["held_out"]
