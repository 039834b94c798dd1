"""``benchmarks/bench_stack.py`` records which checkouts it compared.

Two stub checkouts stand in for the parent and the change: each
``perfbench/run.py`` prints one fixed report, so a run takes well under
a second.  An entry names each checkout's git commit (``None`` outside
git) and whether it has uncommitted changes, calibrates the host before
and after the pairs, and gives each metric's median paired ratio; a new
pair of revisions appends an entry after the earlier ones, and a rerun
of the same pair replaces its own.
"""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

SCRIPT = (pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
          / "bench_stack.py")

pytestmark = pytest.mark.skipif(shutil.which("git") is None,
                                reason="needs git")

#: perfbench/run.py of a stub checkout: one fixed report.
RUN_PY = """import json
print(json.dumps({"correct": True, "metrics": {
    "throughput_rps": {"value": %r},
    "virtual_makespan_s": {"value": 1.5}}}))
"""


def _tree(path, rps):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(RUN_PY % rps)
    (path / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"],
        "run_seconds": 0,
        "end_to_end": [{"name": "throughput_rps", "unit": "1/s",
                        "better": "higher", "bound": 0.25}]}))
    return path


def _git(tree, *args):
    return subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example",
         *args], cwd=tree, capture_output=True, text=True,
        check=True).stdout.strip()


def _commit(tree, message):
    _git(tree, "add", "-A")
    _git(tree, "commit", "-q", "-m", message)
    return _git(tree, "rev-parse", "HEAD")


def _bench(parent, change, out):
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", str(parent),
         "--change", str(change), "--workload", "serve_tcp", "--seed", "1",
         "--pairs", "2", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(out.read_text())["entries"]


def _without_hosts(entries):
    """The entries without their host calibrations, which are timings."""
    return [{key: value for key, value in entry.items() if key != "host"}
            for entry in entries]


def _script():
    spec = importlib.util.spec_from_file_location("bench_stack", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_entries_name_their_commits_and_append(tmp_path):
    parent = _tree(tmp_path / "parent", 10.0)
    change = _tree(tmp_path / "change", 12.0)
    # The output file lives in the change's checkout, as the committed
    # BENCH_stack.json does: writing it does not make the tree dirty.
    out = change / "BENCH_stack.json"
    earlier = {"workload": "serve_tcp", "seed": 1, "pairs": 3,
               "metrics": {}}
    out.write_text(json.dumps({"entries": [earlier]}))
    _git(change, "init", "-q")
    first = _commit(change, "first")

    entries = _bench(parent, change, out)
    assert entries[0] == earlier
    [new] = entries[1:]
    assert new["parent"] == {"commit": None, "dirty": None}
    assert new["change"] == {"commit": first, "dirty": False}
    rps = new["metrics"]["throughput_rps"]
    assert rps["parent"]["runs"] == [10.0, 10.0]
    assert rps["change"]["runs"] == [12.0, 12.0]
    assert rps["change_wins"] == 2
    assert rps["median_ratio"] == pytest.approx(1.2)
    assert set(new["host"]) == {"before", "after"}
    for calibration in new["host"].values():
        assert set(calibration) == {"cpus", "loop_s", "loop_pair_s"}
        assert calibration["cpus"] >= 1
        assert calibration["loop_s"] > 0 and calibration["loop_pair_s"] > 0

    # The same pair again replaces its entry.
    assert _without_hosts(_bench(parent, change, out)) == \
        _without_hosts(entries)

    # An uncommitted edit, then a new commit, are new pairs.
    (change / "perfbench" / "run.py").write_text(RUN_PY % 13.0)
    entries = _bench(parent, change, out)
    assert [e["change"] for e in entries[1:]] == [
        {"commit": first, "dirty": False},
        {"commit": first, "dirty": True}]
    second = _commit(change, "second")
    entries = _bench(parent, change, out)
    assert entries[0] == earlier
    assert [e["change"]["commit"] for e in entries[1:]] == [
        first, first, second]


def test_a_directory_inside_a_work_tree_has_no_commit(tmp_path):
    outer = _tree(tmp_path / "outer", 10.0)
    _git(outer, "init", "-q")
    _commit(outer, "outer")
    inner = _tree(outer / "inner", 11.0)
    entries = _bench(inner, outer, tmp_path / "out.json")
    assert entries[0]["parent"] == {"commit": None, "dirty": None}
    assert entries[0]["change"]["dirty"] is True  # inner is untracked


def test_median_ratio_pairs_runs_and_skips_a_zero_parent():
    metrics = [{"name": "throughput_rps", "unit": "1/s",
                "better": "higher"},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]

    def runs(values):
        return [{"metrics": {"throughput_rps": {"value": rps},
                             "peak_rss_mb": {"value": 0.0}}}
                for rps in values]

    out = _script().entry(
        metrics, {"parent": runs([10.0, 20.0, 0.0, 4.0]),
                  "change": runs([12.0, 10.0, 5.0, 6.0])},
        {}, {}, "gang_scaleout", 1, 30)
    rps = out["metrics"]["throughput_rps"]
    assert rps["median_ratio"] == pytest.approx(1.2)  # of 1.2, 0.5, 1.5
    assert rps["change_wins"] == 3
    assert out["metrics"]["peak_rss_mb"]["median_ratio"] is None


def test_host_counts_the_affinity_mask():
    calibration = _script().host()
    if hasattr(os, "sched_getaffinity"):
        assert calibration["cpus"] == len(os.sched_getaffinity(0))
    assert 0 < calibration["loop_s"] < 60
    assert 0 < calibration["loop_pair_s"] < 60
