"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload runs in both modes and prints the metrics named in
BENCHMARK.json, that the span tree of a traced run is well formed, and that an
untraced run leaves every ``pgdlab`` name bound to its original object.
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import child  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
    BENCHMARK = json.load(fh)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_reports_every_metric(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["small_bundles", "analyze_mcp"])
def test_span_tree_is_well_formed(workload):
    run_bench(workload, 1, seed=5)
    path = os.path.join(ROOT, ".perfbench", f"{workload}-seed5-trace1-0-1.spans.json")
    with open(path, encoding="ascii") as fh:
        spans = json.load(fh)["spans"]
    assert spans
    for i, (name, start, end, parent, command, _) in enumerate(spans):
        assert start <= end, name
        if parent >= 0:
            assert parent < i
            p_name, p_start, p_end, _, p_command, _ = spans[parent]
            assert p_start <= start and end <= p_end, (name, p_name)
            assert command == p_command
    assert all(own >= -1e-9 for own in tracer.self_times(spans))


def snapshot():
    bound = {}
    for mod in tracer.pgdlab_modules():
        for key, value in vars(mod).items():
            if key.startswith("__"):  # e.g. __warningregistry__, added by warnings
                continue
            bound[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    bound[(mod.__name__, key, attr)] = member
    for key, suite in tracer.verify.SUITES.items():
        bound[("SUITES", key)] = suite
    return bound


@pytest.mark.parametrize("trace", [0, 1])
def test_run_leaves_pgdlab_names_untouched(tmp_path, trace):
    before = snapshot()
    child.main(["--workload", "small_bundles", "--seed", "0", "--setup-index", "0",
                "--commands", "1", "--trace", str(trace), "--size", "tiny",
                "--spawned", repr(time.monotonic()), "--workdir", str(tmp_path / "work"),
                "--out", str(tmp_path / "result.json")])
    after = snapshot()
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert not changed


def test_pooled_seeds_walk_the_pool():
    seeds = child.command_seeds(3, 1, 1, range(4))
    drawn = [next(seeds) for _ in range(8)]
    assert drawn == drawn[:4] * 2 and sorted(drawn[:4]) == [0, 1, 2, 3]
