"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import timeit
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--size", "tiny",
         "--seconds", "1", "--seed", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_reported_without_errors(workload):
    proc = run_bench("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert "error_rate 0.0000 ratio" in proc.stdout
    assert "(matches pin)" in proc.stdout
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, unit in expected.items():
        assert any(line.startswith("%s " % name) and (" %s" % unit) in line
                   for line in lines)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    proc = run_bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected


def test_layer_metric_list_matches_benchmark_json():
    listed = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert listed == tracing.LAYER_METRICS


GLUE_SHARE = 0.02  # the op's own code outside the program's functions


def span_cost() -> float:
    """Least extra time of one traced call with a counter hook over a
    direct call, around a function that does nothing."""
    tracer = tracing.Tracer()
    tracer.op = (0, 0)

    def noop():
        return None

    traced = tracer._wrap(noop, "noop", after=lambda *_: None)
    best = {}
    for fn in (noop, traced):
        best[fn] = min(timeit.repeat(fn, number=2000, repeat=5)) / 2000
    return best[traced] - best[noop]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_root_spans_add_up_to_op_wall_time(workload, tmp_path):
    """Per op, the wall time the root spans leave uncovered is at most the
    tracing overhead of those spans (ten times the cost of one traced call)
    plus the op's own glue (unpacking the op, redirecting the CLI's output,
    merging acquired entries).  Each op's least uncovered time over the
    passes is used, as load from other processes only adds time."""
    cost = span_cost()
    wl = worker.make_workload(workload, 1, "tiny", str(tmp_path))
    tracer = tracing.Tracer()
    try:
        wl.load()
        tracer.install()
        report = worker.run_passes(wl, 0.0, tracer)
    finally:
        tracer.uninstall()
        wl.close()
    assert report["failed"] == 0
    roots, root_calls = {}, {}
    for name, start, end, parent, op in tracer.spans:
        assert op is not None, "span %s outside an op" % name
        if parent is None:
            roots[op] = roots.get(op, 0.0) + end - start
            root_calls[op] = root_calls.get(op, 0) + 1
    walls = dict(report["walls"])
    assert set(roots) == set(walls)
    least = {}
    for (pass_, i), wall in walls.items():
        uncovered = wall - roots[pass_, i]
        if i not in least or uncovered < least[i][0]:
            least[i] = (uncovered, wall, root_calls[pass_, i])
    for i, (uncovered, wall, calls) in sorted(least.items()):
        bound = 10 * calls * cost + GLUE_SHARE * wall
        assert uncovered <= bound, (
            "op %d: %.1f us of %.1f us outside root spans (bound %.1f us)"
            % (i, 1e6 * uncovered, 1e6 * wall, 1e6 * bound))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH="")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ambiguous",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_fails_when_outputs_differ_from_the_pin(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    pins = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    pins["workloads"]["ambiguous"]["digests"]["tiny/1"] = "0" * 64
    (tmp_path / "bench" / "workloads.json").write_text(json.dumps(pins),
                                                       encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ambiguous",
         "--size", "tiny", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0
    assert "DIFFERS from pin" in proc.stdout
    assert '"metrics"' not in proc.stdout


def test_paired_comparison_verdicts():
    import compare

    parent = [100.0 + i for i in range(10)]
    assert compare.verdict(parent, [150.0 + i for i in range(10)],
                           "higher", 0.25)[2] == "gain"
    assert compare.verdict(parent, [60.0 + i for i in range(10)],
                           "higher", 0.25)[2] == "regression"
    assert compare.verdict(parent, [101.0 + i for i in range(10)],
                           "lower", 0.25)[2] == "within bound"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, noisy, "lower", 0.25)[2] == "unresolved"
    faster = [150.0 + i for i in range(10)]
    assert compare.verdict(parent, faster, "higher", 0.25,
                           same_outputs=False)[2] == "outputs differ"
