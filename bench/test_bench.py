"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run_bench(workload, seed, trace, root=ROOT, timeout=120):
    cmd = [sys.executable, os.path.join(root, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, 3, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0.0, m["name"]


def _canonical(result):
    """Comparable form of any workload output."""
    if hasattr(result, "to_json"):
        return json.dumps(result.to_json(), sort_keys=True)
    if hasattr(result, "to_dict"):
        return json.dumps(result.to_dict(), sort_keys=True)
    if isinstance(result, np.ndarray):
        return result.tolist()
    return repr(result)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_outputs_equal_untraced(workload):
    wl = workloads.build(workload, seed=4, tiny=True)
    plain = [_canonical(op.call()) for op in wl.round_ops(0)]
    tracer = Tracer()
    traced = []
    tracer.install()
    try:
        for i, op in enumerate(wl.round_ops(0)):
            tracer.begin_op(i)
            traced.append(_canonical(op.call()))
            tracer.end_op()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.spans and all(span is not None for span in tracer.spans)
    # uninstalling restores every binding
    from graphonlab import density, search, stepgraphon

    assert not hasattr(density.hom_density, "__wrapped__")
    assert search.hom_density is density.hom_density
    assert not hasattr(stepgraphon.StepGraphon.__init__, "__wrapped__")


def test_search_evaluations_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = run_bench("search", 5, 1)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append((metrics["search.evaluations"]["value"], metrics["search.gradients"]["value"]))
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][1] > 0


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("verify", 1, 0, root=str(tmp_path), timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
