"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

They check the tracer's self-time arithmetic, that patching is undone,
that BENCHMARK.json names exactly the metrics the harness computes, and, in
smoke mode, that every workload runs untraced and traced and emits every
metric with its unit.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_traced_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    calls = []

    class Box:
        @staticmethod
        def leaf(dt):
            clock.now += dt
            calls.append(dt)

        @staticmethod
        def middle():
            clock.now += 1.0
            Box.leaf(2.0)
            Box.leaf(3.0)

    tracer.wrap([(Box, "leaf")], "leaf", spans.AGG)
    tracer.wrap([(Box, "middle")], "middle")
    with tracer.span("root"):
        clock.now += 0.5
        Box.middle()
    tracer.uninstall()

    assert calls == [2.0, 3.0]
    assert tracer.total["root"] == 6.5
    assert tracer.self_time["root"] == 0.5
    assert tracer.total["middle"] == 6.0
    assert tracer.self_time["middle"] == 1.0
    assert tracer.total["leaf"] == 5.0 and tracer.calls["leaf"] == 2
    assert tracer.longest["leaf"] == 3.0
    # aggregated calls keep no span; spans point at their enclosing span
    closed = tracer.closed_spans()
    assert [s["name"] for s in closed] == ["root", "middle"]
    assert closed[1]["parent"] == 0 and closed[0]["parent"] == -1


def test_skip_inside_passes_calls_through_untraced():
    tracer = spans.Tracer()

    class Box:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return Box.inner()

    tracer.wrap([(Box, "inner")], "inner", spans.AGG, skip_inside="outer")
    tracer.wrap([(Box, "outer")], "outer")
    Box.outer()
    Box.inner()
    tracer.uninstall()
    assert tracer.calls["inner"] == 1 and tracer.calls["outer"] == 1


def test_install_patches_callers_and_uninstall_restores():
    from andlib import cluster, features, gbt, model, pipeline

    before = (
        model.fit_boosted_trees,
        pipeline.sample_pairs,
        cluster.distance_matrix,
        gbt.Tree.predict,
        features.ProfileIndex.pair_values,
    )
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert model.fit_boosted_trees is gbt.fit_boosted_trees
        assert model.fit_boosted_trees.__wrapped__ is before[0]
        assert pipeline.sample_pairs is model.sample_pairs
        assert cluster.distance_matrix.__wrapped__ is before[2]
    finally:
        tracer.uninstall()
    after = (
        model.fit_boosted_trees,
        pipeline.sample_pairs,
        cluster.distance_matrix,
        gbt.Tree.predict,
        features.ProfileIndex.pair_values,
    )
    assert after == before


def test_p99_is_nearest_rank():
    assert spans._p99([5]) == 5
    assert spans._p99(list(range(1, 101))) == 99
    assert spans._p99(list(range(1, 201))) == 198


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_the_metrics_the_harness_computes():
    spec = _spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e == {
        "setup_s", "wall_s", "sigs_per_s", "peak_rss_mb",
        "b3_f1", "pairwise_macro_f1", "val_auroc",
    }
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    tracer = spans.Tracer()
    computed = set(spans.layer_metrics(tracer)) | {"trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == computed


@pytest.fixture(scope="module")
def smoke_lines():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def test_smoke_runs_every_workload_untraced_and_traced(smoke_lines):
    spec = _spec()
    assert len(smoke_lines) == 2 * len(run.WORKLOADS)
    for i, result in enumerate(smoke_lines):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        section = "per_layer" if i % 2 else "end_to_end"
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(
            isinstance(m["value"], (int, float)) for m in result["metrics"].values()
        )


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert not [line for line in proc.stdout.splitlines() if line.startswith("{")]
