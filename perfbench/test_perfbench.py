"""Self-tests of the benchmark, on shrunken workloads.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL = {
    "render": lambda seed: workloads.Render(seed, gaussians=60, res=24, frames=3),
    "fit": lambda seed: workloads.Fit(seed, gaussians=12, res=16, patch=8, iters=4),
    "fit-geometry": lambda seed: workloads.Fit(seed, gaussians=3, res=16, patch=8,
                                               lr=2e-4, iters=1, geometry=True),
    "drr": lambda seed: workloads.Drr(seed, n=17, spacing=2.0, radius=12.0, det=65,
                                      views=2),
}


def _layer_namespaces():
    return {m.__name__: dict(vars(m)) for m in tracer._layer_modules().values()}


@pytest.fixture(scope="module", params=sorted(SMALL))
def runs(request):
    """Timed and traced run of one shrunken workload, with the layer
    namespaces before and after."""
    before = _layer_namespaces()
    try:
        timed = bench.timed_run(SMALL[request.param](3), 0.0)
        traced = bench.traced_run(SMALL[request.param](3), 0.0)
    finally:
        workloads.shutdown_pools()
    return request.param, timed, traced, before, _layer_namespaces()


def test_workloads_match_benchmark_json():
    assert sorted(SMALL) == sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(workloads.WORKLOADS) == sorted(SMALL)


def test_runs_pass_their_checks(runs):
    _, timed, traced, _, _ = runs
    for s in timed["samples"] + traced["samples"]:
        assert s.problems == []


def test_traced_outputs_bitwise_equal_untraced(runs):
    _, _, traced, _, _ = runs
    samples = traced["samples"]
    half = len(samples) // 2
    assert half >= 1
    assert [s.digest for s in samples[:half]] == [s.digest for s in samples[half:]]


def test_wrappers_restored_after_traced_run(runs):
    _, _, _, before, after = runs
    for mod, names in before.items():
        assert set(after[mod]) == set(names)
        for attr, obj in names.items():
            assert after[mod][attr] is obj, f"{mod}.{attr}"


def test_wrappers_restored_when_the_block_raises():
    before = _layer_namespaces()
    with pytest.raises(KeyError):
        with tracer.Tracer().installed():
            raise KeyError("boom")
    after = _layer_namespaces()
    assert all(after[m][a] is o for m, ns in before.items() for a, o in ns.items())


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_emitted_with_unit_and_direction(runs, trace):
    name, timed, traced, _, _ = runs
    wl = SMALL[name](3)
    report, line = bench.result(wl, traced if trace else timed, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert report["metrics"][m["name"]]["better"] == m["better"]
    assert len(line["metrics"]) == len(declared)
    json.dumps(line)


def test_end_to_end_metrics_are_positive(runs):
    _, timed, _, _, _ = runs
    assert all(v > 0 for v in timed["metrics"].values())


def test_names_match_pattern(runs):
    name, _, _, _, _ = runs
    names = ([m["name"] for k in ("end_to_end", "per_layer") for m in SPEC[k]]
             + [w["name"] for w in SPEC["workloads"]])
    assert len(names) == len(set(names))
    t = tracer.Tracer()
    wl = SMALL[name](3)
    wl.setup()
    with t.installed():
        wl.run(0, t.call)
    workloads.shutdown_pools()
    names += list(t.summary()) + list(t.counters)
    for n in names:
        assert NAME.fullmatch(n), n


def test_layer_metrics_see_the_layers_each_workload_uses(runs):
    name, _, traced, _, _ = runs
    m = traced["metrics"]
    if name == "render":
        assert m["renderer.render.calls"] == 1.0 and m["fitting.self_ms_per_iter"] == 0.0
    if name.startswith("fit"):
        assert m["metrics.ssim_with_grad.calls_per_iter"] >= 1.0
        assert m["scene.Scene.builds_per_iter"] >= 1.0
        assert m["renderer.ray_geometry.pairs_per_iter"] > 0
    if name == "drr":
        assert m["renderer.pool.calls"] == 1.0 and m["renderer.pool.payload_bytes"] > 0
        assert m["ct.samples"] > 0 and m["renderer.pool.scaling_efficiency"] > 0


def test_render_check_catches_a_wrong_pixel():
    wl = SMALL["render"](3)
    wl.setup()
    wl.prepare_checks()
    out = wl.run(0, workloads.direct)
    assert wl.inspect(0, out)[0] == []
    out[0].data[...] += 1e-6
    assert wl.inspect(0, out)[0] != []


def test_drr_check_catches_a_wrong_chord():
    wl = SMALL["drr"](3)
    wl.setup()
    wl.prepare_checks()
    out = wl.run(0, workloads.direct, workers=1)
    assert wl.inspect(0, out)[0] == []
    out.data[...] *= 1.1
    assert wl.inspect(0, out)[0] != []


def test_inputs_depend_only_on_the_seed():
    a, b, c = SMALL["drr"](5), SMALL["drr"](5), SMALL["drr"](6)
    for wl in (a, b, c):
        wl.setup()
    workloads.shutdown_pools()
    assert np.array_equal(a.geoms[1].source, b.geoms[1].source)
    assert not np.array_equal(a.geoms[1].source, c.geoms[1].source)


def test_tail_has_ten_samples_above_it():
    values = list(range(100))
    v, pct = bench.tail(values)
    assert sum(x > v for x in values) == 10 and 89.0 < pct < 90.0
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "render", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
