"""Timed and traced runs of one workload, and the metrics they yield.

The timed run (``--trace 0``) sets the workload up ``SETUP_REPEATS`` times,
then runs units of work until ``seconds`` of wall time have passed and
reports the end-to-end metrics.  The traced run (``--trace 1``) sets up
once, runs units for half of ``seconds`` untraced, then the same units again
with every layer boundary wrapped (see ``tracer``), and reports the
per-layer metrics.  Every output of both runs is checked; a unit with any
failed check counts as failed.

End-to-end times are reference-speed CPU times.  Each unit of work is
timed in CPU time of this process and its pool workers, then rescaled by
CALIBRATION_REF_S over the CPU time of a fixed calibration kernel run just
before and just after it.  On a shared virtual machine the speed of the host
drifted by a quarter or more within minutes; wall time and plain CPU time
drift with it, the rescaled time far less.  Wall and plain CPU times are
kept in the report line.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer, boundaries

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# CPU seconds the calibration kernel took on the machine the seed-commit
# numbers were measured on (2-vCPU Intel Xeon VM); the speed times refer to
CALIBRATION_REF_S = 0.018


def declared_metrics(kind: str) -> dict:
    """name -> (unit, better) for one metric list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in spec[kind]}


def cpu_seconds() -> float:
    """CPU time used so far by this process and its live worker processes."""
    total = time.process_time()
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/schedstat", encoding="ascii") as f:
                total += int(f.read().split()[0]) / 1e9
        except FileNotFoundError:  # the child exited since it was listed
            pass
    return total


def calibration_cpu(reps: int = 1) -> float:
    """CPU seconds per repetition of a fixed kernel that mixes, in about equal
    parts, the kinds of work the workloads do: numpy math, sorts and scans
    on mid-sized arrays; many numpy calls on tiny arrays; a pure-Python
    loop; and freshly allocated arrays."""
    a = np.random.default_rng(0).random((256, 512))
    tiny = a[:16, :25].copy()
    c0 = time.process_time()
    for _ in range(reps):
        np.cumprod(1.0 - np.exp(-0.5 * a), axis=1)
        np.argsort(a, axis=1)
        for _ in range(900):
            np.exp(-0.5 * tiny).sum()
        s = 0
        for i in range(50000):
            s += i * i
        for _ in range(2):
            x = np.ones((256, 1024))
            x += 1.0
    return (time.process_time() - c0) / reps


class Timer:
    """Wall, CPU and reference-speed CPU time of consecutive calls, with
    the calibration kernel run between them for about 5% of the last
    call's CPU time."""

    def __init__(self):
        self._cal = calibration_cpu()

    def time(self, fn, *args, **kwargs):
        """(result, wall s, CPU s, reference-speed CPU s) of one call."""
        c0, t0 = cpu_seconds(), time.perf_counter()
        out = fn(*args, **kwargs)
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        reps = min(max(round(0.05 * cpu / CALIBRATION_REF_S), 1), 16)
        cal, self._cal = self._cal, calibration_cpu(reps)
        return out, wall, cpu, cpu * CALIBRATION_REF_S / (0.5 * (cal + self._cal))


@dataclass
class Sample:
    index: int
    seconds: float
    cpu: float
    ref: float
    digest: str
    problems: list
    values: dict = field(default_factory=dict)


def measure(wl, call, seconds: float | None = None, count: int | None = None) -> list:
    """Run units of work until `seconds` pass (at least one) or `count` are done.

    Only the call itself is timed; checks run after it.  A unit whose input
    was seen before must repeat the earlier output bit for bit.
    """
    deadline = time.perf_counter() + (seconds or 0.0)
    timer = Timer()
    samples: list = []
    first_digest: dict = {}
    i = 0
    while (i < count) if count is not None else (i == 0 or time.perf_counter() < deadline):
        out, wall, cpu, ref = timer.time(wl.run, i, call)
        d = wl.digest(out)
        problems, values = wl.inspect(i, out)
        key = wl.input_of(i)
        if first_digest.setdefault(key, d) != d:
            problems.append(f"unit {i}: output differs from an earlier run of input {key}")
        samples.append(Sample(i, wall, cpu, ref, d, problems, values))
        i += 1
    return samples


def tail(values: list):
    """(value, percentile) of the highest order statistic with at least ten
    samples above it.  Below 21 samples that statistic lies under the median,
    so the maximum stands in for it."""
    v = sorted(values)
    n = len(v)
    if n < 21:
        return v[-1], 100.0
    k = n - 11
    return v[k], 100.0 * k / (n - 1)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(wl) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "git_commit": _git_commit(),
            "workers": wl.workers,
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def _median_value(samples: list, key: str):
    vals = [s.values[key] for s in samples if key in s.values]
    return statistics.median(vals) if vals else None


def timed_run(wl, seconds: float) -> dict:
    setups, setups_wall = [], []
    timer = Timer()
    for _ in range(SETUP_REPEATS):
        workloads.shutdown_pools()  # so every set-up pays for starting the pool
        _, wall, _, ref = timer.time(wl.setup)
        setups.append(ref)
        setups_wall.append(wall)
    wl.prepare_checks()
    samples = measure(wl, workloads.direct, seconds=seconds)
    ref = [s.ref for s in samples]
    wall = [s.seconds for s in samples]
    tail_ref, tail_pct = tail(ref)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ref_ms_p50": statistics.median(ref) * 1e3,
        "op_ref_ms_tail": tail_ref * 1e3,
        "ref_rays_per_s": wl.rays_per_op * len(ref) / sum(ref),
        "peak_rss_mb": peak_rss_mb(),
    }
    # the same figures in wall time, under the names of the workload's unit
    unit = wl.unit
    detail = {"units": len(ref), "tail_percentile": round(tail_pct, 2),
              "setup_ref_s": setups, "setup_wall_s": setups_wall,
              "op_cpu_ms_p50": statistics.median(s.cpu for s in samples) * 1e3,
              "calibration_ms_p50": statistics.median(
                  CALIBRATION_REF_S * s.cpu / s.ref for s in samples) * 1e3,
              f"{unit}_ms_p50": statistics.median(wall) * 1e3,
              f"{unit}_ms_tail": tail(wall)[0] * 1e3,
              f"{unit}s_per_s": len(wall) / sum(wall),
              "rays_per_s": wl.rays_per_op * len(wall) / sum(wall)}
    if unit == "fit":
        detail["fit_s"] = statistics.median(wall)
    for key in ("psnr_db", "psnr_start_db", "drr_rel_err"):
        v = _median_value(samples, key)
        if v is not None:
            detail[key] = v
    if wl.name == "render":
        changed = [s.values["output_bits_changed"] for s in samples
                   if "output_bits_changed" in s.values]
        detail["output_bits_changed"] = bool(max(changed)) if changed else None
    return {"metrics": metrics, "detail": detail, "samples": samples}


def traced_run(wl, seconds: float, trace_path: Path | None = None) -> dict:
    wl.setup()
    wl.prepare_checks()
    base = measure(wl, workloads.direct, seconds=seconds / 2.0)
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in boundaries()]
    tracer = Tracer()
    with tracer.installed():
        traced = measure(wl, tracer.call, count=len(base))
    for mod, attr, original in originals:
        if getattr(mod, attr) is not original:
            traced[-1].problems.append(f"{mod.__name__}.{attr} not restored")
    for b, t in zip(base, traced):
        if b.digest != t.digest:
            t.problems.append(f"unit {t.index}: traced output differs from untraced")
    one_worker_s = None
    if wl.workers > 1:  # wall time: the pool buys wall time, not CPU time
        t0 = time.perf_counter()
        out = wl.run(0, workloads.direct, workers=1)
        one_worker_s = time.perf_counter() - t0
        if wl.digest(out) != base[0].digest:
            traced[-1].problems.append("1-worker output differs from 2-worker output")
    metrics = layer_metrics(wl, tracer, base, traced, one_worker_s)
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_path)
    detail = {"units": len(traced), "boundaries": len(originals),
              "untraced_ref_s": sum(s.ref for s in base),
              "traced_ref_s": sum(s.ref for s in traced)}
    return {"metrics": metrics, "detail": detail, "samples": base + traced}


def layer_metrics(wl, tracer: Tracer, base: list, traced: list, one_worker_s) -> dict:
    """Per-layer metrics from the traced units; 0 where a layer is not used.

    ``*_per_iter`` divides by fit iterations on the fit workloads and by
    units of work (frames, projections) elsewhere; other counts and times
    are per unit of work.
    """
    summary = tracer.summary()
    units = len(traced)
    iters = units * wl.iters_per_op

    def calls(*names):
        return sum(summary.get(n, {}).get("calls", 0) for n in names)

    def ms(*names, key="ms"):
        return sum(summary.get(n, {}).get(key, 0.0) for n in names)

    def per_s(count, total_ms):
        return count / (total_ms / 1e3) if total_ms > 0 else 0.0

    pre = ("renderer.ScenePrecompute.from_scene", "renderer.precompute")
    pixels = tracer.counters.get("renderer.render.pixels", 0)
    drr_ms = tracer.durations_ms("ct.render_drr")
    samples = sum(wl.samples(s.index) for s in traced) if drr_ms else 0
    useful = _median_value(traced, "useful_iter_ratio")
    return {
        "fitting.self_ms_per_iter": ms("fitting.fit_scene", key="self_ms") / iters,
        "scene.Scene.builds_per_iter": calls("scene.Scene") / iters,
        "scene.Scene.ms_per_iter": ms("scene.Scene") / iters,
        "renderer.precompute.calls_per_iter": calls(*pre) / iters,
        "renderer.precompute.ms_per_iter": ms(*pre) / iters,
        "metrics.ssim_with_grad.calls_per_iter": calls("metrics.ssim_with_grad") / iters,
        "metrics.ssim_with_grad.ms_per_iter": ms("metrics.ssim_with_grad") / iters,
        "renderer.ray_geometry.calls_per_iter": calls("renderer._ray_geometry") / iters,
        "renderer.ray_geometry.ms_per_iter": ms("renderer._ray_geometry") / iters,
        "renderer.ray_geometry.pairs_per_iter":
            tracer.counters.get("renderer._ray_geometry.pairs", 0) / iters,
        "renderer.render.calls": calls("renderer.render") / units,
        "renderer.render.ms": ms("renderer.render") / units,
        "renderer.render.pixels_per_s": per_s(pixels, ms("renderer.render")),
        "anchors.select_anchors.ms": ms("anchors.select_anchors") / units,
        "anchors.depth_gradient.ms": ms("anchors.depth_gradient") / units,
        "fitting.useful_iter_ratio": useful if useful is not None else 0.0,
        "ct.render_drr.ms_p50": statistics.median(drr_ms) if drr_ms else 0.0,
        "ct.samples": samples / units,
        "ct.samples_per_s": per_s(samples, sum(drr_ms)),
        "ct.gather_bytes_computed": samples * 8 * 8 / units,
        "renderer.pool.calls": calls("renderer.pool.map") / units,
        "renderer.pool.map_ms": ms("renderer.pool.map") / units,
        "renderer.pool.payload_bytes":
            tracer.counters.get("renderer.pool.payload_bytes", 0) / units,
        "renderer.pool.scaling_efficiency":
            one_worker_s / (2.0 * base[0].seconds) if one_worker_s else 0.0,
        "trace.overhead_ratio":
            sum(s.ref for s in traced) / sum(s.ref for s in base) - 1.0,
    }


def result(wl, run: dict, trace: int) -> tuple:
    """(report line, result line) for a finished run."""
    declared = declared_metrics("per_layer" if trace else "end_to_end")
    metrics = run["metrics"]
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} "
                           "do not match BENCHMARK.json")
    samples = run["samples"]
    failures = [p for s in samples for p in s.problems]
    failed = sum(1 for s in samples if s.problems)
    report = {
        "workload": wl.name, "seed": wl.seed, "trace": trace, "unit_of_work": wl.unit,
        "environment": environment(wl),
        "metrics": {n: {"value": v, "unit": declared[n][0], "better": declared[n][1]}
                    for n, v in metrics.items()},
        "failed_ratio": failed / len(samples),
        "failures": failures[:20],
        **run["detail"],
    }
    line = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": {n: {"value": v, "unit": declared[n][0]} for n, v in metrics.items()}}
    return report, line
