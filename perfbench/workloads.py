"""The four benchmark workloads, driven through splat360's public API.

Each workload builds its inputs from the seed alone in ``setup`` (timed as
set-up, together with its warm-up), runs one unit of work per ``run`` call
(a frame, a whole fit, or a projection) and checks every output in
``inspect``.  ``run`` takes the function that makes the call, so the traced
run can put a span around it.
"""
from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

import splat360
import splat360.renderer
from splat360.scene import perturb_appearance

from reference import SplatReference, digest, sphere_chord

REFERENCE_FILE = Path(__file__).with_name("reference.json")
# absolute tolerance of a rendered pixel against the per-pixel reference
RENDER_TOL = 1e-9
# relative tolerance of the central DRR line integral against mu_water * 2R
DRR_REL_TOL = 1e-2
# pixels per frame checked against the per-pixel reference
CHECKED_PIXELS = 8


def direct(name, fn, *args, **kwargs):
    """The untraced way to make a call: no span."""
    return fn(*args, **kwargs)


def shutdown_pools() -> None:
    """Stop and join the package's worker pool, where it exposes one."""
    stop = getattr(splat360.renderer, "_shutdown_pools", None)
    if stop is not None:
        stop()


def _seeds(seed: int, n: int) -> list:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, n)]


class Render:
    """Orbit frames of a random splat scene, one worker."""

    name = "render"
    unit = "frame"
    workers = 1

    def __init__(self, seed: int, gaussians: int = 2000, res: int = 128,
                 frames: int = 24):
        self.seed = seed
        self.gaussians, self.res, self.frames = gaussians, res, frames
        self.iters_per_op = 1
        self.rays_per_op = res * res
        recorded = json.loads(REFERENCE_FILE.read_text())["render"]
        self.expected = recorded.get(str(seed))

    def setup(self) -> None:
        (scene_seed,) = _seeds(self.seed, 1)
        self.scene = splat360.make_random_scene(
            self.gaussians, scene_seed, spread=0.5, sigma_range=(0.01, 0.04))
        self.cams = splat360.make_orbit_cameras(
            self.scene.center, 2.5 * self.scene.radius, self.frames, 0.0,
            "fibonacci_sphere", self.res, self.res, 0.9)
        splat360.render(self.scene, self.cams[0], workers=self.workers)

    def prepare_checks(self) -> None:
        self.reference = SplatReference(self.scene)

    def input_of(self, i: int) -> int:
        return i % self.frames

    def run(self, i: int, call):
        return call("renderer.render", splat360.render, self.scene,
                    self.cams[i % self.frames], workers=self.workers)

    def digest(self, out) -> str:
        return digest(*(img.data for img in out))

    def inspect(self, i: int, out):
        color, depth, trans = (img.data for img in out)
        problems = []
        if not (np.isfinite(color).all() and np.isfinite(depth).all()
                and np.isfinite(trans).all()):
            problems.append(f"frame {i}: non-finite output")
        cam = self.cams[i % self.frames]
        rng = np.random.default_rng([self.seed, i % self.frames])
        for r, c in rng.integers(0, self.res, (CHECKED_PIXELS, 2)):
            ref_c, ref_d, ref_t = self.reference.pixel(cam, r, c)
            err = max(np.abs(color[r, c] - ref_c).max(),
                      abs(depth[r, c, 0] - ref_d) / max(1.0, abs(ref_d)),
                      abs(trans[r, c, 0] - ref_t))
            if not err <= RENDER_TOL:
                problems.append(f"frame {i} pixel ({r},{c}): off reference by {err:.3g}")
        values = {}
        if self.expected is not None:
            changed = self.digest(out) != self.expected[i % self.frames]
            values["output_bits_changed"] = float(changed)
        return problems, values


class Fit:
    """Appearance recovery: fit a perturbed copy of a ground-truth scene to
    ring views rendered from it.  With ``geometry`` the fit also moves splat
    centers and scales by finite differences."""

    unit = "fit"
    workers = 1

    def __init__(self, seed: int, gaussians: int = 200, res: int = 64,
                 patch: int = 32, lr: float = 0.01, iters: int = 40,
                 geometry: bool = False):
        self.name = "fit-geometry" if geometry else "fit"
        self.seed = seed
        self.gaussians, self.res = gaussians, res
        self.patch, self.lr, self.iters, self.geometry = patch, lr, iters, geometry
        self.iters_per_op = iters
        self.rays_per_op = iters * patch * patch

    def setup(self) -> None:
        gt_seed, perturb_seed, fit_seed = _seeds(self.seed, 3)
        gt = splat360.make_random_scene(self.gaussians, gt_seed, spread=0.3,
                                        sigma_range=(0.05, 0.12))
        cams = splat360.make_orbit_cameras(gt.center, 2.5 * gt.radius, 4, 0.3,
                                           "ring", self.res, self.res, 0.9)
        self.targets = [(cam, splat360.render(gt, cam)[0]) for cam in cams]
        self.start = perturb_appearance(gt, perturb_seed)
        self.cfg = splat360.FitConfig(
            lr=self.lr, iters=self.iters, rays_per_step=self.patch * self.patch,
            full_eval_every=0, optimize_geometry=self.geometry, seed=fit_seed)
        # warm-up: one appearance-only iteration reaches every function the
        # fit calls; a geometry iteration would only repeat them 12*G times
        splat360.fit_scene(self.start, self.targets,
                           replace(self.cfg, iters=1, optimize_geometry=False))

    def prepare_checks(self) -> None:
        self.start_psnr = float(np.mean([
            splat360.psnr(splat360.render(self.start, cam)[0], tgt)
            for cam, tgt in self.targets]))

    def input_of(self, i: int) -> int:
        return 0

    def run(self, i: int, call):
        return call("fitting.fit_scene", splat360.fit_scene, self.start,
                    self.targets, self.cfg)

    def digest(self, out) -> str:
        scene, _, report = out
        return digest(np.array(report.trace),
                      json.dumps(splat360.scene_to_json(scene)))

    def inspect(self, i: int, out):
        _, _, report = out
        trace = np.array(report.trace)
        psnr_db = float(np.mean([v["psnr"] for v in report.per_view]))
        problems = []
        if trace.size != self.iters or not np.isfinite(trace).all():
            problems.append(f"fit {i}: loss trace not finite or short")
        if not math.isfinite(psnr_db):
            problems.append(f"fit {i}: final PSNR not finite")
        if not self.geometry and not psnr_db > self.start_psnr:
            problems.append(f"fit {i}: PSNR {psnr_db:.3f} dB not above start "
                            f"{self.start_psnr:.3f} dB")
        return problems, {"psnr_db": psnr_db, "psnr_start_db": self.start_psnr,
                          "useful_iter_ratio": float(np.mean(trace > 0.0))}


class Drr:
    """Line-integral radiographs of a water sphere from azimuths around z,
    through the two-worker pool."""

    name = "drr"
    unit = "projection"
    workers = 2

    def __init__(self, seed: int, n: int = 64, spacing: float = 1.0,
                 radius: float = 24.0, det: int = 129, views: int = 8):
        # det is odd so that the central pixel's ray crosses the center
        self.seed = seed
        self.n, self.spacing, self.radius, self.det, self.views = n, spacing, radius, det, views
        self.iters_per_op = 1
        self.rays_per_op = det * det

    def _geometry(self, azimuth: float):
        ext = float(np.max(self.vol.box_hi - self.vol.box_lo))
        d = np.array([math.cos(azimuth), math.sin(azimuth), 0.0])
        u = np.array([-math.sin(azimuth), math.cos(azimuth), 0.0])
        c = self.vol.center
        return splat360.ProjectionGeometry(
            c - 3.0 * ext * d, c + 3.0 * ext * d, 2.0 * ext / self.det * u,
            np.array([0.0, 0.0, -2.0 * ext / self.det]), self.det, self.det)

    def setup(self) -> None:
        offset = np.random.default_rng(self.seed).uniform(0.0, 2.0 * math.pi)
        self.vol = splat360.make_sphere_phantom(self.n, self.spacing, self.radius, 0.0)
        self.geoms = [self._geometry(offset + 2.0 * math.pi * k / self.views)
                      for k in range(self.views)]
        self.cfg = splat360.DrrConfig(output="line_integral")
        splat360.render_drr(self.vol, self.geoms[0], self.cfg, workers=self.workers)

    def prepare_checks(self) -> None:
        self.chord = sphere_chord(self.cfg.mu_water, self.radius)

    def input_of(self, i: int) -> int:
        return i % self.views

    def run(self, i: int, call, workers: int | None = None):
        return call("ct.render_drr", splat360.render_drr, self.vol,
                    self.geoms[i % self.views], self.cfg,
                    workers=workers or self.workers)

    def digest(self, out) -> str:
        return digest(out.data)

    def inspect(self, i: int, out):
        c = self.det // 2
        rel = abs(float(out.data[c, c, 0]) - self.chord) / self.chord
        problems = []
        if not np.isfinite(out.data).all():
            problems.append(f"projection {i}: non-finite output")
        if not rel <= DRR_REL_TOL:
            problems.append(f"projection {i}: central chord off by {rel:.3g}")
        return problems, {"drr_rel_err": rel}

    def samples(self, i: int) -> int:
        """Midpoint steps the projection integrates, computed from the
        geometry: ceil(chord through the voxel box / step) per ray."""
        geom = self.geoms[i % self.views]
        idx = np.arange(self.det * self.det, dtype=np.float64)
        rows, cols = np.divmod(idx, float(self.det))
        d = geom.pixel_positions(rows, cols) - geom.source
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            ta = (self.vol.box_lo - geom.source) / d
            tb = (self.vol.box_hi - geom.source) / d
        near = np.nan_to_num(np.minimum(ta, tb), nan=-np.inf).max(axis=1)
        far = np.nan_to_num(np.maximum(ta, tb), nan=np.inf).min(axis=1)
        length = np.maximum(far - np.maximum(near, 0.0), 0.0)
        return int(np.ceil(length / self.cfg.resolved_step(self.vol)).sum())


WORKLOADS = {
    "render": Render,
    "fit": Fit,
    "fit-geometry": lambda seed: Fit(seed, gaussians=25, patch=16, lr=2e-4,
                                     iters=3, geometry=True),
    "drr": Drr,
}
