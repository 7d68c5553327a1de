"""Independent references the benchmark checks splat360's outputs against.

The splat reference composites one pixel at a time with a plain loop over the
t-sorted splats, from the scene's JSON form and the camera's public fields,
so it shares no code with the tiled, culled kernel it checks.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

import splat360


def digest(*parts) -> str:
    """Short SHA-256 of the exact bits of float arrays and strings."""
    h = hashlib.sha256()
    for a in parts:
        h.update(a.encode() if isinstance(a, str)
                 else np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


class SplatReference:
    """Per-pixel compositing of the model stated in splat360.renderer."""

    def __init__(self, scene, epsilon: float = 1e-3, cutoff_sigma: float = 3.0):
        doc = splat360.scene_to_json(scene)
        gs = doc["gaussians"]
        self.mu = np.array([g["mu"] for g in gs])
        xx, xy, xz, yy, yz, zz = np.array([g["cov"] for g in gs]).T
        cov = np.stack([np.stack([xx, xy, xz], -1), np.stack([xy, yy, yz], -1),
                        np.stack([xz, yz, zz], -1)], axis=1)
        self.inv = np.linalg.inv(cov)
        self.alpha = np.array([g["alpha"] for g in gs])
        self.l_iso = np.array([g["l_iso"] for g in gs])
        self.l_aniso = np.array([g["l_aniso"] for g in gs])
        self.normal = np.array([g["normal"] for g in gs])
        self.g = np.array([g["g"] for g in gs])
        self.bg = np.array(doc["background"])
        self.epsilon = epsilon
        self.cutoff2 = cutoff_sigma * cutoff_sigma

    @staticmethod
    def pixel_dir(cam, row: int, col: int) -> np.ndarray:
        u = (col + 0.5) / cam.width * 2.0 - 1.0
        v = 1.0 - (row + 0.5) / cam.height * 2.0
        t = math.tan(0.5 * cam.fov_y)
        d = cam.forward + u * (cam.width / cam.height * t) * cam.right + v * t * cam.up
        return d / np.linalg.norm(d)

    def pixel(self, cam, row: int, col: int):
        """(color [3], depth, final transmittance) of one pixel center."""
        d = self.pixel_dir(cam, row, col)
        delta = self.mu - cam.position
        v = np.einsum("gij,gj->gi", self.inv, delta)
        tn = v @ d
        den = np.einsum("i,gij,j->g", d, self.inv, d)
        ts = tn / den
        q = np.maximum(np.einsum("gi,gi->g", delta, v) - tn * ts, 0.0)
        live = (q <= self.cutoff2) & (ts >= cam.near)
        s = 1.0 + self.g ** 2 - 2.0 * self.g * (self.normal @ d)
        f = (1.0 - self.g ** 2) / (s * np.sqrt(s))
        color = np.zeros(3)
        wsum = wt = 0.0
        T = 1.0
        for k in np.argsort(ts, kind="stable"):
            if not live[k]:
                continue
            w = self.alpha[k] * math.exp(-0.5 * q[k])
            color += T * w * (self.l_iso[k] + f[k] * self.l_aniso[k])
            wsum += T * w
            wt += T * w * ts[k]
            T *= 1.0 - w
            if T < self.epsilon:
                break
        return color + T * self.bg, (wt / wsum if wsum > 0 else 0.0), T


def sphere_chord(mu_water: float, radius_mm: float, hu: float = 0.0) -> float:
    """Line integral of a uniform sphere along a ray through its center."""
    return mu_water * (1.0 + hu / 1000.0) * 2.0 * radius_mm
