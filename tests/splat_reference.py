"""An independent per-pixel reference for the splat compositing model.

It states the model of `splat360.renderer` once more, as a plain loop over
one ray's live splats, and shares no code with the kernel it checks: it
computes its own pixel directions, inverts `scene.cov` itself and holds its
own cutoff and termination threshold. It reads nothing from
`splat360.renderer`, `Scene.cov_inv` or `Camera.pixel_dirs`.

The model: a splat meets a ray at its closest approach in the Mahalanobis
metric, at t and squared distance q there, and is live where q is within
CUTOFF_SIGMA^2 and t is past the near plane. The live splats composite in
(t, splat index) order with weight w = alpha exp(-q/2) and color
l_iso + f l_aniso, f the normalized Henyey-Greenstein lobe
(1 - g^2) / s^(3/2), s = 1 + g^2 - 2 g (d . normal); f is 1 without
disentangling and the anisotropic term is dropped without anisotropy. A
ray stops after the splat that takes its transmittance below
TERMINATION_EPSILON.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

CUTOFF_SIGMA = 3.0
TERMINATION_EPSILON = 1e-3

# one splat a ray composites: its index, t, weight and the transmittance
# the ray carries into it
Sample = namedtuple("Sample", "index t weight transmittance_before")


def pixel_dir(cam, row: int, col: int) -> np.ndarray:
    """The unit direction of the ray through the centre of pixel (row, col)."""
    u = (col + 0.5) / cam.width * 2.0 - 1.0
    v = 1.0 - (row + 0.5) / cam.height * 2.0
    t = math.tan(0.5 * cam.fov_y)
    d = (cam.forward + u * (cam.width / cam.height * t) * cam.right
         + v * t * cam.up)
    return d / np.linalg.norm(d)


class SplatReference:
    """The model above for one scene and render configuration; `cfg` is
    read for its `disentangle` and `anisotropy_enabled` fields, both on
    when it is None."""

    def __init__(self, scene, cfg=None):
        self.scene = scene
        self.inv = np.linalg.inv(scene.cov)
        self.disentangle = cfg is None or cfg.disentangle
        self.anisotropy = cfg is None or cfg.anisotropy_enabled

    def ray(self, origin, d, near: float = 0.0):
        """(color [3], depth, final transmittance, samples) of the ray from
        `origin` along the unit direction `d`."""
        s = self.scene
        live = []
        for k in range(s.alpha.size):
            delta = s.mu[k] - origin
            t = (d @ self.inv[k] @ delta) / (d @ self.inv[k] @ d)
            r = delta - t * d
            q = r @ self.inv[k] @ r
            if q <= CUTOFF_SIGMA * CUTOFF_SIGMA and t >= near:
                live.append((t, k, q))
        color = np.zeros(3)
        weight_sum = depth_sum = 0.0
        T = 1.0
        samples = []
        for t, k, q in sorted(live):
            w = s.alpha[k] * math.exp(-0.5 * q)
            c = s.l_iso[k].copy()
            if self.anisotropy:
                f = 1.0
                if self.disentangle:
                    g = s.g[k]
                    m = 1.0 + g * g - 2.0 * g * (d @ s.normal[k])
                    f = (1.0 - g * g) / (m * math.sqrt(m))
                c += f * s.l_aniso[k]
            samples.append(Sample(k, t, w, T))
            color += T * w * c
            weight_sum += T * w
            depth_sum += T * w * t
            T *= 1.0 - w
            if T < TERMINATION_EPSILON:
                break
        depth = depth_sum / weight_sum if weight_sum > 0.0 else 0.0
        return color + T * s.background, depth, T, samples

    def image(self, cam):
        """(color [H, W, 3], depth [H, W], transmittance [H, W]) through
        cam's pixel centres, and each pixel's samples, row after row."""
        color = np.empty((cam.height, cam.width, 3))
        depth = np.empty((cam.height, cam.width))
        trans = np.empty((cam.height, cam.width))
        samples = []
        for i in range(cam.height):
            for j in range(cam.width):
                color[i, j], depth[i, j], trans[i, j], sm = self.ray(
                    cam.position, pixel_dir(cam, i, j), cam.near)
                samples.append(sm)
        return color, depth, trans, samples
