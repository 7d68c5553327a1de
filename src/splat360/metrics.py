"""Image quality metrics (PSNR, SSIM) and frame-rate measurement.

SSIM follows the Wang et al. convention: 11x11 Gaussian window, sigma 1.5,
K1 = 0.01, K2 = 0.03, dynamic range 1.0, averaged over valid window positions
(no padding) and over channels. The private core also returns the analytic
gradient with respect to the first image, which the fitting loss consumes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .renderer import RenderConfig, render
from .scene import Camera, ImageBuffer, Scene

PSNR_CAP_DB = 99.0


def _gauss_taps(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2.0
    x = np.arange(size) - half
    g = np.exp(-0.5 * (x / sigma) ** 2)
    return g / g.sum()


@dataclass
class SsimConfig:
    window_size: int = 11
    sigma: float = 1.5
    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float = 1.0

    def __post_init__(self):
        if self.window_size < 1 or self.window_size % 2 == 0:
            raise ValueError("window_size must be a positive odd integer")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be > 0")
        if self.k1 <= 0.0 or self.k2 <= 0.0:
            raise ValueError("k1 and k2 must be > 0")
        if self.dynamic_range <= 0.0:
            raise ValueError("dynamic_range must be > 0")

    def taps(self) -> np.ndarray:
        return _gauss_taps(self.window_size, self.sigma)

    @classmethod
    def for_image(cls, height: int, width: int) -> "SsimConfig":
        """Default config with the window shrunk to the largest odd size
        <= min(11, height, width), so small images and patches stay valid."""
        win = min(11, height, width)
        return cls(window_size=win - 1 if win % 2 == 0 else win)


@dataclass
class RuntimeReport:
    width: int
    height: int
    frames: int
    seconds: float
    fps: float
    ms_per_frame: float
    workers: int

    def to_dict(self) -> dict:
        return {"width": self.width, "height": self.height,
                "frames": self.frames, "seconds": self.seconds,
                "fps": self.fps, "ms_per_frame": self.ms_per_frame,
                "workers": self.workers}


def _image_array(a) -> np.ndarray:
    if isinstance(a, ImageBuffer):
        return a.data
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise ValueError("image must be HxWx1 or HxWx3")
    return arr


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB for [0,1] images; capped at 99 dB."""
    x = _image_array(a)
    y = _image_array(b)
    if x.shape != y.shape:
        raise ValueError(f"image shape mismatch: {x.shape} vs {y.shape}")
    mse = float(np.mean((x - y) ** 2))
    if mse <= 0.0:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(1.0 / mse), PSNR_CAP_DB)


def _sep_valid(img: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Separable valid-mode correlation of a 2-D image with a symmetric kernel."""
    K = taps.size
    a = np.lib.stride_tricks.sliding_window_view(img, K, axis=0) @ taps
    return np.lib.stride_tricks.sliding_window_view(a, K, axis=1) @ taps


def _sep_adjoint(zmap: np.ndarray, taps: np.ndarray, shape) -> np.ndarray:
    """Adjoint of _sep_valid: scatter a valid-position map back to image size."""
    K = taps.size
    pad = K - 1
    zp = np.zeros((zmap.shape[0] + 2 * pad, zmap.shape[1] + 2 * pad))
    zp[pad:pad + zmap.shape[0], pad:pad + zmap.shape[1]] = zmap
    out = _sep_valid(zp, taps)
    assert out.shape == tuple(shape)
    return out


def _ssim_channel(x: np.ndarray, y: np.ndarray, cfg: SsimConfig,
                  want_grad: bool):
    """Mean SSIM over valid windows of one channel; optional d/dx gradient."""
    taps = cfg.taps()
    c1 = (cfg.k1 * cfg.dynamic_range) ** 2
    c2 = (cfg.k2 * cfg.dynamic_range) ** 2
    mx = _sep_valid(x, taps)
    my = _sep_valid(y, taps)
    mxx = _sep_valid(x * x, taps)
    myy = _sep_valid(y * y, taps)
    mxy = _sep_valid(x * y, taps)
    vx = mxx - mx * mx
    vy = myy - my * my
    cxy = mxy - mx * my
    a1 = 2.0 * mx * my + c1
    a2 = 2.0 * cxy + c2
    b1 = mx * mx + my * my + c1
    b2 = vx + vy + c2
    smap = (a1 * a2) / (b1 * b2)
    npos = smap.size
    value = float(np.mean(smap))
    if not want_grad:
        return value, None
    # quotient rule through (mu_x, var_x, cov_xy), grouped per window as
    # dS/dx_i = w_i c (P + a1 y_i - S b1 x_i) so that at x == y the three
    # maps are exactly zero / exact negations and the gradient cancels to
    # 0.0 bitwise (a1 == b1, a2 == b2, S == 1 hold bit-for-bit there)
    c = 2.0 / ((b1 * b2) * npos)
    p_const = my * a2 - a1 * my - smap * (mx * b2 - b1 * mx)
    grad = (_sep_adjoint(c * p_const, taps, x.shape)
            + y * _sep_adjoint(c * a1, taps, x.shape)
            + x * _sep_adjoint(c * (-(smap * b1)), taps, x.shape))
    return value, grad


def ssim(a, b, cfg: SsimConfig | None = None) -> float:
    """Mean SSIM over valid window positions, averaged across channels."""
    value, _ = ssim_with_grad(a, b, cfg, want_grad=False)
    return value


def ssim_with_grad(a, b, cfg: SsimConfig | None = None, want_grad: bool = True):
    """(ssim, gradient w.r.t. a) — gradient is None when want_grad is False."""
    cfg = cfg if cfg is not None else SsimConfig()
    x = _image_array(a)
    y = _image_array(b)
    if x.shape != y.shape:
        raise ValueError(f"image shape mismatch: {x.shape} vs {y.shape}")
    K = cfg.window_size
    if x.shape[0] < K or x.shape[1] < K:
        raise ValueError(
            f"image {x.shape[0]}x{x.shape[1]} smaller than {K}x{K} SSIM window")
    C = x.shape[2]
    total = 0.0
    grad = np.zeros_like(x) if want_grad else None
    for ch in range(C):
        v, g = _ssim_channel(x[:, :, ch], y[:, :, ch], cfg, want_grad)
        total += v
        if want_grad:
            grad[:, :, ch] = g
    if want_grad:
        grad /= C
    return total / C, grad


def measure_runtime(scene: Scene, cams: list[Camera],
                    cfg: RenderConfig | None = None,
                    workers: int = 1) -> RuntimeReport:
    """Render every camera once, timing after a warm-up frame.

    The warm-up render (first camera) is excluded so pool spawn and cache
    effects do not pollute per-frame numbers.
    """
    if not cams:
        raise ValueError("need at least one camera")
    cfg = cfg if cfg is not None else RenderConfig()
    render(scene, cams[0], cfg, workers=workers)
    t0 = time.perf_counter()
    for cam in cams:
        render(scene, cam, cfg, workers=workers)
    seconds = max(time.perf_counter() - t0, 1e-9)
    n = len(cams)
    return RuntimeReport(width=cams[0].width, height=cams[0].height,
                         frames=n, seconds=seconds, fps=n / seconds,
                         ms_per_frame=seconds / n * 1000.0, workers=workers)
