"""Image quality metrics (PSNR, SSIM).

SSIM follows the Wang et al. convention: 11x11 Gaussian window (shrunk to the
largest odd size that fits a smaller image), sigma 1.5, K1 = 0.01, K2 = 0.03,
dynamic range 1.0, averaged over valid window positions (no padding) and over
channels. The private core also returns the analytic gradient with respect
to the first image, which the fitting loss consumes.
"""
from __future__ import annotations

import numpy as np

from .scene import image_array

PSNR_CAP_DB = 99.0
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_DYNAMIC_RANGE = 1.0


def _gauss_taps(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2.0
    x = np.arange(size) - half
    g = np.exp(-0.5 * (x / sigma) ** 2)
    return g / g.sum()


def _ssim_window(height: int, width: int) -> int:
    """Largest odd window size <= min(11, height, width), so small images and
    patches stay valid."""
    if height < 1 or width < 1:
        raise ValueError(f"SSIM needs a non-empty image, got {height}x{width}")
    win = min(11, height, width)
    return win - 1 if win % 2 == 0 else win


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB for [0,1] images; capped at 99 dB."""
    x = image_array(a)
    y = image_array(b)
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


def _ssim_channel(x: np.ndarray, y: np.ndarray, taps: np.ndarray,
                  want_grad: bool):
    """Mean SSIM over valid windows of one channel; optional d/dx gradient."""
    c1 = (SSIM_K1 * SSIM_DYNAMIC_RANGE) ** 2
    c2 = (SSIM_K2 * SSIM_DYNAMIC_RANGE) ** 2
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


def ssim(a, b) -> float:
    """Mean SSIM over valid window positions, averaged across channels."""
    value, _ = ssim_with_grad(a, b, want_grad=False)
    return value


def ssim_with_grad(a, b, want_grad: bool = True):
    """(ssim, gradient w.r.t. a) — gradient is None when want_grad is False.

    The window is 11x11, shrunk to the largest odd size that fits the image.
    """
    x = image_array(a)
    y = image_array(b)
    if x.shape != y.shape:
        raise ValueError(f"image shape mismatch: {x.shape} vs {y.shape}")
    taps = _gauss_taps(_ssim_window(x.shape[0], x.shape[1]), SSIM_SIGMA)
    C = x.shape[2]
    total = 0.0
    grad = np.zeros_like(x) if want_grad else None
    for ch in range(C):
        v, g = _ssim_channel(x[:, :, ch], y[:, :, ch], taps, want_grad)
        total += v
        if want_grad:
            grad[:, :, ch] = g
    if want_grad:
        grad /= C
    return total / C, grad
