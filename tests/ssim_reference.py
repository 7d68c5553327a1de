"""A readable reference for the SSIM value and gradient of `splat360.metrics`.

It keeps SSIM in its plain per-channel form: one filter call for each
channel's five moment maps and one for its three adjoint maps, each pass
over a zero-padded copy of the stack read through `as_strided`.
`splat360.metrics.ssim_with_grad` does every channel's work in one call per
stack, and must give the same bits; the tests compare the two byte for byte.
Only the window's tap matrices, the window size rule and the constants are
shared with the module it checks.
"""
from __future__ import annotations

import numpy as np

from splat360.metrics import (_BANDS, _BLOCK, SSIM_DYNAMIC_RANGE, SSIM_K1,
                              SSIM_K2, _ssim_window)
from splat360.scene import image_array


def _band_pass(a: np.ndarray, win: int, lead: int) -> np.ndarray:
    n, c = a.shape[-2:]
    m = n + 2 * lead - win + 1
    s = min(m, _BLOCK)
    nb = -(-m // s)
    padded = np.zeros(a.shape[:-2] + (nb * s + win - 1, c))
    padded[..., lead:lead + n, :] = a
    st = padded.strides
    blocks = np.lib.stride_tricks.as_strided(
        padded, a.shape[:-2] + (nb, s + win - 1, c),
        st[:-2] + (s * st[-2],) + st[-2:], writeable=False)
    out = _BANDS[win][:s, :s + win - 1] @ blocks
    return out.reshape(a.shape[:-2] + (nb * s, c))[..., :m, :]


def _sep_valid(stack: np.ndarray, win: int, lead: int = 0) -> np.ndarray:
    rows = _band_pass(stack, win, lead)
    return _band_pass(rows.swapaxes(-1, -2), win, lead).swapaxes(-1, -2)


def _sep_adjoint(stack: np.ndarray, win: int) -> np.ndarray:
    return _sep_valid(stack, win, lead=win - 1)


def _ssim_channel(x: np.ndarray, y: np.ndarray, win: int, want_grad: bool):
    """Mean SSIM over valid windows of one channel; optional d/dx gradient."""
    c1 = (SSIM_K1 * SSIM_DYNAMIC_RANGE) ** 2
    c2 = (SSIM_K2 * SSIM_DYNAMIC_RANGE) ** 2
    mx, my, mxx, myy, mxy = _sep_valid(np.stack([x, y, x * x, y * y, x * y]), win)
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
    c = 2.0 / ((b1 * b2) * npos)
    p_const = my * a2 - a1 * my - smap * (mx * b2 - b1 * mx)
    gp, gy, gx = _sep_adjoint(np.stack([c * p_const, c * a1, c * (-(smap * b1))]), win)
    return value, gp + y * gy + x * gx


def ssim_with_grad(a, b, want_grad: bool = True):
    """(ssim, gradient w.r.t. a), channel after channel."""
    x = image_array(a)
    y = image_array(b)
    if x.shape != y.shape:
        raise ValueError(f"image shape mismatch: {x.shape} vs {y.shape}")
    win = _ssim_window(x.shape[0], x.shape[1])
    C = x.shape[2]
    total = 0.0
    grad = np.zeros_like(x) if want_grad else None
    for ch in range(C):
        v, g = _ssim_channel(x[:, :, ch], y[:, :, ch], win, want_grad)
        total += v
        if want_grad:
            grad[:, :, ch] = g
    if want_grad:
        grad /= C
    return total / C, grad
