"""Image quality metrics (PSNR, SSIM).

SSIM follows the Wang et al. convention: 11x11 Gaussian window (shrunk to the
largest odd size that fits a smaller image), sigma 1.5, K1 = 0.01, K2 = 0.03,
dynamic range 1.0, averaged over valid window positions (no padding) and over
channels. The private core also returns the analytic gradient with respect
to the first image, which the fitting loss consumes.

The window filter is separable and runs on a stack of maps [..., H, W] at
once: one call for the five moment maps of every channel, a [5, C, H, W]
stack, and one for the three adjoint maps of every channel's gradient,
[3, C, h, w]; the quotient-rule math between them runs on [C, h, w] arrays.
Each of the filter's two passes is one batched matmul of a fixed banded tap
matrix [s, s + K - 1] (window K, s = min(valid length, _BLOCK)) against
overlapping blocks of s + K - 1 rows, a strided view at stride s over a
zero-padded copy. Where the blocks cover the stack exactly, with no zeros
to add, and the stack is C-contiguous, the view is over the stack itself:
the first pass over a 32 x 32 fit patch at window 11, for one. Every map of
a stack goes through the same BLAS calls on blocks of the same shape, so a
map's result does not depend on the other maps in its stack, nor on
whether it was copied; its bits do depend on the BLAS build, which fixes
the order of each matmul's sums. Bounding the block keeps the flops at
about _BLOCK + K - 1 per output and tap; a dense band over the whole axis
would grow them with the image.
"""
from __future__ import annotations

import numpy as np

from .scene import image_array

PSNR_CAP_DB = 99.0
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
SSIM_DYNAMIC_RANGE = 1.0
SSIM_WINDOW = 11

# output rows per block of the banded filter matrix
_BLOCK = 32


def _gauss_taps(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2.0
    x = np.arange(size) - half
    g = np.exp(-0.5 * (x / sigma) ** 2)
    return g / g.sum()


def _band(win: int) -> np.ndarray:
    """[_BLOCK, _BLOCK + win - 1] matrix with row i holding the window's taps
    at columns i..i + win - 1; its top-left [s, s + win - 1] corner is the
    band for blocks of s rows."""
    band = np.zeros((_BLOCK, _BLOCK + win - 1))
    rows = np.arange(_BLOCK)[:, None]
    band[rows, rows + np.arange(win)] = _gauss_taps(win, SSIM_SIGMA)
    band.flags.writeable = False
    return band


# one band per window size _ssim_window can return
_BANDS = {win: _band(win) for win in range(1, SSIM_WINDOW + 1, 2)}


def _ssim_window(height: int, width: int) -> int:
    """Largest odd window size <= min(SSIM_WINDOW, height, width), so small
    images and patches stay valid."""
    if height < 1 or width < 1:
        raise ValueError(f"SSIM needs a non-empty image, got {height}x{width}")
    win = min(SSIM_WINDOW, height, width)
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


def _band_pass(a: np.ndarray, win: int, lead: int) -> np.ndarray:
    """Valid-mode correlation along axis -2 of a float64 stack [..., n, c]
    with the window's taps, after `lead` zeros on each side of that axis:
    [..., n + 2 lead - win + 1, c]. A C-contiguous stack whose blocks cover
    it exactly with no zeros is read in place, not copied."""
    n, c = a.shape[-2:]
    m = n + 2 * lead - win + 1
    s = min(m, _BLOCK)
    nb = -(-m // s)
    if lead == 0 and nb * s + win - 1 == n and a.flags.c_contiguous:
        padded = a
    else:
        padded = np.zeros(a.shape[:-2] + (nb * s + win - 1, c))
        padded[..., lead:lead + n, :] = a
    st = padded.strides
    blocks = np.ndarray(a.shape[:-2] + (nb, s + win - 1, c), padded.dtype,
                        buffer=padded, strides=st[:-2] + (s * st[-2],) + st[-2:])
    out = _BANDS[win][:s, :s + win - 1] @ blocks
    return out.reshape(a.shape[:-2] + (nb * s, c))[..., :m, :]


def _sep_valid(stack: np.ndarray, win: int, lead: int = 0) -> np.ndarray:
    """Separable valid-mode correlation of every map of a stack [..., H, W]
    with the win x win Gaussian window: [..., H - win + 1, W - win + 1].
    With `lead`, each map first gets that many zeros on every side."""
    rows = _band_pass(stack, win, lead)
    return _band_pass(rows.swapaxes(-1, -2), win, lead).swapaxes(-1, -2)


def _sep_adjoint(stack: np.ndarray, win: int) -> np.ndarray:
    """Adjoint of _sep_valid: scatters each valid-position map [..., h, w]
    back to image size [..., h + win - 1, w + win - 1]. The taps are
    symmetric, so that is the full-mode correlation."""
    return _sep_valid(stack, win, lead=win - 1)


def ssim(a, b) -> float:
    """Mean SSIM over valid window positions, averaged across channels."""
    value, _ = ssim_with_grad(a, b, want_grad=False)
    return value


def ssim_with_grad(a, b, want_grad: bool = True):
    """(ssim, gradient w.r.t. a) — gradient is None when want_grad is False.

    The window is 11x11, shrunk to the largest odd size that fits the image.
    The value is the mean of the channels' means, added in channel order.
    """
    x = image_array(a)
    y = image_array(b)
    if x.shape != y.shape:
        raise ValueError(f"image shape mismatch: {x.shape} vs {y.shape}")
    win = _ssim_window(x.shape[0], x.shape[1])
    C = x.shape[2]
    c1 = (SSIM_K1 * SSIM_DYNAMIC_RANGE) ** 2
    c2 = (SSIM_K2 * SSIM_DYNAMIC_RANGE) ** 2
    xc = x.transpose(2, 0, 1)
    yc = y.transpose(2, 0, 1)
    moments = np.empty((5, C) + x.shape[:2])
    moments[0] = xc
    moments[1] = yc
    np.multiply(xc, xc, out=moments[2])
    np.multiply(yc, yc, out=moments[3])
    np.multiply(xc, yc, out=moments[4])
    mx, my, mxx, myy, mxy = _sep_valid(moments, win)
    del moments
    vx = mxx - mx * mx
    vy = myy - my * my
    cxy = mxy - mx * my
    a1 = 2.0 * mx * my + c1
    a2 = 2.0 * cxy + c2
    b1 = mx * mx + my * my + c1
    b2 = vx + vy + c2
    smap = (a1 * a2) / (b1 * b2)
    total = 0.0
    for ch in range(C):
        total += float(np.mean(smap[ch]))
    if not want_grad:
        return total / C, None
    # quotient rule through (mu_x, var_x, cov_xy), grouped per window as
    # dS/dx_i = w_i c (P + a1 y_i - S b1 x_i) so that at x == y the gradient
    # cancels to 0.0 bitwise. There every map of the moment stack that holds
    # the same values as another gets the same BLAS calls on blocks of the
    # same shape, so mx == my and mxx == myy == mxy bit for bit; then
    # a1 == b1, a2 == b2 and S == 1 exactly, P is exactly zero, and the last
    # two maps of the adjoint stack are exact negations, whose filtered
    # images are exact negations too (rounding is symmetric about zero)
    c = 2.0 / ((b1 * b2) * smap[0].size)
    p_const = my * a2 - a1 * my - smap * (mx * b2 - b1 * mx)
    adj = np.empty((3,) + smap.shape)
    np.multiply(c, p_const, out=adj[0])
    np.multiply(c, a1, out=adj[1])
    np.multiply(c, -(smap * b1), out=adj[2])
    gp, gy, gx = _sep_adjoint(adj, win)
    grad = np.empty_like(x)
    np.divide((gp + yc * gy + xc * gx).transpose(1, 2, 0), C, out=grad)
    return total / C, grad
