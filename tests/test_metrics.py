"""PSNR, SSIM (value and analytic gradient) and its window filter."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splat360 import (Camera, RenderConfig, composite_loss, psnr, render, ssim,
                      ssim_with_grad)
from splat360.metrics import (SSIM_SIGMA, _gauss_taps, _sep_adjoint, _sep_valid,
                              _ssim_window)

import ssim_reference


def _img(seed, h=16, w=16, c=3):
    rng = np.random.default_rng(seed)
    return rng.random((h, w, c))


def test_psnr_identical_capped():
    a = _img(0)
    assert psnr(a, a) == 99.0


def test_psnr_uniform_offsets():
    # mse of a uniform 0.1 offset is 0.01 -> 20 dB; 0.01 offset -> 40 dB
    a = np.zeros((8, 8, 3))
    assert abs(psnr(a, a + 0.1) - 20.0) < 1e-9
    assert abs(psnr(a, a + 0.01) - 40.0) < 1e-9


def test_psnr_symmetric():
    a, b = _img(1), _img(2)
    assert psnr(a, b) == psnr(b, a)


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros((4, 4, 3)), np.zeros((4, 5, 3)))


@pytest.mark.parametrize("metric", [
    psnr, ssim, composite_loss,
    lambda a, b: composite_loss(a, b, lambda_ssim=0.0, want_grad=False)],
    ids=["psnr", "ssim", "composite_loss", "mse_loss_alone"])
def test_nan_written_into_a_render_is_refused(simple_scene, metric):
    # an ImageBuffer's array stays writable, so every read checks it again
    cam = Camera.look_at(np.array([0.0, 0.0, -1.0]), np.zeros(3), 0.9, 8, 8)
    color = render(simple_scene, cam, RenderConfig())[0]
    clean = color.data.copy()
    color.data[3, 4, 1] = np.nan
    for a, b in ((color, clean), (clean, color)):
        with pytest.raises(ValueError, match="image values must be finite"):
            metric(a, b)


def test_ssim_identity_exactly_one():
    a = _img(3, 16, 16)
    assert ssim(a, a) == 1.0


def test_ssim_constant_images_closed_form():
    a = np.full((16, 16, 1), 0.5)
    b = np.full((16, 16, 1), 0.6)
    c1 = 0.01 ** 2
    expect = (2 * 0.5 * 0.6 + c1) / (0.5 ** 2 + 0.6 ** 2 + c1)
    assert abs(ssim(a, b) - expect) < 1e-9


def test_ssim_symmetric():
    a, b = _img(4), _img(5)
    assert abs(ssim(a, b) - ssim(b, a)) < 1e-12


def test_ssim_inverted_below_one():
    a = _img(6)
    assert ssim(a, 1.0 - a) < 1.0


def test_ssim_noise_monotone():
    rng = np.random.default_rng(7)
    a = rng.random((24, 24, 3))
    noise = rng.standard_normal(a.shape)
    vals = [ssim(a, np.clip(a + s * noise, 0, 1)) for s in (0.01, 0.05, 0.1)]
    assert vals[0] > vals[1] > vals[2]


@pytest.mark.parametrize("hw,win", [((64, 48), 11), ((16, 10), 9), ((8, 8), 7),
                                    ((3, 30), 3), ((2, 2), 1)])
def test_ssim_window_for_image(hw, win):
    assert _ssim_window(*hw) == win
    a = _img(10, *hw)
    assert ssim(a, a) == 1.0


@pytest.mark.parametrize("hw", [(0, 5), (5, 0)])
def test_ssim_empty_image_raises(hw):
    with pytest.raises(ValueError):
        ssim(np.zeros(hw + (3,)), np.zeros(hw + (3,)))


def test_ssim_grad_zero_at_identity():
    # 75 x 75 takes three filter blocks per axis, 32 x 32 one
    for side in (13, 32, 75):
        a = _img(8, side, side)
        val, g = ssim_with_grad(a, a)
        assert val == 1.0
        assert np.all(g == 0.0)


def test_ssim_grad_finite_difference():
    # 9 x 14 shrinks the window to 9 x 9 and is not square
    rng = np.random.default_rng(9)
    for shape in ((13, 13, 1), (9, 14, 3)):
        a = rng.random(shape)
        b = rng.random(shape)
        _, g = ssim_with_grad(a, b)
        h = 1e-6
        for _ in range(12):
            i, j, ch = (rng.integers(0, n) for n in shape)
            ap = a.copy(); ap[i, j, ch] += h
            am = a.copy(); am[i, j, ch] -= h
            fd = (ssim(ap, b) - ssim(am, b)) / (2 * h)
            denom = max(abs(fd), abs(g[i, j, ch]), 1e-8)
            assert abs(fd - g[i, j, ch]) / denom < 1e-5


def _case(lead, H, W, win, seed=0):
    """(stack [*lead, H, W], window, valid-position stack [*lead, h, w])."""
    rng = np.random.default_rng(seed)
    return (rng.random(lead + (H, W)), win,
            rng.standard_normal(lead + (H - win + 1, W - win + 1)))


@st.composite
def _filter_case(draw):
    """One leading axis, or two as ssim_with_grad's [5, C, H, W] moments."""
    H = draw(st.integers(1, 70))
    W = draw(st.integers(1, 70))
    lead = draw(st.one_of(st.tuples(st.integers(1, 8)),
                          st.tuples(st.integers(1, 5), st.integers(1, 3))))
    return _case(lead, H, W,
                 draw(st.sampled_from(range(1, min(H, W, 11) + 1, 2))),
                 draw(st.integers(0, 2 ** 32 - 1)))


def _filter_reference(img, win):
    """Valid-mode correlation by a sum over the window's tap pairs."""
    taps = _gauss_taps(win, SSIM_SIGMA)
    h, w = img.shape[-2] - win + 1, img.shape[-1] - win + 1
    return sum(taps[i] * taps[j] * img[..., i:i + h, j:j + w]
               for i in range(win) for j in range(win))


# blocks hold 32 output rows: 64 rows fill two exactly (the filter at 70
# rows and window 7, the adjoint at 64 rows), 54 or 70 leave a part block;
# the filter reads a stack of at most 42 rows at window 11, or of 70 at
# window 7, in place, with no zero-padded copy
@example(_case((3,), 70, 42, 7))
@example(_case((2,), 64, 32, 11))
@example(_case((5,), 60, 11, 11))
@example(_case((1,), 1, 70, 1))
@example(_case((5, 3), 32, 32, 11))
@example(_case((5, 1), 42, 17, 11))
@given(_filter_case())
@settings(max_examples=150, deadline=None)
def test_filter_maps_do_not_depend_on_their_stack(case):
    stack, win, z = case
    fx = _sep_valid(stack, win)
    fz = _sep_adjoint(z, win)
    assert fx.shape == z.shape and fz.shape == stack.shape
    np.testing.assert_allclose(fx, _filter_reference(stack, win), rtol=0, atol=1e-13)
    # and the bits of the reference's filter, which always pads a copy
    assert fx.tobytes() == ssim_reference._sep_valid(stack, win).tobytes()
    assert fz.tobytes() == ssim_reference._sep_adjoint(z, win).tobytes()
    for i in np.ndindex(stack.shape[:-2]):
        assert np.array_equal(fx[i], _sep_valid(stack[i], win))
        assert np.array_equal(fz[i], _sep_adjoint(z[i], win))


@given(_filter_case())
@settings(max_examples=100, deadline=None)
def test_filter_adjoint_is_its_transpose(case):
    stack, win, z = case
    fx = _sep_valid(stack, win)
    lhs = float(np.sum(fx * z))
    rhs = float(np.sum(stack * _sep_adjoint(z, win)))
    # relative to the size of the terms, as the sum itself may cancel
    assert abs(lhs - rhs) <= 1e-12 * float(np.sum(np.abs(fx * z)))


@st.composite
def _ssim_case(draw):
    """(x, y, want_grad): sides 1-80, so windows below 11 too, 1 or 3
    channels, and y independent of x, equal to it, or a rounding away."""
    H, W = draw(st.integers(1, 80)), draw(st.integers(1, 80))
    C = draw(st.sampled_from([1, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.random((H, W, C))
    kind = draw(st.sampled_from(["independent", "equal", "near"]))
    if kind == "independent":
        y = rng.random((H, W, C))
    elif kind == "equal":
        y = x.copy()
    else:
        y = x + draw(st.sampled_from([1e-12, 1e-6])) * rng.standard_normal(x.shape)
    return x, y, draw(st.booleans())


@example((_img(11, 32, 32), _img(12, 32, 32), True))
@example((_img(13, 42, 42, 1), _img(13, 42, 42, 1), True))
@example((_img(14, 75, 9), _img(15, 75, 9), False))
@given(_ssim_case())
@settings(max_examples=150, deadline=None)
def test_ssim_equals_the_reference_bit_for_bit(case):
    x, y, want_grad = case
    value, grad = ssim_with_grad(x, y, want_grad)
    ref_value, ref_grad = ssim_reference.ssim_with_grad(x, y, want_grad)
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
    if not want_grad:
        assert grad is None and ref_grad is None
        return
    assert grad.shape == x.shape and grad.tobytes() == ref_grad.tobytes()
    if np.array_equal(x, y):
        assert np.all(grad == 0.0)
