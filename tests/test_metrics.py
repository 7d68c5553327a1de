"""PSNR, SSIM (value and analytic gradient), runtime measurement."""
import numpy as np
import pytest

from splat360 import (RenderConfig, SsimConfig, make_orbit_cameras,
                      measure_runtime, psnr, ssim, ssim_with_grad)


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


def test_ssim_window_guard():
    small = np.zeros((8, 8, 3))
    with pytest.raises(ValueError):
        ssim(small, small)


@pytest.mark.parametrize("hw,win", [((64, 48), 11), ((16, 10), 9), ((8, 8), 7),
                                    ((3, 30), 3), ((2, 2), 1)])
def test_ssim_window_for_image(hw, win):
    assert SsimConfig.for_image(*hw) == SsimConfig(window_size=win)


def test_ssim_config_validation():
    with pytest.raises(ValueError):
        SsimConfig(window_size=10)
    with pytest.raises(ValueError):
        SsimConfig(sigma=0.0)
    with pytest.raises(ValueError):
        SsimConfig(k1=-0.01)


def test_ssim_grad_zero_at_identity():
    a = _img(8, 13, 13)
    val, g = ssim_with_grad(a, a)
    assert val == 1.0
    assert np.all(g == 0.0)


def test_ssim_grad_finite_difference():
    rng = np.random.default_rng(9)
    a = rng.random((13, 13, 1))
    b = rng.random((13, 13, 1))
    _, g = ssim_with_grad(a, b)
    h = 1e-6
    for _ in range(12):
        i, j = rng.integers(0, 13, 2)
        ap = a.copy(); ap[i, j, 0] += h
        am = a.copy(); am[i, j, 0] -= h
        fd = (ssim(ap, b) - ssim(am, b)) / (2 * h)
        denom = max(abs(fd), abs(g[i, j, 0]), 1e-8)
        assert abs(fd - g[i, j, 0]) / denom < 1e-5


def test_runtime_report_consistency(small_random_scene):
    cams = make_orbit_cameras(small_random_scene.center,
                              3.0 * small_random_scene.radius, 2, 0.3,
                              "ring", 16, 16, 0.9)
    rep = measure_runtime(small_random_scene, cams, RenderConfig(), workers=1)
    assert rep.frames == 2 and rep.width == 16 and rep.workers == 1
    assert rep.fps > 0.0
    assert abs(rep.fps * rep.ms_per_frame / 1000.0 - 1.0) < 1e-9
    d = rep.to_dict()
    assert d["fps"] == rep.fps and d["frames"] == 2


def test_runtime_requires_cameras(small_random_scene):
    with pytest.raises(ValueError):
        measure_runtime(small_random_scene, [], RenderConfig(), 1)
