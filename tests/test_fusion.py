"""Pose embedding and the radiance-fusion MLP, including its gradients."""
import math

import numpy as np
import pytest

from splat360 import (Camera, MlpParams, ParamsFormatError, embed_camera,
                      fuse_backward_batch, fuse_forward_batch, init_mlp,
                      load_mlp, save_mlp)
from splat360.fusion import _sigmoid, fusion_input


def _cam_at(position, target=(0.0, 0.0, 0.0), fov=0.9):
    return Camera.look_at(np.asarray(position, dtype=float),
                          np.asarray(target, dtype=float), fov, 8, 8)


def test_embed_at_center_zeroes_position():
    cam = _cam_at((0.0, 0.0, 1e-12), target=(0.0, 1.0, 0.0))
    e = embed_camera(cam, np.zeros(3), 2.0)
    assert np.allclose(e[:3], 0.0, atol=1e-12)


def test_embed_unit_offset_along_x():
    cam = _cam_at((3.0, 0.0, 0.0))
    e = embed_camera(cam, np.zeros(3), 3.0)
    assert e[0] == 1.0 and e[1] == 0.0 and e[2] == 0.0


def test_embed_fov_slot():
    cam = _cam_at((0.0, -2.0, 0.0), fov=math.pi / 2)
    e = embed_camera(cam, np.zeros(3), 1.0)
    assert e[12] == 0.5


def test_embed_zero_padding_and_bounds():
    cam = _cam_at((9.0, -5.0, 2.0))
    e = embed_camera(cam, np.zeros(3), 0.5, d=20)
    assert e.shape == (20,)
    assert np.all(e[13:] == 0.0)
    assert np.all(np.abs(e) <= 1.0)


def test_embed_small_d_rejected():
    cam = _cam_at((1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        embed_camera(cam, np.zeros(3), 1.0, d=12)


def test_embed_translation_invariant():
    shift = np.array([10.0, -4.0, 2.5])
    cam_a = _cam_at((2.0, 1.0, 0.5), target=(0.1, 0.2, 0.3))
    cam_b = _cam_at(np.array([2.0, 1.0, 0.5]) + shift,
                    target=np.array([0.1, 0.2, 0.3]) + shift)
    ea = embed_camera(cam_a, np.array([0.1, 0.2, 0.3]), 1.7)
    eb = embed_camera(cam_b, np.array([0.1, 0.2, 0.3]) + shift, 1.7)
    assert np.allclose(ea, eb, atol=1e-12)


def _zero_params(d=16):
    p = init_mlp(d=d, seed=0)
    return MlpParams(d, 0, tuple(np.zeros_like(w) for w in p.weights),
                     tuple(np.zeros_like(b) for b in p.biases))


def _embedding(d=16, seed=1):
    return np.random.default_rng(seed).uniform(-1, 1, d)


def _fuse_one(l_iso, l_aniso, e_vec, direction, params):
    """The fused RGB of one ray: one row through the batch forward pass."""
    return fuse_forward_batch(fusion_input(l_iso, l_aniso, e_vec, direction),
                              params)[0]


def test_sigmoid_bits_equal_the_masked_two_branch_form():
    # 1 / (1 + exp(-x)) where x >= 0, exp(x) / (1 + exp(x)) elsewhere, each
    # over its own masked subset: signed zeros, infinities, the saturation
    # points of either branch, subnormals and normal draws at four scales
    edges = [0.0, 5e-324, 2.2e-308, 37.0, 709.8, 745.2, np.inf]
    x = np.concatenate([edges, np.negative(edges)] + [
        np.random.default_rng(seed).standard_normal(100_000) * 10.0 ** seed
        for seed in range(4)])
    pos = x >= 0
    expect = np.empty_like(x)
    expect[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    expect[~pos] = ex / (1.0 + ex)
    assert np.signbit(x[len(edges)])
    assert _sigmoid(x).tobytes() == expect.tobytes()
    assert _sigmoid(x.reshape(2, -1)).tobytes() == expect.tobytes()
    assert np.isnan(_sigmoid(np.array([np.nan, -np.nan]))).all()


def test_fuse_zero_params_is_half():
    e = _embedding()
    out = _fuse_one(np.full(3, 0.3), np.full(3, 0.1), e,
                    np.array([0.0, 0.0, 1.0]), _zero_params())
    assert np.array_equal(out, [0.5, 0.5, 0.5])


def test_fuse_bias_only_path():
    p = _zero_params()
    b3 = np.array([1.0, -2.0, 0.0])
    p2 = MlpParams(p.d, 0, p.weights, (p.biases[0], p.biases[1], b3))
    out = _fuse_one(np.zeros(3), np.zeros(3), _embedding(),
                    np.array([0.0, 0.0, 1.0]), p2)
    expect = 1.0 / (1.0 + np.exp(-b3))
    assert np.allclose(out, expect, atol=1e-15)


def test_fuse_deterministic_and_open_interval():
    p = init_mlp(seed=5)
    e = _embedding(seed=2)
    args = (np.array([0.9, 0.1, 0.4]), np.array([2.0, 0.0, 0.5]), e,
            np.array([0.0, 1.0, 0.0]))
    a = _fuse_one(*args, p)
    b = _fuse_one(*args, p)
    assert np.array_equal(a, b)
    assert np.all(a > 0.0) and np.all(a < 1.0)


def test_fuse_shape_mismatch_rejected():
    p = init_mlp(d=16)
    with pytest.raises(ValueError):
        fuse_forward_batch(np.zeros((2, 9 + 17)), p)


def test_backward_zero_upstream():
    p = init_mlp(seed=3)
    x = fusion_input(np.full(3, 0.2), np.full(3, 0.4), _embedding(),
                     np.array([1.0, 0.0, 0.0]))
    _, cache = fuse_forward_batch(x, p, want_cache=True)
    grads, dx = fuse_backward_batch(cache, p, np.zeros((1, 3)))
    assert np.all(grads.to_flat() == 0.0)
    assert np.all(dx == 0.0)


def _relerr(analytic, fd, floor=1e-8):
    if abs(analytic) < floor and abs(fd) < floor:
        return abs(analytic - fd)
    return abs(analytic - fd) / max(abs(analytic), abs(fd))


def test_gradient_check_hundred_draws():
    # central differences against the analytic reverse pass; components with
    # tiny analytic values compared absolutely
    rng = np.random.default_rng(100)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        d = 16
        params = init_mlp(d=d, seed=int(rng.integers(1 << 31)))
        x = np.concatenate([rng.random(3), rng.random(3) * 2,
                            rng.uniform(-1, 1, d), rng.uniform(-1, 1, 3)])
        up = rng.standard_normal(3)
        _, cache = fuse_forward_batch(x[None, :], params, want_cache=True)
        grads, dX = fuse_backward_batch(cache, params, up[None, :])
        flat = params.to_flat()
        gflat = grads.to_flat()
        for idx in rng.integers(0, flat.size, 4):
            fp = flat.copy(); fp[idx] += h
            fm = flat.copy(); fm[idx] -= h
            fd = (float(fuse_forward_batch(x[None, :], params.with_flat(fp))[0] @ up)
                  - float(fuse_forward_batch(x[None, :], params.with_flat(fm))[0] @ up)) / (2 * h)
            worst = max(worst, _relerr(gflat[idx], fd))
        for idx in rng.integers(0, x.size, 3):
            xp = x.copy(); xp[idx] += h
            xm = x.copy(); xm[idx] -= h
            fd = (float(fuse_forward_batch(xp[None, :], params)[0] @ up)
                  - float(fuse_forward_batch(xm[None, :], params)[0] @ up)) / (2 * h)
            worst = max(worst, _relerr(dX[0, idx], fd))
    assert worst < 1e-4


def test_params_flat_round_trip():
    p = init_mlp(d=16, seed=9)
    q = p.with_flat(p.to_flat())
    for a, b in zip(p.weights, q.weights):
        assert np.array_equal(a, b)
    for a, b in zip(p.biases, q.biases):
        assert np.array_equal(a, b)


def test_params_file_round_trip(tmp_path):
    p = init_mlp(d=16, seed=4)
    path = tmp_path / "m.params"
    save_mlp(str(path), p)
    q = load_mlp(str(path))
    assert q.d == p.d and q.seed == p.seed
    assert np.array_equal(p.to_flat(), q.to_flat())
    # rewriting produces the same bytes
    save_mlp(str(tmp_path / "m2.params"), q)
    assert (tmp_path / "m.params").read_bytes() == (tmp_path / "m2.params").read_bytes()


def test_params_file_errors(tmp_path):
    bad = tmp_path / "bad.params"
    bad.write_bytes(b"layers=1 2 3\n")
    with pytest.raises(ParamsFormatError):
        load_mlp(str(bad))
    with pytest.raises(ParamsFormatError):
        load_mlp(str(tmp_path / "missing.params"))
    p = init_mlp(d=16, seed=1)
    path = tmp_path / "trunc.params"
    save_mlp(str(path), p)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ParamsFormatError):
        load_mlp(str(path))


def test_init_mlp_seeded():
    assert np.array_equal(init_mlp(seed=7).to_flat(), init_mlp(seed=7).to_flat())
    assert not np.array_equal(init_mlp(seed=7).to_flat(), init_mlp(seed=8).to_flat())
