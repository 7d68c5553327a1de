"""Composite loss, Adam, and the appearance-fitting loop."""
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splat360 import (AnchorPoint, AnchorSet, Camera, FitConfig, NumericFailure,
                      RenderConfig, Scene, adam_step, composite_loss,
                      embed_camera, fit_scene, init_mlp, make_orbit_cameras,
                      make_random_scene, render, scene_to_json,
                      validate_scene)
from splat360 import fitting
from splat360.fitting import (_Geometry, _patch_backward, _patch_forward,
                              _patch_origin)
from splat360.fusion import fuse_forward_batch, fusion_input
from splat360.renderer import _all_pairs, _composite, _origin_terms, _ray_geometry


def _views(scene, n=2, res=16):
    return make_orbit_cameras(scene.center, 3.0 * max(scene.radius, 0.1), n,
                              0.3, "ring", res, res, 0.9)


def _self_targets(scene, cams, rcfg):
    out = []
    for cam in cams:
        color, _, _ = render(scene, cam, rcfg, workers=1)
        out.append((cam, color))
    return out


def _perturbed(scene, seed=3, scale=0.25):
    # each splat draws its l_iso factors, then its alpha factor
    u = 1.0 + scale * np.random.default_rng(seed).uniform(-1, 1, (scene.alpha.size, 4))
    return dataclasses.replace(scene, l_iso=scene.l_iso * u[:, :3],
                               alpha=np.clip(scene.alpha * u[:, 3], 0.05, 0.95))


# ---------------------------------------------------------------------------
# composite_loss

def test_loss_identity_is_exactly_zero():
    rng = np.random.default_rng(0)
    a = rng.random((16, 16, 3))
    loss, grad = composite_loss(a, a)
    assert loss == 0.0
    assert np.all(grad.data == 0.0)


def test_loss_mse_only_uniform_offset():
    a = np.zeros((8, 8, 3))
    loss, grad = composite_loss(a + 0.1, a, lambda_mse=2.0, lambda_ssim=0.0)
    assert abs(loss - 2.0 * 0.01) < 1e-12
    # d/dpred of 2*mean(diff^2) is 4*diff/N
    assert np.allclose(grad.data, 4.0 * 0.1 / a.size, atol=1e-15)


def test_loss_gradient_finite_difference():
    rng = np.random.default_rng(1)
    a = rng.random((8, 8, 3))
    b = rng.random((8, 8, 3))
    loss, grad = composite_loss(a, b)
    assert loss > 0.0
    h = 1e-6
    for _ in range(10):
        i, j, c = rng.integers(0, 8), rng.integers(0, 8), rng.integers(0, 3)
        ap = a.copy(); ap[i, j, c] += h
        am = a.copy(); am[i, j, c] -= h
        fd = (composite_loss(ap, b)[0] - composite_loss(am, b)[0]) / (2 * h)
        g = grad.data[i, j, c]
        assert abs(fd - g) / max(abs(fd), abs(g), 1e-8) < 1e-5


@pytest.mark.parametrize("lambda_ssim", [0.0, 0.2])
def test_loss_without_gradient_has_the_same_bits(lambda_ssim):
    rng = np.random.default_rng(4)
    a, b = rng.random((9, 13, 3)), rng.random((9, 13, 3))
    loss, grad = composite_loss(a, b, 0.7, lambda_ssim)
    loss_only, none = composite_loss(a, b, 0.7, lambda_ssim, want_grad=False)
    assert grad is not None and none is None
    assert loss_only.hex() == loss.hex()


def test_loss_input_checks():
    with pytest.raises(ValueError):
        composite_loss(np.zeros((4, 4, 3)), np.zeros((4, 5, 3)))
    with pytest.raises(ValueError):
        composite_loss(np.full((4, 4, 3), np.nan), np.zeros((4, 4, 3)))


# ---------------------------------------------------------------------------
# adam_step

def test_adam_zero_gradient_no_move():
    params = np.array([0.3, -1.7, 2.5])
    cfg = FitConfig(lr=0.1, iters=1)
    new, state = adam_step(params, np.zeros(3), (None, None, 0), cfg)
    assert np.array_equal(new, params)
    assert state[2] == 1


def test_adam_first_step_is_signed_lr():
    params = np.zeros(4)
    grads = np.array([3.0, -0.5, 1e-3, -2e4])
    cfg = FitConfig(lr=0.01, iters=1)
    new, _ = adam_step(params, grads, (None, None, 0), cfg)
    # bias-corrected first step is lr * g/(|g| + eps) ~= lr * sign(g)
    assert np.allclose(new, -0.01 * np.sign(grads), rtol=1e-4)


def test_adam_lr_halving_exact_factor():
    params = np.array([1.0, 2.0])
    grads = np.array([0.7, -0.2])
    m = np.array([0.1, 0.05])
    v = np.array([0.02, 0.01])
    full = FitConfig(lr=0.01, iters=1, lr_halve_every=10 ** 6)
    half = FitConfig(lr=0.01, iters=1, lr_halve_every=1)
    new_f, _ = adam_step(params, grads, (m, v, 1), full)
    new_h, _ = adam_step(params, grads, (m, v, 1), half)
    ratio = (params - new_h) / (params - new_f)
    assert np.allclose(ratio, 0.5, rtol=1e-12)


def test_adam_descends_quadratic():
    cfg = FitConfig(lr=0.05, iters=1)
    x = np.array([2.0, -3.0])
    state = (None, None, 0)
    for _ in range(50):
        x, state = adam_step(x, 2.0 * x, state, cfg)
    assert np.sum(x * x) < 13.0 * 0.5


def test_adam_shape_mismatch():
    with pytest.raises(ValueError):
        adam_step(np.zeros(3), np.zeros(4), (None, None, 0), FitConfig(iters=1))


# ---------------------------------------------------------------------------
# FitConfig contract

def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(ablation={"no_such_thing"})
    with pytest.raises(ValueError):
        FitConfig(lr=0.0)
    with pytest.raises(ValueError):
        FitConfig(iters=0)
    with pytest.raises(ValueError):
        FitConfig(target_dtype="float16")
    cfg = FitConfig(ablation=["no_anchoring", "no_anisotropy"])
    assert cfg.ablation == frozenset({"no_anchoring", "no_anisotropy"})


@pytest.mark.parametrize("field", ["lr", "lambda_mse", "lambda_ssim"])
@pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0])
def test_config_rejects_non_finite_values(field, bad):
    with pytest.raises(ValueError, match="finite"):
        FitConfig(**{field: bad})


# ---------------------------------------------------------------------------
# fit_scene

def test_fit_on_own_renders_is_exact_zero(small_random_scene):
    rcfg = RenderConfig()
    cams = _views(small_random_scene)
    targets = _self_targets(small_random_scene, cams, rcfg)
    cfg = FitConfig(iters=3, lr=0.05, seed=0)
    fitted, mlp_out, report = fit_scene(small_random_scene, targets, cfg)
    assert mlp_out is None
    assert report.trace == [0.0, 0.0, 0.0]
    assert report.final_loss == 0.0
    assert scene_to_json(fitted) == scene_to_json(small_random_scene)
    assert all(r["psnr"] == 99.0 and r["ssim"] == 1.0 for r in report.per_view)


def test_fit_reduces_loss_and_is_deterministic(small_random_scene):
    rcfg = RenderConfig()
    cams = _views(small_random_scene)
    targets = _self_targets(small_random_scene, cams, rcfg)
    start = _perturbed(small_random_scene)
    cfg = FitConfig(iters=40, lr=0.05, seed=1, full_eval_every=20)
    fitted_a, _, rep_a = fit_scene(start, targets, cfg)
    fitted_b, _, rep_b = fit_scene(start, targets, cfg)
    assert rep_a.trace == rep_b.trace
    assert scene_to_json(fitted_a) == scene_to_json(fitted_b)
    assert rep_a.final_loss < rep_a.trace[0]
    assert [it for it, _ in rep_a.full_evals] == [20, 40]
    assert validate_scene(fitted_a) == []


def test_fit_keeps_parameters_legal_under_large_steps(small_random_scene):
    rcfg = RenderConfig()
    cams = _views(small_random_scene)
    targets = _self_targets(small_random_scene, cams, rcfg)
    start = _perturbed(small_random_scene, seed=5, scale=0.4)
    cfg = FitConfig(iters=25, lr=0.5, seed=2)
    fitted, _, _ = fit_scene(start, targets, cfg)
    assert validate_scene(fitted) == []
    assert ((fitted.alpha > 0.0) & (fitted.alpha < 1.0)).all()
    assert (np.abs(fitted.g) < 1.0).all()
    color, _, _ = render(fitted, cams[0], rcfg, workers=1)
    assert np.isfinite(color.data).all()


def test_fit_numeric_failure_carries_report(simple_scene):
    cams = _views(simple_scene, n=1, res=8)
    bright = np.full((8, 8, 3), 5.0)
    cfg = FitConfig(iters=4, lr=1e200, lambda_ssim=0.0, seed=0)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericFailure, match="iteration 2") as exc:
            fit_scene(simple_scene, [(cams[0], bright)], cfg)
    assert exc.value.report.iterations == 1
    assert np.isfinite(exc.value.report.trace[0])


def test_fit_requires_targets(simple_scene):
    with pytest.raises(ValueError):
        fit_scene(simple_scene, [], FitConfig(iters=1))
    cams = _views(simple_scene, n=1, res=8)
    with pytest.raises(ValueError):
        fit_scene(simple_scene, [(cams[0], np.zeros((9, 8, 3)))],
                  FitConfig(iters=1))


def test_fit_mixed_resolution_targets(small_random_scene):
    # each view keeps its own size; the patch is clamped to the smaller one
    rcfg = RenderConfig()
    big = _views(small_random_scene, n=1, res=16)[0]
    small = _views(small_random_scene, n=1, res=8)[0]
    targets = _self_targets(small_random_scene, [big, small], rcfg)
    cfg = FitConfig(iters=4, rays_per_step=144, seed=0)
    _, _, report = fit_scene(small_random_scene, targets, cfg)
    assert report.trace == [0.0] * 4
    assert [v["view"] for v in report.per_view] == [0, 1]
    assert report.final_loss == 0.0


def test_fit_dual_branch_ablation_drops_mlp(small_random_scene):
    rcfg = RenderConfig()
    cams = _views(small_random_scene, n=1)
    targets = _self_targets(small_random_scene, cams, rcfg)
    cfg = FitConfig(iters=2, ablation={"no_dual_branch"}, seed=0)
    _, mlp_out, _ = fit_scene(small_random_scene, targets, cfg,
                              mlp=init_mlp(seed=0))
    assert mlp_out is None


def test_fit_joint_mlp_self_targets_zero(small_random_scene):
    rcfg = RenderConfig()
    cams = _views(small_random_scene)
    mlp = init_mlp(d=16, seed=4)
    targets = [(cam, render(small_random_scene, cam, rcfg, mlp=mlp)[0])
               for cam in cams]
    cfg = FitConfig(iters=3, lr=0.05, seed=0)
    fitted, mlp_out, report = fit_scene(small_random_scene, targets, cfg,
                                        mlp=mlp)
    assert report.trace == [0.0, 0.0, 0.0]
    assert np.array_equal(mlp_out.to_flat(), mlp.to_flat())
    assert scene_to_json(fitted) == scene_to_json(small_random_scene)


def test_fit_joint_mlp_training_moves_loss(small_random_scene):
    rcfg = RenderConfig()
    cams = _views(small_random_scene, n=2)
    targets = _self_targets(small_random_scene, cams, rcfg)
    mlp = init_mlp(d=16, seed=6)
    cfg = FitConfig(iters=30, lr=0.05, seed=3)
    _, mlp_out, report = fit_scene(small_random_scene, targets, cfg,
                                   mlp=mlp)
    assert mlp_out is not None
    assert not np.array_equal(mlp_out.to_flat(), mlp.to_flat())
    assert min(report.trace[-5:]) < report.trace[0]


@pytest.mark.parametrize("with_mlp", [False, True])
def test_patch_no_splat_reaches(small_random_scene, with_mlp):
    # the camera looks away from the scene, so no pair is enumerated
    s = small_random_scene
    pos = s.center - np.array([0.0, 0.0, 3.0 * s.radius])
    cam = Camera.look_at(pos, pos - np.array([0.0, 0.0, 1.0]), 0.9, 8, 8)
    mlp = init_mlp(d=16, seed=2) if with_mlp else None
    e_vec = embed_camera(cam, s.center, s.radius, 16) if with_mlp else None
    rcfg = RenderConfig()
    rows = cols = np.arange(8, dtype=np.float64)
    colors, work = _patch_forward(s, cam, rcfg, rows, cols, mlp, e_vec, tape=True)
    if not with_mlp:
        assert np.array_equal(colors, np.broadcast_to(s.background, (64, 3)))
    gpix = np.random.default_rng(0).standard_normal((64, 3))
    *app, mlp_g = _patch_backward(work, rcfg, gpix, mlp)
    assert all(np.all(g == 0.0) for g in app)
    if with_mlp:
        assert np.isfinite(mlp_g.to_flat()).all()
    tgt = np.random.default_rng(1).random((8, 8, 3))
    fitted, _, report = fit_scene(s, [(cam, tgt)],
                                  FitConfig(iters=2, rays_per_step=64, seed=0),
                                  mlp=mlp)
    assert len(report.trace) == 2
    assert scene_to_json(fitted) == scene_to_json(s)


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.booleans())
@settings(max_examples=20, deadline=None)
def test_splats_behind_the_camera_change_no_patch_bit(seed, extra, with_mlp):
    # an isotropic splat behind the camera peaks at t < 0 on every ray in
    # view, so the kernel culls it: colors and the original splats'
    # appearance and geometry gradients keep their bytes and the new splats'
    # gradients are exactly zero
    s = make_random_scene(6, seed=seed % 1000, spread=0.3, sigma_range=(0.05, 0.12))
    cam = _views(s, n=1, res=12)[0]
    rng = np.random.default_rng(seed)
    depth = rng.uniform(0.2, 3.0, extra)
    side = rng.uniform(-0.3, 0.3, (extra, 2)) * depth[:, None]
    mu = (cam.position - depth[:, None] * cam.forward
          + side[:, :1] * cam.right + side[:, 1:] * cam.up)
    sigma = rng.uniform(0.01, 0.3, extra)
    grown = Scene(mu=np.concatenate([s.mu, mu]),
                  cov=np.concatenate([s.cov, sigma[:, None, None] ** 2 * np.eye(3)]),
                  alpha=np.concatenate([s.alpha, rng.uniform(0.1, 0.99, extra)]),
                  l_iso=np.concatenate([s.l_iso, rng.random((extra, 3))]),
                  l_aniso=np.concatenate([s.l_aniso, rng.random((extra, 3))]),
                  normal=np.concatenate([s.normal, np.tile([0.0, 0.0, 1.0], (extra, 1))]),
                  g=np.concatenate([s.g, rng.uniform(-0.5, 0.5, extra)]),
                  background=s.background)
    mlp = init_mlp(d=16, seed=seed % 7) if with_mlp else None
    e_vec = embed_camera(cam, s.center, s.radius, 16) if with_mlp else None
    rcfg = RenderConfig()
    rows = cols = np.arange(12, dtype=np.float64)
    gpix = rng.standard_normal((144, 3))
    outs = []
    for sc in (s, grown):
        colors, work = _patch_forward(sc, cam, rcfg, rows, cols, mlp, e_vec, tape=True)
        geo = _Geometry(sc)
        outs.append((colors, _patch_backward(work, rcfg, gpix, mlp,
                                             (geo.rot, geo.log_eig))))
    (c0, (*app0, m0)), (c1, (*app1, m1)) = outs
    G = s.alpha.size
    assert c1.tobytes() == c0.tobytes()
    assert len(app0) == 5 and np.any(app0[4] != 0.0)
    for g0, g1 in zip(app0, app1):
        assert g1[:G].tobytes() == g0.tobytes()
        assert np.all(g1[G:] == 0.0)
    if with_mlp:
        assert m1.to_flat().tobytes() == m0.to_flat().tobytes()


def _dense_patch(scene, cam, rcfg, rows, cols, mlp, e_vec):
    """`_patch_forward`'s colors and work from one kernel call over every
    ray x splat pair of the patch."""
    dxb, dyb, dzb = cam.pixel_dirs(rows[:, None], cols[None, :])
    dx, dy, dz = dxb.ravel(), dyb.ravel(), dzb.ravel()
    v0, v1, v2, cg = _origin_terms(scene, cam.position)
    ray, sub = _all_pairs(dx.size, scene.alpha.size)
    out = _composite(scene, rcfg, cam.near,
                     _ray_geometry(scene, v0, v1, v2, cg, dx[ray], dy[ray],
                                   dz[ray], sub),
                     ray, sub, dx, dy, dz, fused_streams=mlp is not None,
                     tape=True)
    colors, cache = out[0], None
    if mlp is not None:
        colors, cache = fuse_forward_batch(
            fusion_input(out[3], out[4], e_vec, np.stack([dx, dy, dz], axis=1)),
            mlp, want_cache=True)
    return colors, (scene, out[-1], cache, cam.position, (dx, dy, dz))


@st.composite
def _patch_case(draw):
    # up to 40x40 patches anywhere in a 48x48 view: the render they must
    # match spans several fine tiles, of any size, and on the far ring some
    # tiles that no splat reaches
    s = make_random_scene(draw(st.integers(1, 24)), seed=draw(st.integers(0, 999)),
                          spread=0.3, sigma_range=(0.03, 0.1))
    cam = make_orbit_cameras(s.center, draw(st.sampled_from([2.5, 6.0])) * max(s.radius, 0.1),
                             1, 0.3, "ring", 48, 48, 0.9)[0]
    ph, pw = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    r0, c0 = draw(st.integers(0, 48 - ph)), draw(st.integers(0, 48 - pw))
    mode = draw(st.sampled_from(["physical", "fused", "no_disentangle",
                                 "no_anisotropy"]))
    return s, cam, (r0, c0, ph, pw), mode, draw(st.booleans())


@given(_patch_case())
@settings(max_examples=60, deadline=None)
def test_tiled_patch_matches_render_and_a_dense_tape(case):
    s, cam, (r0, c0, ph, pw), mode, with_geometry = case
    rcfg = RenderConfig(disentangle=mode != "no_disentangle",
                        anisotropy_enabled=mode != "no_anisotropy")
    mlp = init_mlp(d=16, seed=1) if mode == "fused" else None
    e_vec = None if mlp is None else embed_camera(cam, s.center, s.radius, 16)
    rows = np.arange(r0, r0 + ph, dtype=np.float64)
    cols = np.arange(c0, c0 + pw, dtype=np.float64)
    colors, work = _patch_forward(s, cam, rcfg, rows, cols, mlp, e_vec, tape=True)
    image = render(s, cam, rcfg, mlp=mlp)[0].data[r0:r0 + ph, c0:c0 + pw]
    assert colors.tobytes() == image.reshape(-1, 3).tobytes()
    dense_colors, dense_work = _dense_patch(s, cam, rcfg, rows, cols, mlp, e_vec)
    assert dense_colors.tobytes() == colors.tobytes()
    geo = _Geometry(s)
    geometry = (geo.rot, geo.log_eig) if with_geometry else None
    gpix = np.random.default_rng(ph * 41 + pw).standard_normal((ph * pw, 3))
    *grads, mlp_g = _patch_backward(work, rcfg, gpix, mlp, geometry)
    *dense, dense_mlp_g = _patch_backward(dense_work, rcfg, gpix, mlp, geometry)
    assert len(grads) == (5 if with_geometry else 4)
    for g, d in zip(grads, dense):
        assert g.tobytes() == d.tobytes()
    if mlp is not None:
        assert mlp_g.to_flat().tobytes() == dense_mlp_g.to_flat().tobytes()


def test_patch_forward_culls_ray_splat_pairs(monkeypatch):
    # the `fit` benchmark's recipe, shortened: 200 splats, 4 ring views at
    # 64^2, a 32x32 patch per iteration. Without the pair enumeration every
    # patch ray would meet every splat; the full-image renders go through
    # the renderer's own `_ray_geometry` and are not counted
    s = make_random_scene(200, seed=0, spread=0.3, sigma_range=(0.05, 0.12))
    cams = make_orbit_cameras(s.center, 2.5 * s.radius, 4, 0.3, "ring", 64, 64, 0.9)
    targets = _self_targets(s, cams, RenderConfig())
    pairs = []
    ray_geometry = fitting._ray_geometry

    def counted(*args):
        out = ray_geometry(*args)
        pairs.append(out[0].size)
        return out

    monkeypatch.setattr(fitting, "_ray_geometry", counted)
    cfg = FitConfig(iters=8, rays_per_step=32 * 32, full_eval_every=0, seed=0)
    fit_scene(_perturbed(s), targets, cfg)
    assert 0 < sum(pairs) < 0.1 * cfg.iters * cfg.rays_per_step * s.alpha.size


def test_fit_geometry_recovers_jittered_centers():
    # the geometry gradient points home: centers jittered off a ground-truth
    # scene move back toward it when fitted to that scene's own renders
    rcfg = RenderConfig()
    gains = []
    for seed in range(6):
        gt = make_random_scene(12, seed=seed, spread=0.3, sigma_range=(0.05, 0.12))
        cams = make_orbit_cameras(gt.center, 2.5 * gt.radius, 4, 0.3, "ring",
                                  32, 32, 0.9)
        jitter = np.random.default_rng(seed).normal(0.0, 0.01, gt.mu.shape)
        start = dataclasses.replace(gt, mu=gt.mu + jitter)
        cfg = FitConfig(lr=2e-3, iters=60, rays_per_step=256, seed=seed,
                        optimize_geometry=True, ablation={"no_anchoring"},
                        full_eval_every=0)
        fitted, _, rep = fit_scene(start, _self_targets(gt, cams, rcfg), cfg)
        assert validate_scene(fitted) == []
        assert len(rep.trace) == 60 and np.isfinite(rep.trace).all()
        before = np.linalg.norm(start.mu - gt.mu, axis=1).mean()
        after = np.linalg.norm(fitted.mu - gt.mu, axis=1).mean()
        gains.append(before / after)
    assert sum(g >= 2.0 for g in gains) >= 3, gains


@pytest.mark.parametrize("geometry,expected", [
    (False, "19f5a723ad41845991c0b28873a7861ac648c919dd5fa24f7e63d905043f7dda"),
    (True, "918ddce117ce99d69410420de9b9e7e06ae18e1b24f6677c2e1975fc79ffc8e3"),
], ids=["appearance", "geometry"])
def test_fit_output_bits_are_pinned(geometry, expected):
    # sha256 of the loss trace and the fitted scene. lambda_ssim=0 and no MLP
    # keep BLAS matmuls (the SSIM filter, the MLP backward) out of the bits,
    # so the digests hold on other CPUs too
    gt = make_random_scene(10, seed=7, spread=0.3, sigma_range=(0.05, 0.12))
    start = _perturbed(gt)
    if geometry:
        jitter = np.random.default_rng(8).normal(0.0, 0.01, gt.mu.shape)
        start = dataclasses.replace(start, mu=start.mu + jitter)
    cfg = FitConfig(lr=2e-3 if geometry else 0.01, iters=8, lambda_ssim=0.0,
                    rays_per_step=64, optimize_geometry=geometry, seed=5)
    targets = _self_targets(gt, _views(gt), RenderConfig())
    fitted, _, report = fit_scene(start, targets, cfg)
    assert min(report.trace) > 0.0
    h = hashlib.sha256(np.array(report.trace).tobytes())
    h.update(json.dumps(scene_to_json(fitted)).encode())
    assert h.hexdigest() == expected


# ---------------------------------------------------------------------------
# anchored patch placement

def test_patch_origin_follows_anchor():
    aset = AnchorSet(anchors=(AnchorPoint(20, 5, 2.0, 1.0),), beta=1.0)
    rng = np.random.default_rng(0)
    r0, c0 = _patch_origin(rng, 32, 32, 8, 8, aset, 1.0)
    assert (r0, c0) == (16, 1)


def test_patch_origin_clamps_to_bounds():
    aset = AnchorSet(anchors=(AnchorPoint(0, 31, 1.0, 1.0),), beta=0.0)
    rng = np.random.default_rng(1)
    r0, c0 = _patch_origin(rng, 32, 32, 8, 8, aset, 1.0)
    assert (r0, c0) == (0, 24)


def test_patch_origin_uniform_when_unanchored():
    rng = np.random.default_rng(2)
    seen = {_patch_origin(rng, 64, 64, 8, 8, None, 0.5) for _ in range(40)}
    assert len(seen) > 10
