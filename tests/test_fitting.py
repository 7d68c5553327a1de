"""Composite loss, Adam, and the appearance-fitting loop."""
import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splat360 import (AnchorPoint, AnchorSet, Camera, FitConfig, NumericFailure,
                      RenderConfig, Scene, adam_step, composite_loss,
                      embed_camera, fit_scene, init_mlp, make_orbit_cameras,
                      make_random_scene, psnr, render, scene_to_json, ssim,
                      select_anchors, validate_scene)
from splat360 import fitting, metrics, renderer
from splat360 import scene as scene_module
from splat360.fitting import _patch_origin
from splat360.fusion import fuse_forward_batch, fusion_input
from splat360.renderer import _pair_sets, _patch_backward, _patch_forward
from conftest import dense_composite


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
    loss, grad = composite_loss(a + 0.1, a, lambda_ssim=0.0)
    assert abs(loss - 0.01) < 1e-12
    # d/dpred of mean(diff^2) is 2*diff/N
    assert np.allclose(grad.data, 2.0 * 0.1 / a.size, atol=1e-15)


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
    loss, grad = composite_loss(a, b, lambda_ssim)
    loss_only, none = composite_loss(a, b, lambda_ssim, want_grad=False)
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
    new, state = adam_step(params, np.zeros(3), (None, None, 0), 0.1)
    assert np.array_equal(new, params)
    assert state[2] == 1


def test_adam_first_step_is_signed_lr():
    params = np.zeros(4)
    grads = np.array([3.0, -0.5, 1e-3, -2e4])
    new, _ = adam_step(params, grads, (None, None, 0), 0.01)
    # bias-corrected first step is lr * g/(|g| + eps) ~= lr * sign(g)
    assert np.allclose(new, -0.01 * np.sign(grads), rtol=1e-4)


def test_adam_descends_quadratic():
    x = np.array([2.0, -3.0])
    state = (None, None, 0)
    for _ in range(50):
        x, state = adam_step(x, 2.0 * x, state, 0.05)
    assert np.sum(x * x) < 13.0 * 0.5


def test_adam_shape_mismatch():
    with pytest.raises(ValueError):
        adam_step(np.zeros(3), np.zeros(4), (None, None, 0), 0.1)


# ---------------------------------------------------------------------------
# FitConfig contract

def test_config_validation():
    with pytest.raises(ValueError):
        FitConfig(ablation={"no_such_thing"})
    with pytest.raises(ValueError):
        FitConfig(lr=0.0)
    with pytest.raises(ValueError):
        FitConfig(iters=0)
    # a negative seed would fail only once the anchors are rendered, and a
    # negative full_eval_every would evaluate every |n| iterations
    with pytest.raises(ValueError, match="seed"):
        FitConfig(seed=-1)
    with pytest.raises(ValueError, match="full_eval_every"):
        FitConfig(full_eval_every=-5)
    FitConfig(seed=0, full_eval_every=0)
    cfg = FitConfig(ablation=["no_anchoring", "no_anisotropy"])
    assert cfg.ablation == frozenset({"no_anchoring", "no_anisotropy"})
    # the integer settings take integers only: a fraction or a bool would
    # fail late in fit_scene or change how often it evaluates
    for field, bad in (("seed", 1.5), ("iters", 2.5), ("full_eval_every", 2.5),
                       ("rays_per_step", 16.5),
                       ("iters", True), ("seed", False), ("rays_per_step", "16"),
                       ("iters", 3.0)):
        with pytest.raises(ValueError, match=field):
            FitConfig(**{field: bad})
    assert FitConfig(iters=np.int64(3)).iters == 3


@pytest.mark.parametrize("field", ["lr", "lambda_ssim"])
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


@pytest.mark.parametrize("lambda_ssim", [0.0, 0.2])
def test_fit_report_computes_each_view_ssim_once(small_random_scene, monkeypatch,
                                                 lambda_ssim):
    # one SSIM per patch loss that has the term, one per view for the report;
    # the report holds the bits composite_loss and ssim give on the renders
    calls = []
    for module in (fitting, metrics):
        def counted(*args, f=module.ssim_with_grad, **kwargs):
            calls.append(f)
            return f(*args, **kwargs)
        monkeypatch.setattr(module, "ssim_with_grad", counted)
    targets = _self_targets(small_random_scene, _views(small_random_scene),
                            RenderConfig())
    cfg = FitConfig(iters=3, lr=0.05, lambda_ssim=lambda_ssim, seed=1,
                    full_eval_every=0)
    fitted, _, report = fit_scene(_perturbed(small_random_scene), targets, cfg)
    assert len(calls) == (cfg.iters if lambda_ssim else 0) + len(targets)
    monkeypatch.undo()
    losses = []
    for view, (cam, tgt) in zip(report.per_view, targets):
        pred, _, _ = render(fitted, cam, RenderConfig(), workers=1)
        assert view["ssim"] == ssim(pred, tgt)
        losses.append(composite_loss(pred, tgt, lambda_ssim, want_grad=False)[0])
    assert report.final_loss == float(np.mean(losses))


def test_appearance_fit_builds_scenes_equal_to_fresh_ones(small_random_scene):
    # each iteration builds a Scene from unchanged covariances, which reuses
    # the start scene's factorisation instead of running eigvalsh again
    targets = _self_targets(small_random_scene, _views(small_random_scene),
                            RenderConfig())
    start = _perturbed(small_random_scene)
    fitted, _, _ = fit_scene(start, targets, FitConfig(iters=3, lr=0.05, seed=1))
    assert not np.array_equal(fitted.alpha, start.alpha)
    assert fitted.cov_inv is start.cov_inv
    scene_module._covariance_terms.cache_clear()
    fresh = Scene(**{f.name: getattr(fitted, f.name)
                     for f in dataclasses.fields(Scene) if f.init})
    assert fresh.cov_inv is not fitted.cov_inv
    for f in dataclasses.fields(Scene):
        got, want = getattr(fitted, f.name), getattr(fresh, f.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, f.name
            assert got.tobytes() == want.tobytes(), f.name
            assert not got.flags.writeable, f.name
        else:
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), f.name


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


def test_fit_whose_patch_loss_overflows_raises_numeric_failure(simple_scene):
    # the prediction is finite, but its squared distance to the target is
    # not: the fit fails on the loss, before the gradient becomes an image
    cam = _views(simple_scene, n=1, res=16)[0]
    with pytest.raises(NumericFailure, match="non-finite loss at iteration 1") as exc:
        fit_scene(simple_scene, [(cam, np.full((16, 16, 3), 1e300))],
                  FitConfig(iters=2, seed=0))
    assert exc.value.report.iterations == 0


def test_fit_whose_full_view_loss_overflows_raises_numeric_failure(
        small_random_scene):
    # one target pixel that no patch reads overflows only the full-view loss
    cam = _views(small_random_scene, n=1, res=32)[0]
    cfg = FitConfig(iters=2, rays_per_step=16, seed=0, ablation={"no_anchoring"})
    rng = np.random.default_rng(cfg.seed)
    read = np.zeros((32, 32), dtype=bool)
    for _ in range(cfg.iters):
        r0, c0 = _patch_origin(rng, 32, 32, 4, 4, None, fitting.ANCHOR_MIX)
        read[r0:r0 + 4, c0:c0 + 4] = True
    tgt = render(small_random_scene, cam, RenderConfig(), workers=1)[0].data
    tgt[np.unravel_index(np.argmin(read), read.shape)] = 1e300
    with pytest.raises(NumericFailure,
                       match="full-view render after iteration 2: non-finite loss") as exc:
        fit_scene(small_random_scene, [(cam, tgt)], cfg)
    assert exc.value.report.iterations == 2
    assert exc.value.report.trace == [0.0, 0.0]


@pytest.mark.parametrize("iters, where", [
    (3, "non-finite prediction at iteration 2"),
    (1, "full-view render after iteration 1")], ids=["patch", "full_view"])
def test_diverging_mlp_fit_raises_numeric_failure_with_report(
        small_random_scene, iters, where):
    cams = _views(small_random_scene)
    targets = _self_targets(small_random_scene, cams, RenderConfig())
    cfg = FitConfig(iters=iters, lr=1e300, seed=0)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericFailure, match=where) as exc:
            fit_scene(small_random_scene, targets, cfg, mlp=init_mlp(16))
    assert exc.value.report.iterations == 1
    assert np.isfinite(exc.value.report.trace).all()


def test_collapsing_geometry_fit_raises_numeric_failure_with_report(
        small_random_scene):
    cams = _views(small_random_scene)
    targets = _self_targets(small_random_scene, cams, RenderConfig())
    start = _perturbed(small_random_scene)
    cfg = FitConfig(iters=3, lr=30.0, optimize_geometry=True, seed=0)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericFailure, match="singular covariance") as exc:
            fit_scene(start, targets, cfg)
    assert exc.value.report.iterations >= 1
    assert np.isfinite(exc.value.report.trace).all()


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


@pytest.mark.parametrize("rounded", [{0, 1}, {0}], ids=["every_view", "one_view"])
def test_fit_on_float32_valued_targets_is_exact_zero(small_random_scene, rounded):
    # a view whose every value is a float32 is compared in float32, so a fit
    # started at the scene that rendered it measures exactly zero though
    # nothing marks the targets as decoded from 32-bit files; each view
    # decides for itself, so a float64 render beside it stays exact too
    s = small_random_scene
    targets = [(cam, img.data.astype(np.float32).astype(np.float64) if v in rounded
                else img)
               for v, (cam, img) in enumerate(_self_targets(s, _views(s), RenderConfig()))]
    fitted, _, report = fit_scene(s, targets, FitConfig(iters=4))
    assert report.trace == [0.0] * 4
    assert report.final_loss == 0.0
    assert scene_to_json(fitted) == scene_to_json(s)


def test_a_value_beyond_float32_range_decides_float64(small_random_scene):
    s = small_random_scene
    (_, color), = _self_targets(s, _views(s, n=1), RenderConfig())
    tgt = color.data.astype(np.float32).astype(np.float64)
    assert fitting._in_float32(tgt)
    assert not fitting._in_float32(color.data)
    tgt[2, 3, 0] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not fitting._in_float32(tgt)


@pytest.mark.parametrize("value,in_float32", [
    (float(np.finfo(np.float32).max), True), (2.0 ** -149, True), (-0.0, True),
    (2.0 ** -150, False), (1.0 + 2.0 ** -52, False), (0.1, False),
    (2.0 ** 128, False), (-1e300, False)],
    ids=["float32_max", "least_float32_subnormal", "negative_zero",
         "half_the_least_subnormal", "one_ulp_above_one", "a_tenth",
         "past_float32_max", "minus_1e300"])
def test_one_value_decides_a_targets_precision(value, in_float32):
    # every other value is a float32, so this one decides; a value that
    # rounds to 0 or to inf as float32 is not one, and raises no warning
    tgt = np.full((2, 3, 3), 0.5)
    tgt[1, 2, 0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fitting._in_float32(tgt) is in_float32


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
    colors, tape = _patch_forward(s, cam, rcfg, list(_pair_sets(s, cam, [(rows, cols)])),
                                  rows, cols, mlp, e_vec)
    if not with_mlp:
        assert np.array_equal(colors, np.broadcast_to(s.background, (64, 3)))
    gpix = np.random.default_rng(0).standard_normal((64, 3))
    grads = _patch_backward(tape, rcfg, gpix, mlp, geometry=True)
    head = grads.pop("head", None)
    assert all(np.all(g == 0.0) for g in grads.values())
    if with_mlp:
        assert np.isfinite(head.to_flat()).all()
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
        colors, tape = _patch_forward(sc, cam, rcfg,
                                      list(_pair_sets(sc, cam, [(rows, cols)])),
                                      rows, cols, mlp, e_vec)
        outs.append((colors, _patch_backward(tape, rcfg, gpix, mlp, geometry=True)))
    (c0, grads0), (c1, grads1) = outs
    G = s.alpha.size
    assert c1.tobytes() == c0.tobytes()
    assert grads1.keys() == grads0.keys()
    assert np.any(grads0["mu"] != 0.0) and np.any(grads0["cov_inv"] != 0.0)
    for key, g0 in grads0.items():
        g1 = grads1[key]
        if key == "head":
            assert g1.to_flat().tobytes() == g0.to_flat().tobytes()
        else:
            assert g1[:G].tobytes() == g0.tobytes()
            assert np.all(g1[G:] == 0.0)


def _dense_patch(scene, cam, rcfg, rows, cols, mlp, e_vec):
    """`_patch_forward`'s colors and tape from one kernel call over every
    ray x splat pair of the patch."""
    dx, dy, dz = (a.ravel() for a in cam.pixel_dirs(rows[:, None], cols[None, :]))
    colors, _, _, *streams = dense_composite(
        scene, cam.position, np.stack([dx, dy, dz], axis=1), rcfg, cam.near,
        fused_streams=mlp is not None, tape=True)
    tape = streams[-1]
    tape.origin = cam.position
    if mlp is not None:
        colors, tape.cache = fuse_forward_batch(
            fusion_input(streams[0], streams[1], e_vec, np.stack([dx, dy, dz], axis=1)),
            mlp, want_cache=True)
    return colors, tape


def _assert_same_tape(tape, dense):
    # the same live pairs per ray give the same rank-major layout, so every
    # slot array matches, in dtype too, and so do the rays and the fusion cache
    for field in dataclasses.fields(tape):
        a, b = getattr(tape, field.name), getattr(dense, field.name)
        if field.name == "scene":
            assert a is b
            continue
        if a is None or b is None or isinstance(a, list):
            assert a == b, field.name
            continue
        for x, y in zip(*((a, b) if isinstance(a, tuple) else ((a,), (b,)))):
            assert x.dtype == y.dtype, field.name
            if x.dtype.kind == "f":
                assert x.tobytes() == y.tobytes(), field.name
            else:
                assert np.array_equal(x, y), field.name


@st.composite
def _patch_case(draw):
    # patches anywhere in a 48x48 view, among them single pixels, the whole
    # view and patches on its border: the render they must match composites
    # the whole view in one kernel call, whose rays hold other slot counts
    # in another rank-major order, and on the far ring many pixels that no
    # splat reaches
    s = make_random_scene(draw(st.integers(1, 24)), seed=draw(st.integers(0, 999)),
                          spread=0.3, sigma_range=(0.03, 0.1))
    cam = make_orbit_cameras(s.center, draw(st.sampled_from([2.5, 6.0])) * max(s.radius, 0.1),
                             1, 0.3, "ring", 48, 48, 0.9)[0]
    kind = draw(st.sampled_from(["any", "pixel", "view", "border"]))
    if kind == "view":
        ph = pw = 48
    elif kind == "pixel":
        ph = pw = 1
    else:
        ph, pw = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    edge = st.sampled_from([0, 48 - ph]) if kind == "border" else st.integers(0, 48 - ph)
    r0, c0 = draw(edge), draw(st.integers(0, 48 - pw))
    mode = draw(st.sampled_from(["physical", "fused", "no_disentangle",
                                 "no_anisotropy"]))
    tile = draw(st.integers(4, 48))
    return s, cam, (r0, c0, ph, pw), mode, draw(st.booleans()), tile


@given(_patch_case())
@settings(max_examples=60, deadline=None)
def test_tiled_patch_matches_render_and_a_dense_tape(case):
    # the patch composites the pairs of its own grid, as a geometry fit
    # enumerates them, or its slices of the sets of the view's tile x tile
    # blocks: those it meets, or every block of the view, as an
    # appearance-only fit keeps them (a tile of 48 is the whole view)
    s, cam, (r0, c0, ph, pw), mode, with_geometry, tile = case
    rcfg = RenderConfig(disentangle=mode != "no_disentangle",
                        anisotropy_enabled=mode != "no_anisotropy")
    mlp = init_mlp(d=16, seed=1) if mode == "fused" else None
    e_vec = None if mlp is None else embed_camera(cam, s.center, s.radius, 16)
    rows = np.arange(r0, r0 + ph, dtype=np.float64)
    cols = np.arange(c0, c0 + pw, dtype=np.float64)
    image = render(s, cam, rcfg, mlp=mlp)[0].data[r0:r0 + ph, c0:c0 + pw]
    dense_colors, dense_tape = _dense_patch(s, cam, rcfg, rows, cols, mlp, e_vec)
    assert dense_colors.tobytes() == image.reshape(-1, 3).tobytes()
    gpix = np.random.default_rng(ph * 41 + pw).standard_normal((ph * pw, 3))
    dense = _patch_backward(dense_tape, rcfg, gpix, mlp, with_geometry)
    assert dense.keys() == ({"alpha", "l_iso", "l_aniso", "g"}
                            | ({"mu", "cov_inv"} if with_geometry else set())
                            | ({"head"} if mlp is not None else set()))
    blocks = [(np.arange(r, min(r + tile, 48), dtype=np.float64),
               np.arange(c, min(c + tile, 48), dtype=np.float64))
              for r in range(r0 - r0 % tile, r0 + ph, tile)
              for c in range(c0 - c0 % tile, c0 + pw, tile)]
    view = [(np.arange(r, min(r + tile, 48), dtype=np.float64),
             np.arange(c, min(c + tile, 48), dtype=np.float64))
            for r in range(0, 48, tile) for c in range(0, 48, tile)]
    for grids in ([(rows, cols)], blocks, view):
        sets = list(_pair_sets(s, cam, grids))
        colors, tape = _patch_forward(s, cam, rcfg, sets, rows, cols, mlp, e_vec)
        assert colors.tobytes() == dense_colors.tobytes()
        assert tape.idx.dtype == np.intp
        _assert_same_tape(tape, dense_tape)
        grads = _patch_backward(tape, rcfg, gpix, mlp, with_geometry)
        assert grads.keys() == dense.keys()
        for key, d in dense.items():
            g = grads[key]
            if key == "head":
                g, d = g.to_flat(), d.to_flat()
            assert g.tobytes() == d.tobytes(), key


def test_patch_forward_culls_ray_splat_pairs(monkeypatch):
    # the `fit` benchmark's recipe: 200 splats, 4 ring views at 64^2, a
    # 32x32 patch per iteration. Over 8 iterations each view's two patches
    # hold half its pixels, so each patch enumerates its own pairs; over the
    # benchmark's 40 each view is one COARSE_TILE block whose set holds the
    # pairs `_pairs` enumerates for the whole view, built once, before the
    # first iteration. Either way nearly all of them are live (q within the
    # cutoff, past the near plane). Every pair set of the fit goes through
    # its import of `_ray_geometry`: the 8-iteration fit's 8 patches and its
    # 8 full views (each view's anchor depth and final report), and the
    # 40-iteration fit's 4 kept sets
    s = make_random_scene(200, seed=0, spread=0.3, sigma_range=(0.05, 0.12))
    cams = make_orbit_cameras(s.center, 2.5 * s.radius, 4, 0.3, "ring", 64, 64, 0.9)
    targets = _self_targets(s, cams, RenderConfig())
    counts = []
    ray_geometry = fitting._ray_geometry

    def counted(*args):
        ts, q = ray_geometry(*args)
        counts.append((ts.size,
                       np.count_nonzero((q <= 9.0) & (ts >= cams[0].near))))
        return ts, q

    monkeypatch.setattr(fitting, "_ray_geometry", counted)
    for iters, calls in ((8, 16), (40, 4)):
        counts.clear()
        cfg = FitConfig(iters=iters, rays_per_step=32 * 32, full_eval_every=0,
                        seed=0)
        fit_scene(_perturbed(s), targets, cfg)
        assert len(counts) == calls
        pairs, live = np.sum(counts, axis=0)
        assert 0 < live <= pairs <= 1.001 * live


@pytest.mark.parametrize("with_mlp,ablation,geometry", [
    (False, (), False), (True, (), False), (False, ("no_anchoring",), False),
    (True, ("no_anchoring",), False), (False, (), True), (True, (), True)])
@pytest.mark.parametrize("iters", [9, 11, 24])
def test_pair_sets_are_built_once_per_block_where_views_are_revisited(
        monkeypatch, small_random_scene, with_mlp, ablation, geometry, iters):
    # 3 views of 16^2 in 8x8 blocks, 8x8 patches round-robin, a full-view
    # evaluation every 5 iterations. A view whose patches hold at least its
    # 256 pixels (4 visits; 11 iterations give views 0 and 1 four and view
    # 2 three) builds, in an appearance-only fit, the sets of all its blocks
    # in one call before the first iteration, and composites every patch
    # and full view from them: `_pairs` enumerates each of its blocks once
    # in the whole fit. A view visited less, or any view of a geometry fit,
    # which moves the splats, enumerates each iteration's patch afresh and
    # each full view in the view's blocks
    monkeypatch.setattr(renderer, "COARSE_TILE", 8)
    s = small_random_scene
    cams = _views(s, n=3, res=16)
    targets = _self_targets(s, cams, RenderConfig())
    view_of = {id(cam): i for i, cam in enumerate(cams)}
    # ("sets", view, grids) per `_pair_sets` call, ("iteration",) as each
    # iteration draws its patch
    events, enumerated = [], []
    pair_sets, pairs = fitting._pair_sets, renderer._pairs
    patch_origin = fitting._patch_origin

    def counted_grids(scene, cam, grids, **kw):
        events.append(("sets", view_of[id(cam)],
                       [(int(r[0]), int(c[0]), r.size, c.size) for r, c in grids]))
        return pair_sets(scene, cam, grids, **kw)

    def counted_pairs(conics, cam, rows, cols):
        enumerated.append((view_of[id(cam)], int(rows[0]), int(cols[0])))
        return pairs(conics, cam, rows, cols)

    def counted_origin(*args):
        events.append(("iteration",))
        return patch_origin(*args)

    monkeypatch.setattr(fitting, "_pair_sets", counted_grids)
    monkeypatch.setattr(renderer, "_pairs", counted_pairs)
    monkeypatch.setattr(fitting, "_patch_origin", counted_origin)
    cfg = FitConfig(lr=1e-3, iters=iters, rays_per_step=64, full_eval_every=5,
                    seed=0, optimize_geometry=geometry, ablation=ablation)
    mlp = init_mlp(d=16, seed=4) if with_mlp else None
    _, _, report = fit_scene(_perturbed(s), targets, cfg, mlp=mlp)
    assert len(report.trace) == iters
    visits = [len(range(v, iters, 3)) for v in range(3)]
    keeps = [not geometry and n * 64 >= 256 for n in visits]
    blocks = [(r, c, 8, 8) for r in (0, 8) for c in (0, 8)]
    renders = (not ablation) + iters // 5 + 1
    first = events.index(("iteration",))
    # the kept views' sets, then each other view's blocks for its anchor depth
    assert events[:first] == ([("sets", v, blocks) for v in range(3) if keeps[v]]
                              + [("sets", v, blocks) for v in range(3)
                                 if not keeps[v] and not ablation])
    assert events.count(("iteration",)) == iters
    # then each iteration's patch and each later full view of a view not kept
    later = [e for e in events[first:] if e[0] == "sets"]
    patches = [v for _, v, grids in later if len(grids) == 1 and grids[0][2:] == (8, 8)]
    views = [v for _, v, grids in later if grids == blocks]
    assert len(patches) + len(views) == len(later)
    assert sorted(patches) == [v for v in range(3) if not keeps[v]
                               for _ in range(visits[v])]
    assert sorted(views) == [v for v in range(3) if not keeps[v]
                             for _ in range(renders - (not ablation))]
    for v in range(3):
        calls = [e for e in enumerated if e[0] == v]
        if keeps[v]:
            assert sorted(calls) == sorted((v, r, c) for r, c, _, _ in blocks)
        else:
            assert len(calls) == visits[v] + 4 * renders


@st.composite
def _full_view_case(draw):
    s = make_random_scene(draw(st.integers(2, 16)), seed=draw(st.integers(0, 999)),
                          spread=0.3, sigma_range=(0.04, 0.12))
    side = draw(st.integers(3, 8))
    # 2 views of 12x20: a view whose patches hold its 240 pixels keeps its
    # block sets, and a few iterations fewer leave view 1, or both, without
    iters = max(2 * -(-240 // (side * side)) - draw(st.integers(0, 3)), 1)
    return s, side, iters, draw(st.integers(1, 6)), draw(st.integers(0, 99))


@pytest.mark.parametrize("with_mlp", [False, True], ids=["physical", "fused"])
@pytest.mark.parametrize("anchoring", [True, False], ids=["anchored", "uniform"])
@given(_full_view_case())
@settings(max_examples=4, deadline=None)
def test_full_views_match_render(with_mlp, anchoring, case):
    # in 8x8 blocks, so each 12x20 view has partial ones: the anchor sets,
    # each full-view evaluation and the final report equal those of the
    # same fit whose full views all come from `render`, and every full
    # view, from kept sets or from sets built as it asks for them, equals
    # `render`'s bit for bit
    s, side, iters, every, seed = case
    cams = make_orbit_cameras(s.center, 2.5 * max(s.radius, 0.1), 2, 0.3, "ring",
                              20, 12, 0.9)
    targets = _self_targets(s, cams, RenderConfig())
    cfg = FitConfig(lr=0.01, iters=iters, rays_per_step=side * side,
                    full_eval_every=every, seed=seed,
                    ablation=() if anchoring else ("no_anchoring",))
    mlp = init_mlp(d=16, seed=seed) if with_mlp else None
    render_sets = fitting._render_sets
    runs = []
    for kept in (True, False):
        anchor_sets, composited = [], []

        def recorded_anchors(grad, *args):
            anchor_sets.append(select_anchors(grad, *args))
            return anchor_sets[-1]

        def checked_sets(scene, cam, cfg, mlp, sets):
            out = render_sets(scene, cam, cfg, mlp, sets)
            expect = render(scene, cam, cfg, mlp=mlp)
            assert all(a.data.tobytes() == b.data.tobytes()
                       for a, b in zip(out, expect))
            composited.append(isinstance(sets, list))
            return out

        def rendered(scene, cam, cfg, mlp, sets):
            return render(scene, cam, cfg, mlp=mlp)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(renderer, "COARSE_TILE", 8)
            mp.setattr(fitting, "select_anchors", recorded_anchors)
            mp.setattr(fitting, "_render_sets", checked_sets if kept else rendered)
            _, _, report = fit_scene(_perturbed(s), targets, cfg, mlp=mlp)
        runs.append((report, anchor_sets))
        if kept:
            keeps = [len(range(v, iters, 2)) * side * side >= 240 for v in range(2)]
            views = anchoring + iters // every + 1
            assert len(composited) == 2 * views
            assert composited.count(True) == sum(keeps) * views
    (report, anchor_sets), (expect, expect_anchors) = runs
    assert len(anchor_sets) == (2 if anchoring else 0)
    assert anchor_sets == expect_anchors
    assert report.trace == expect.trace
    assert report.per_view == expect.per_view
    assert report.final_loss == expect.final_loss
    assert report.full_evals == expect.full_evals
    assert len(report.full_evals) == iters // every


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


def test_geometry_fit_ends_above_its_start():
    # a perturbed-appearance start with true geometry: a geometry fit
    # improves on it as an appearance-only one does (29.7-32.3 dB here).
    # With the centres stepped as far as any other block, about lr world
    # units per iteration, these fits ended 2-5 dB below their starts
    starts, finals = [], []
    for seed in range(4):
        gt = make_random_scene(25, seed, spread=0.3, sigma_range=(0.05, 0.12))
        cams = make_orbit_cameras(gt.center, 2.5 * gt.radius, 4, 0.3, "ring",
                                  32, 32, 0.9)
        targets = _self_targets(gt, cams, RenderConfig())
        start = scene_module.perturb_appearance(gt, 100 + seed, rel=0.5)
        starts.append(np.mean([psnr(render(start, cam)[0], tgt)
                               for cam, tgt in targets]))
        cfg = FitConfig(lr=0.01, iters=40, rays_per_step=256, full_eval_every=0,
                        optimize_geometry=True, seed=seed)
        _, _, report = fit_scene(start, targets, cfg)
        finals.append(np.mean([row["psnr"] for row in report.per_view]))
    assert all(f > s for s, f in zip(starts, finals)), (starts, finals)


@pytest.mark.parametrize("seed", [0, 1])
def test_held_out_views_keep_the_papers_ablation_order(seed):
    """Scored on views the fit never saw, the full model beats no_disentangle
    and no_disentangle beats no_anisotropy.

    The ground truth is drawn from the full model: a 200-splat scene with
    anisotropic radiance up to aniso_max 1.0, rendered with RenderConfig()
    from 16 fibonacci_sphere views at 32^2. Each fit trains on the even
    views from the same perturbed appearance and is scored, in mean PSNR,
    on the odd ones, rendered with the RenderConfig its ablation implies.
    The held-out setup is shrunk from 64^2 views, 1024-ray patches and 300
    iterations so that a seed takes under a second; at seeds 0-3 the
    margins were at least 3.7 dB for each step of the order.
    """
    gt = make_random_scene(200, seed, spread=0.3, sigma_range=(0.05, 0.12),
                           aniso_max=1.0)
    cams = make_orbit_cameras(gt.center, 2.5 * gt.radius, 16, 0.0,
                              "fibonacci_sphere", 32, 32, 0.9)
    views = _self_targets(gt, cams, RenderConfig())
    start = scene_module.perturb_appearance(gt, 100 + seed, rel=0.5)
    held_out = {}
    for ablation in ("full", "no_disentangle", "no_anisotropy"):
        cfg = FitConfig(lr=0.01, iters=100, rays_per_step=256, full_eval_every=0,
                        ablation={ablation} - {"full"}, seed=seed)
        fitted, _, _ = fit_scene(start, views[0::2], cfg)
        rcfg = RenderConfig(disentangle=ablation != "no_disentangle",
                            anisotropy_enabled=ablation != "no_anisotropy")
        held_out[ablation] = np.mean([psnr(render(fitted, cam, rcfg)[0], tgt)
                                      for cam, tgt in views[1::2]])
    assert (held_out["full"] > held_out["no_disentangle"]
            > held_out["no_anisotropy"]), held_out


@pytest.mark.parametrize("geometry,expected", [
    (False, "19f5a723ad41845991c0b28873a7861ac648c919dd5fa24f7e63d905043f7dda"),
    (True, "c7e0d099c4ca88479fd07467a46ba3b1ec18dec01684ceab7f34cb04dbf7f26b"),
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
