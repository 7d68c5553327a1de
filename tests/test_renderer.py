"""Splat compositing kernel: phase factor, per-ray weights, full renders."""
import dataclasses
import math
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import splat360.renderer
from splat360 import (Camera, RenderConfig, Scene, embed_camera,
                      fuse_forward_batch, init_mlp, make_orbit_cameras,
                      make_random_scene, render)
from splat360.fusion import fusion_input
from conftest import (dense_composite, every_pair, kernel_samples, make_scene,
                      ray_slots)
from splat360.renderer import (TERMINATION_EPSILON, _composite, _conics,
                               _live_pairs, _origin_terms, _pair_sets, _pairs,
                               _phase_factor, _rank_major, _ray_order,
                               _ray_totals, _scan_ranks, _shutdown_pools,
                               _view_grids)
from splat_reference import SplatReference, pixel_dir

Z = np.array([0.0, 0.0, 1.0])


def phase(d, normal, g: float) -> float:
    """Henyey-Greenstein phase value for cos(theta) = d . normal: the
    kernel's normalized factor f over 4 pi."""
    scene = make_scene(normal=normal, g=g)
    zero = np.zeros(1, dtype=np.intp)
    f, _ = _phase_factor(scene, *(np.array([c], dtype=float) for c in d),
                         zero, zero)
    return f[0] / (4.0 * math.pi)


def _kernel_ray(scene, d=Z, origin=(0.0, 0.0, 0.0), cfg=None, near=0.0):
    """(color [3], depth, final transmittance, samples) of one ray: a dense
    kernel call over its pairs, and its `Sample`s read from the call's tape."""
    color, depth, final_t, tape = dense_composite(
        scene, origin, np.array([d], dtype=float), cfg, near, tape=True)
    return color[0], depth[0], final_t[0], kernel_samples(tape, 0)


def test_phase_isotropic_value():
    d = np.array([0.0, 0.0, 1.0])
    n = np.array([0.0, 1.0, 0.0])
    assert phase(d, n, 0.0) == pytest.approx(1.0 / (4 * math.pi), rel=1e-12)


def test_phase_forward_and_backward_peaks():
    d = np.array([0.0, 0.0, 1.0])
    # cos(theta)=1: (1-g^2)/(4 pi (1+g^2-2g)^{3/2}) = 0.75/(4 pi 0.125)
    assert phase(d, d, 0.5) == pytest.approx(0.75 / (4 * math.pi * 0.125), rel=1e-12)
    # cos(theta)=-1: denominator (1+0.25+1)^{3/2} = 2.25^{3/2}
    assert phase(d, -d, 0.5) == pytest.approx(
        0.75 / (4 * math.pi * 2.25 ** 1.5), rel=1e-12)


@given(st.floats(-0.95, 0.95), st.floats(-1.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_phase_positive(g, cos):
    # construct two unit vectors with the requested cosine
    s = math.sqrt(max(1.0 - cos * cos, 0.0))
    d = np.array([0.0, 0.0, 1.0])
    n = np.array([s, 0.0, cos])
    n /= np.linalg.norm(n)
    assert phase(d, n, g) > 0.0


def test_weight_through_center():
    (sm,) = _kernel_ray(make_scene(mu=(0.0, 0.0, 2.0), alpha=0.8))[3]
    assert sm.t == pytest.approx(2.0, abs=1e-12)
    assert sm.weight == pytest.approx(0.8, abs=1e-12)


def test_weight_one_sigma_closest_approach():
    sigma = 0.25
    s = make_scene(mu=(sigma, 0.0, 2.0), sigma=sigma, alpha=1.0)
    (sm,) = _kernel_ray(s)[3]
    assert sm.weight == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert sm.t == pytest.approx(2.0, abs=1e-12)


def test_weight_behind_origin_is_zero():
    assert _kernel_ray(make_scene(mu=(0.0, 0.0, -2.0)))[3] == []


def test_weight_culled_past_cutoff():
    sigma = 0.1
    far = make_scene(mu=(3.5 * sigma, 0.0, 2.0), sigma=sigma, alpha=1.0)
    assert _kernel_ray(far)[3] == []
    near = make_scene(mu=(2.9 * sigma, 0.0, 2.0), sigma=sigma, alpha=1.0)
    (sm,) = _kernel_ray(near)[3]
    assert sm.weight == pytest.approx(math.exp(-0.5 * 2.9 ** 2), rel=1e-12)


def test_render_keeps_a_splat_just_inside_the_cutoff():
    # the pair enumeration and the kernel read one cutoff, so a splat
    # 2.99 sigma off the only ray of a 1x1 frame is rendered exactly as a
    # dense kernel call over the ray composites it
    sigma = 0.1
    s = make_scene(mu=(2.99 * sigma, 0.0, 2.0), sigma=sigma, alpha=1.0,
                   l_iso=(0.3, 0.6, 0.9))
    cam = Camera.look_at(np.zeros(3), np.array([0.0, 0.0, 1.0]), 0.9, 1, 1)
    color, depth, trans = render(s, cam)
    c, dep, ft, samples = _kernel_ray(s, near=cam.near)
    assert len(samples) == 1
    assert np.array_equal(color.data[0, 0], c)
    assert depth.data[0, 0, 0] == dep and trans.data[0, 0, 0] == ft


def test_composite_empty_scene():
    s = make_scene(mu=np.zeros((0, 3)), background=(0.2, 0.4, 0.6))
    color, depth, final_t, samples = _kernel_ray(s)
    assert np.array_equal(color, [0.2, 0.4, 0.6])
    assert final_t == 1.0 and depth == 0.0 and samples == []


def test_composite_single_opaque_splat():
    s = make_scene(mu=(0.0, 0.0, 2.0), alpha=1.0, l_iso=(0.3, 0.6, 0.9))
    color, depth, final_t, samples = _kernel_ray(s)
    assert np.allclose(color, [0.3, 0.6, 0.9], atol=1e-15)
    assert final_t == 0.0
    assert depth == pytest.approx(2.0, abs=1e-12)
    assert len(samples) == 1 and samples[0].weight == 1.0


def test_composite_two_half_weights_hand_oracle():
    # w1 = w2 = 0.5: contributions 0.5 and T2*w2 = 0.5*0.5, final T 0.25
    s = make_scene(mu=[(0.0, 0.0, 1.0), (0.0, 0.0, 2.0)], alpha=0.5,
                   l_iso=[(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
    color, _, final_t, samples = _kernel_ray(s)
    assert np.allclose(color, [0.5, 0.25, 0.0], atol=1e-12)
    assert final_t == pytest.approx(0.25, abs=1e-12)
    assert [sm.index for sm in samples] == [0, 1]
    assert samples[1].transmittance_before == pytest.approx(0.5, abs=1e-12)


def test_samples_sorted_with_consistent_transmittance():
    scene = make_random_scene(12, seed=2, spread=0.2, sigma_range=(0.05, 0.15))
    origin = scene.center + np.array([0.0, 0.0, -1.0])
    d = scene.center - origin
    d /= np.linalg.norm(d)
    _, _, final_t, samples = _kernel_ray(scene, d, origin)
    t_prev = -np.inf
    T = 1.0
    for sm in samples:
        assert sm.t >= t_prev
        assert sm.transmittance_before == pytest.approx(T, abs=1e-9)
        T *= 1.0 - sm.weight
        t_prev = sm.t


def test_conservation_along_random_rays():
    rng = np.random.default_rng(17)
    scene = make_random_scene(15, seed=8, spread=0.4, sigma_range=(0.05, 0.2))
    for _ in range(200):
        origin = scene.center + rng.normal(scale=1.0, size=3)
        d = scene.center + rng.normal(scale=0.2, size=3) - origin
        d /= np.linalg.norm(d)
        _, _, final_t, samples = _kernel_ray(scene, d, origin)
        total = sum(sm.transmittance_before * sm.weight for sm in samples)
        assert total + final_t == pytest.approx(1.0, abs=1e-9)


def test_order_invariance_bitwise():
    scene = make_random_scene(9, seed=4, spread=0.3, sigma_range=(0.05, 0.15))
    cam = make_orbit_cameras(scene.center, 3 * scene.radius, 1, 0.2, "ring",
                             24, 24, 0.9)[0]
    color_a, depth_a, trans_a = render(scene, cam)
    perm = np.random.default_rng(0).permutation(scene.alpha.size)
    shuffled = dataclasses.replace(scene, **{
        name: getattr(scene, name)[perm]
        for name in ("mu", "cov", "alpha", "l_iso", "l_aniso", "normal", "g")})
    color_b, depth_b, trans_b = render(shuffled, cam)
    assert np.array_equal(color_a.data, color_b.data)
    assert np.array_equal(depth_a.data, depth_b.data)
    assert np.array_equal(trans_a.data, trans_b.data)


def test_g_zero_fold_in_equality():
    # with g = 0 the angular factor is exactly 1, so the two radiance terms
    # add; moving l_aniso into l_iso must not change the image
    base = make_random_scene(8, seed=21, spread=0.3, sigma_range=(0.05, 0.15),
                             aniso_max=0.4)
    zero_g = dataclasses.replace(base, g=np.zeros(base.alpha.size))
    folded = dataclasses.replace(
        zero_g, l_iso=np.clip(zero_g.l_iso + zero_g.l_aniso, 0, None),
        l_aniso=np.zeros_like(zero_g.l_aniso))
    cam = make_orbit_cameras(base.center, 3 * base.radius, 1, 0.1, "ring",
                             24, 24, 0.9)[0]
    a, _, _ = render(zero_g, cam)
    b, _, _ = render(folded, cam)
    assert np.max(np.abs(a.data - b.data)) < 1e-9


def test_anisotropy_off_equals_zeroed_l_aniso():
    scene = make_random_scene(8, seed=22, spread=0.3, sigma_range=(0.05, 0.15),
                              aniso_max=0.4)
    cam = make_orbit_cameras(scene.center, 3 * scene.radius, 1, 0.1, "ring",
                             24, 24, 0.9)[0]
    off = RenderConfig(anisotropy_enabled=False)
    a, _, _ = render(scene, cam, off)
    zeroed = dataclasses.replace(scene, l_aniso=np.zeros_like(scene.l_aniso))
    b, _, _ = render(zeroed, cam)
    assert np.max(np.abs(a.data - b.data)) < 1e-9


def test_view_dependence_requires_anisotropy():
    s = make_scene(sigma=0.15, alpha=0.9, l_iso=(0.2, 0.2, 0.2),
                   l_aniso=(0.5, 0.5, 0.5), g=0.6)
    along, opposite = (Z, (0.0, 0.0, -1.0)), (-Z, (0.0, 0.0, 1.0))
    ca, *_ = _kernel_ray(s, *along)
    cb, *_ = _kernel_ray(s, *opposite)
    assert not np.allclose(ca, cb)
    cfg = RenderConfig(anisotropy_enabled=False)
    ca2, *_ = _kernel_ray(s, *along, cfg)
    cb2, *_ = _kernel_ray(s, *opposite, cfg)
    assert np.array_equal(ca2, cb2)


def test_final_t_monotone_in_scene_size():
    rng = np.random.default_rng(31)
    mu = [(rng.normal(scale=0.05), rng.normal(scale=0.05), 1.0 + 0.3 * i)
          for i in range(6)]
    prev = 1.0
    for k in range(1, 7):
        _, _, final_t, _ = _kernel_ray(make_scene(mu=mu[:k], alpha=0.5))
        assert final_t <= prev + 1e-15
        prev = final_t


def test_render_empty_scene_images(front_camera):
    s = make_scene(mu=np.zeros((0, 3)), background=(0.25, 0.5, 0.75))
    color, depth, trans = render(s, front_camera)
    assert np.all(color.data == np.array([0.25, 0.5, 0.75]))
    assert np.all(depth.data == 0.0)
    assert np.all(trans.data == 1.0)


def test_render_depth_at_center_pixel():
    s = make_scene(sigma=0.05, alpha=1.0)
    # odd image size puts a pixel center exactly on the optical axis
    cam = Camera.look_at(np.array([0.0, 0.0, -2.0]), np.zeros(3), 0.8, 33, 33)
    _, depth, _ = render(s, cam)
    assert depth.data[16, 16, 0] == pytest.approx(2.0, abs=1e-6)


def test_render_matches_the_dense_kernel_and_the_reference(small_random_scene,
                                                           ring_camera):
    # the culled, tiled render has the bits of one kernel call over every
    # pair of the frame's rays, and the reference's values
    s, cam = small_random_scene, ring_camera
    images = [img.data.reshape(cam.height * cam.width, -1).squeeze()
              for img in render(s, cam)]
    rows, cols = np.divmod(np.arange(cam.height * cam.width, dtype=np.float64), cam.width)
    dense = dense_composite(s, cam.position, np.stack(cam.pixel_dirs(rows, cols), axis=1),
                            near=cam.near)
    ref = SplatReference(s).image(cam)
    assert (ref[2] < 1.0).sum() > 50
    for img, d, r in zip(images, dense, ref):
        assert img.tobytes() == d.tobytes()
        assert np.abs(img - r.reshape(img.shape)).max() < 1e-11


@pytest.mark.parametrize("mlp", [None, init_mlp(16, seed=3)],
                         ids=["physical", "fused"])
def test_render_worker_count_bit_identity(small_random_scene, mlp):
    s = small_random_scene
    # 70 rows span two coarse blocks, so workers=3 goes through the pool,
    # and each worker embeds the camera for the fusion head itself
    cam = make_orbit_cameras(s.center, 3.0 * s.radius, 1, 0.3, "ring",
                             32, 70, 0.9)[0]
    a, da, ta = render(s, cam, workers=1, mlp=mlp)
    _shutdown_pools()
    b, db, tb = render(s, cam, workers=3, mlp=mlp)
    assert multiprocessing.active_children()
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(da.data, db.data)
    assert np.array_equal(ta.data, tb.data)


def test_composite_fused_streams_split():
    scene = make_random_scene(5, seed=9, spread=0.2, sigma_range=(0.05, 0.12),
                              aniso_max=0.5, background=(0.0, 0.0, 0.0))
    origin = scene.center + np.array([0.0, 0.0, -0.8])
    dirs = np.array([[0.0, 0.0, 1.0], [0.05, 0.0, 1.0]])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    color, depth, final_t, iso, aniso = dense_composite(scene, origin, dirs,
                                                        fused_streams=True)
    # physical color = iso + aniso + background survival (background is black)
    assert np.allclose(color, iso + aniso, atol=1e-12)


def test_termination_epsilon_caps_contributions():
    # a long chain of half-opaque splats: once transmittance drops below
    # epsilon (0.5^10 < 1e-3) nothing farther contributes
    s = make_scene(mu=[(0.0, 0.0, 1.0 + 0.2 * i) for i in range(30)],
                   sigma=0.05, alpha=0.5, l_iso=(1.0, 1.0, 1.0))
    _, _, _, samples = _kernel_ray(s)
    assert all(sm.transmittance_before >= TERMINATION_EPSILON for sm in samples)
    assert len(samples) < 30


@st.composite
def _scene_and_rays(draw):
    """Up to 5 splats near the origin, 1-6 rays from z = -2 toward them."""
    G = draw(st.integers(0, 5))

    def arr(shape, lo, hi):
        return draw(hnp.arrays(np.float64, shape, elements=st.floats(lo, hi)))

    a = arr((G, 3, 3), -1.0, 1.0)
    scale = arr((G, 1, 1), 0.02, 0.5)
    cov = scale * scale * (np.einsum("gij,gkj->gik", a, a) + 0.1 * np.eye(3))
    theta, phi = arr((G,), 0.0, math.pi), arr((G,), -math.pi, math.pi)
    normal = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                       np.cos(theta)], axis=1)
    scene = Scene(mu=arr((G, 3), -0.5, 0.5),
                  cov=0.5 * (cov + np.transpose(cov, (0, 2, 1))),
                  alpha=arr((G,), 1e-3, 1.0), l_iso=arr((G, 3), 0.0, 1.0),
                  l_aniso=arr((G, 3), 0.0, 2.0), normal=normal,
                  g=arr((G,), -0.95, 0.95), background=arr((3,), 0.0, 2.0))
    xy = arr((draw(st.integers(1, 6)), 2), -0.4, 0.4)
    dirs = np.concatenate([xy, np.ones((xy.shape[0], 1))], axis=1)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cfg = RenderConfig(disentangle=draw(st.booleans()),
                       anisotropy_enabled=draw(st.booleans()))
    return scene, np.array([0.0, 0.0, -2.0]), dirs, cfg


@given(_scene_and_rays())
@settings(max_examples=150, deadline=None)
def test_kernel_invariants_on_random_scenes(case):
    scene, origin, dirs, cfg = case
    colors, _, final_t, tape = dense_composite(scene, origin, dirs, cfg, tape=True)
    assert ((final_t >= 0.0) & (final_t <= 1.0)).all()
    for p, (d, color) in enumerate(zip(dirs, colors)):
        samples = kernel_samples(tape, p)
        # color is a convex mix of the background and the contributing splats'
        # colors l_iso + f * l_aniso, so no channel exceeds the largest of them
        bound = scene.background.copy()
        for sm in samples:
            f = float(cfg.anisotropy_enabled)
            if cfg.anisotropy_enabled and cfg.disentangle:
                f = 4.0 * math.pi * phase(d, scene.normal[sm.index], scene.g[sm.index])
            bound = np.maximum(bound, scene.l_iso[sm.index] + f * scene.l_aniso[sm.index])
        assert (color <= bound * (1.0 + 1e-12)).all()
        if samples:
            assert samples[0].transmittance_before == 1.0
        for prev, sm in zip(samples, samples[1:]):
            assert sm.transmittance_before <= prev.transmittance_before
            assert sm.t >= prev.t
        assert all(sm.transmittance_before >= TERMINATION_EPSILON
                   for sm in samples)


@given(_scene_and_rays(), st.sampled_from([0.0, 1.8, 2.0]))
@settings(max_examples=150, deadline=None)
def test_batch_ray_equals_the_ray_alone(case, near):
    scene, origin, dirs, cfg = case
    *batch, tape = dense_composite(scene, origin, dirs, cfg, near,
                                   fused_streams=True, tape=True)
    for p, d in enumerate(dirs):
        *alone, alone_tape = dense_composite(scene, origin, d[None], cfg, near,
                                             fused_streams=True, tape=True)
        for b, a in zip(batch, alone):
            assert np.array_equal(b[p], a[0])
        # the ray's samples, to the bit, whichever rays share its call
        assert kernel_samples(tape, p) == kernel_samples(alone_tape, 0)
        past = ray_slots(tape, p)[tape.n[p]:]
        assert (tape.w[past] == 0.0).all() and (tape.tw[past] == 0.0).all()


_CONFIGS = [RenderConfig(), RenderConfig(disentangle=False),
            RenderConfig(anisotropy_enabled=False), RenderConfig(False, False)]
_CONFIG_IDS = ["default", "no_disentangle", "no_anisotropy", "neither"]


@pytest.mark.parametrize("near", [0.0, 1.8])
@pytest.mark.parametrize("cfg", _CONFIGS, ids=_CONFIG_IDS)
@given(_scene_and_rays())
@settings(max_examples=40, deadline=None)
def test_taped_and_untaped_calls_return_the_same_bits(cfg, near, case):
    # a taped call builds the values it keeps in arrays of their own, an
    # untaped one in the rows of the stack it sums
    scene, origin, dirs, _ = case
    for fused_streams in (False, True):
        untaped = dense_composite(scene, origin, dirs, cfg, near, fused_streams)
        *taped, _ = dense_composite(scene, origin, dirs, cfg, near, fused_streams,
                                    tape=True)
        assert len(taped) == len(untaped) == (5 if fused_streams else 3)
        for a, b in zip(taped, untaped):
            assert a.tobytes() == b.tobytes()


def test_kernel_working_set_per_live_slot():
    # a block of a scene built like the `render` benchmark's: an untaped
    # call holds about ten [N] arrays at its peak, the stack's five rows
    # among them
    scene = make_random_scene(2000, seed=2029, spread=0.5, sigma_range=(0.01, 0.04))
    cam = make_orbit_cameras(scene.center, 2.5 * scene.radius, 8, 0.0,
                             "fibonacci_sphere", 128, 128, 0.9)[0]
    ps = next(_pair_sets(scene, cam, _view_grids(cam)[:1]))
    dx, dy, dz = (a.ravel() for a in ps.dirs)
    n = ps.sub.size
    assert n >= 10_000
    live = [(ps.sub, ps.ts, ps.q, ps.order, ps.count.ravel())]
    del ps
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _composite(scene, RenderConfig(), live.pop(), dx, dy, dz)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 100 * n


@given(_scene_and_rays(), st.sampled_from([0.0, 1.8]), st.data())
@settings(max_examples=150, deadline=None)
def test_ray_subset_composites_like_the_full_batch(case, near, data):
    # the rank-major layout orders a call's rays by slot count, so a subset
    # of the rays, in any order, with their pairs, lays them out differently
    scene, origin, dirs, cfg = case
    keep = data.draw(st.lists(st.integers(0, len(dirs) - 1), min_size=1,
                              unique=True))
    full = dense_composite(scene, origin, dirs, cfg, near, fused_streams=True)
    part = dense_composite(scene, origin, dirs[keep], cfg, near, fused_streams=True)
    for f, p in zip(full, part):
        assert f[keep].tobytes() == p.tobytes()


def test_ray_bits_do_not_depend_on_a_longer_ray_in_the_call():
    # a splat exactly at the origin sits at t = -0.0 on a ray whose
    # components are all negative, so that ray's depth sum is -0.0; adding
    # the +0.0 of padding up to a longer ray's count would make it +0.0
    scene = make_scene(mu=[(0.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, 0.0, -2.0)],
                       sigma=0.05, alpha=0.5)
    dirs = np.array([-np.ones(3) / math.sqrt(3.0), [0.0, 0.0, -1.0]])
    both = dense_composite(scene, np.zeros(3), dirs)
    alone = dense_composite(scene, np.zeros(3), dirs[:1])
    assert np.signbit(alone[1][0])
    for b, a in zip(both, alone):
        assert b[:1].tobytes() == a.tobytes()


_REFERENCE_KINDS = ("random", "inside", "straddle", "chain", "edge", "twin")


def _reference_scene(rng, kinds, cam, edge):
    """Splats of `kinds` (`_reference_case`) for cam's frame."""
    pos = cam.position
    mus, covs, alphas = [], [], []
    for kind in kinds:
        d = pixel_dir(cam, rng.integers(0, cam.height), rng.integers(0, cam.width))
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        sigma = np.exp(rng.uniform(np.log(0.05), np.log(0.4), 3))
        alpha = rng.uniform(0.05, 0.95)
        if kind == "twin" and mus:
            # the last splat's geometry: its t ties with it on every ray
            mus.append(mus[-1])
            covs.append(covs[-1])
            alphas.append(alpha)
            continue
        if kind == "inside":
            sigma = rng.uniform(0.5, 2.0, 3)
            mu = pos + rng.normal(0.0, 0.1, 3) * sigma.min()
        elif kind == "straddle":
            sigma = rng.uniform(0.3, 1.0, 3)
            mu = (pos + rng.uniform(-0.3, 0.3) * sigma.min() * cam.forward
                  + rng.uniform(-1.0, 1.0) * cam.right + rng.uniform(-1.0, 1.0) * cam.up)
        elif kind == "chain":
            # 12 half-opaque splats on the ray, 4 sigma apart: it stops at
            # the 10th (0.5^10 < TERMINATION_EPSILON)
            sigma = np.full(3, rng.uniform(0.01, 0.05))
            mu = pos + (rng.uniform(1.0, 2.0) + 4.0 * sigma[0] * np.arange(12))[:, None] * d
            alpha = 0.5
        elif kind == "edge":
            t = rng.uniform(0.5, 4.0)
            sigma = np.full(3, rng.uniform(0.01, 0.1) * t)
            off = np.cross(d, rng.normal(size=3))
            mu = pos + t * d + edge * sigma[0] * off / np.linalg.norm(off)
        else:
            mu = pos + rng.uniform(0.2, 4.0) * d + rng.normal(0.0, 0.3, 3)
        mu = np.reshape(mu, (-1, 3))
        mus += list(mu)
        covs += [rot @ np.diag(sigma * sigma) @ rot.T] * len(mu)
        alphas += [alpha] * len(mu)
    G = len(mus)
    normal = rng.normal(size=(G, 3))
    return Scene(mu=np.array(mus), cov=np.array(covs), alpha=np.array(alphas),
                 l_iso=rng.uniform(0.0, 1.0, (G, 3)),
                 l_aniso=rng.uniform(0.0, 0.5, (G, 3)),
                 normal=normal / np.linalg.norm(normal, axis=1, keepdims=True),
                 g=rng.uniform(-0.8, 0.8, G), background=rng.uniform(0.0, 1.0, 3))


@st.composite
def _reference_case(draw):
    """A camera's small frame, both `RenderConfig` toggles, and splats of
    the drawn kinds: in front of the camera, containing it, across its
    plane, a chain of half-opaque splats down one pixel's ray that runs
    past TERMINATION_EPSILON, a splat 3 + or - 1e-6 sigma off one pixel's
    ray, or a copy of the last splat's geometry, whose t ties with it
    exactly. Not at exactly 3 sigma: there rounding alone decides whether
    the pair is live (`_pairs_case`), and the reference rounds its own way."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(_REFERENCE_KINDS), min_size=1, max_size=6))
    edge = draw(st.sampled_from([3.0 - 1e-6, 3.0 + 1e-6]))
    pos = rng.normal(0.0, 1.0, 3)
    cam = Camera.look_at(pos, pos + rng.normal(0.0, 1.0, 3), rng.uniform(0.3, 1.5),
                         draw(st.integers(1, 8)), draw(st.integers(1, 8)),
                         near=draw(st.sampled_from([1e-3, 0.5])))
    cfg = RenderConfig(disentangle=draw(st.booleans()),
                       anisotropy_enabled=draw(st.booleans()))
    return _reference_scene(rng, kinds, cam, edge), cam, cfg


@given(_reference_case())
@settings(max_examples=150, deadline=None)
def test_render_matches_the_reference(case):
    # the full-image path against a model that shares no code with it; a
    # dense kernel call over every pair of the frame's rays lists the same
    # samples, in the same order, as the reference's plain loop
    scene, cam, cfg = case
    color, depth, trans = render(scene, cam, cfg)
    ref_color, ref_depth, ref_trans, ref_samples = SplatReference(scene, cfg).image(cam)
    assert np.abs(color.data - ref_color).max() <= 1e-11
    assert np.abs(depth.data[..., 0] - ref_depth).max() <= 1e-11
    assert np.abs(trans.data[..., 0] - ref_trans).max() <= 1e-11
    rows, cols = np.divmod(np.arange(cam.height * cam.width, dtype=np.float64), cam.width)
    tape = dense_composite(scene, cam.position, np.stack(cam.pixel_dirs(rows, cols), axis=1),
                           cfg, cam.near, tape=True)[-1]
    for p, expect in enumerate(ref_samples):
        got = kernel_samples(tape, p)
        assert [s.index for s in got] == [s.index for s in expect]
        assert np.allclose(np.array(got, dtype=float).reshape(-1, 4),
                           np.array(expect, dtype=float).reshape(-1, 4),
                           rtol=0.0, atol=1e-11)


def test_reference_matches_the_model_by_hand():
    # the oracle itself against values worked out from the model: on the
    # one pixel's ray, a splat dead on it at t = 2 (Henyey-Greenstein
    # lobe (1 - g^2) / (1 + g)^3 = 2/9 at g = 0.5 facing the ray), one 2
    # sigma off it at t = 3 (weight alpha e^-2), one 3 (1 + 1e-6) sigma
    # off it (past the cutoff) and one behind the camera (before near)
    scene = make_scene(mu=[[2.0, 0.0, 0.0], [3.0, 0.2, 0.0],
                           [4.0, 0.3 * (1.0 + 1e-6), 0.0], [-1.0, 0.0, 0.0]],
                       alpha=[0.6, 0.5, 0.9, 0.9],
                       l_iso=[[0.2, 0.4, 0.6], [1.0, 0.0, 0.0], [1.0] * 3, [1.0] * 3],
                       l_aniso=[[0.3] * 3, [0.0, 0.1, 0.0], [0.0] * 3, [0.0] * 3],
                       normal=[-1.0, 0.0, 0.0], g=[0.5, 0.0, 0.0, 0.0],
                       background=(0.1, 0.1, 0.1))
    cam = Camera.look_at(np.zeros(3), [1.0, 0.0, 0.0], 0.5, 1, 1)
    wb = 0.5 * math.exp(-2.0)
    near = np.array([0.2, 0.4, 0.6]) + 2.0 / 9.0 * 0.3
    far = np.array([1.0, 0.1, 0.0])
    expect_color = 0.6 * near + 0.4 * wb * far + 0.4 * (1.0 - wb) * 0.1
    expect_depth = (0.6 * 2.0 + 0.4 * wb * 3.0) / (0.6 + 0.4 * wb)
    color, depth, trans, samples = SplatReference(scene).image(cam)
    assert np.allclose(color[0, 0], expect_color, rtol=0.0, atol=1e-14)
    assert depth[0, 0] == pytest.approx(expect_depth, rel=1e-14)
    assert trans[0, 0] == pytest.approx(0.4 * (1.0 - wb), rel=1e-14)
    assert np.allclose(np.array(samples[0], dtype=float),
                       [[0, 2.0, 0.6, 1.0], [1, 3.0, wb, 0.4]], rtol=0.0, atol=1e-14)
    got = render(scene, cam)
    assert np.allclose(got[0].data[0, 0], expect_color, rtol=0.0, atol=1e-12)
    assert got[1].data[0, 0, 0] == pytest.approx(expect_depth, rel=1e-12)


_SPLAT_KINDS = ("random", "needle", "large", "inside", "behind", "straddle",
                "edge", "far")


@st.composite
def _pairs_case(draw):
    """A camera, a grid of its pixels (any offset, any aspect) and splats of
    the drawn kinds: anywhere around the camera, needle-thin, very large,
    containing the camera, behind it, across its plane, or 3 - 1e-9 or exactly
    3 sigma off one pixel's ray, so that the pair sits on the cutoff edge of
    a bounded conic (at 3 sigma it is live or not by rounding alone). A far
    splat is thin, anisotropic and 300 to 1e6 of its thinnest sigma from
    the camera, 3 - 1e-9 sigma off one pixel's ray: the kernel's q then
    rounds by several ulps of cg (up to ~1e12), far more than the 6e-9 by
    which the pair sits inside the cutoff, so whether it is live is left to
    the brute force."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(_SPLAT_KINDS), min_size=1, max_size=8))
    H, W = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    r0, c0 = draw(st.integers(0, H - 1)), draw(st.integers(0, W - 1))
    rows = np.arange(r0, draw(st.integers(r0 + 1, H)), dtype=np.float64)
    cols = np.arange(c0, draw(st.integers(c0 + 1, W)), dtype=np.float64)
    pos = rng.normal(0.0, 2.0, 3)
    cam = Camera.look_at(pos, pos + rng.normal(0.0, 1.0, 3),
                         rng.uniform(0.2, 2.5), W, H,
                         near=draw(st.sampled_from([1e-3, 0.5])))
    mus, covs, edges = [], [], []
    for n, kind in enumerate(kinds):
        rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        sigma = np.exp(rng.uniform(np.log(1e-3), np.log(2.0), 3))
        lateral = (rng.uniform(-3.0, 3.0) * cam.right
                   + rng.uniform(-3.0, 3.0) * cam.up)
        mu = pos + rng.uniform(-2.0, 4.0) * cam.forward + lateral
        if kind == "needle":
            sigma = np.array([rng.uniform(0.5, 3.0), 1e-3, 2e-3])
        elif kind == "large":
            sigma = np.exp(rng.uniform(0.0, np.log(10.0), 3))
        elif kind == "inside":
            sigma = rng.uniform(0.5, 3.0, 3)
            mu = pos + rng.normal(0.0, 0.1, 3) * sigma.min()
        elif kind == "behind":
            mu = pos - rng.uniform(0.2, 3.0) * cam.forward + lateral
        elif kind == "straddle":
            sigma = rng.uniform(0.3, 2.0, 3)
            mu = pos + rng.uniform(-0.3, 0.3) * sigma.min() * cam.forward + lateral
        elif kind == "edge":
            i, j = rng.integers(0, rows.size), rng.integers(0, cols.size)
            d = np.array(cam.pixel_dirs(rows[i], cols[j]), dtype=np.float64)
            t = rng.uniform(0.5, 5.0)
            sigma = np.full(3, rng.uniform(0.01, 0.1) * t * float(d @ cam.forward))
            off = np.cross(d, rng.normal(size=3))
            reach = draw(st.sampled_from([3.0 - 1e-9, 3.0]))
            mu = pos + t * d + reach * sigma[0] * off / np.linalg.norm(off)
            edges.append((i * cols.size + j, n, reach < 3.0))
        elif kind == "far":
            i, j = rng.integers(0, rows.size), rng.integers(0, cols.size)
            d = np.array(cam.pixel_dirs(rows[i], cols[j]), dtype=np.float64)
            sigma = (np.exp(rng.uniform(np.log(1e-5), np.log(1e-2)))
                     * np.exp(rng.uniform(0.0, np.log(100.0), 3)))
            t = sigma.min() * np.exp(rng.uniform(np.log(300.0), np.log(1e6)))
            # an offset whose Mahalanobis closest approach to the ray is
            # itself: Sigma^-1-orthogonal to d, scaled to 3 - 1e-9 sigma
            inv = rot @ np.diag(1.0 / (sigma * sigma)) @ rot.T
            off = rng.normal(size=3)
            off -= (off @ inv @ d) / (d @ inv @ d) * d
            mu = pos + t * d + (3.0 - 1e-9) / math.sqrt(off @ inv @ off) * off
        mus.append(mu)
        covs.append(rot @ np.diag(sigma * sigma) @ rot.T)
    return make_scene(mu=np.array(mus), cov=np.array(covs)), cam, rows, cols, edges


@given(_pairs_case())
@settings(max_examples=400, deadline=None)
def test_pairs_holds_every_live_pair_once(case):
    scene, cam, rows, cols, edges = case
    ot = _origin_terms(scene, cam.position)
    ray, sub = _pairs(_conics(scene, cam, ot), cam, rows, cols)
    P, G = rows.size * cols.size, scene.alpha.size
    assert ((ray >= 0) & (ray < P)).all() and ((sub >= 0) & (sub < G)).all()
    key = sub * P + ray
    assert np.unique(key).size == key.size
    # brute force over every ray x splat pair of the grid
    dx, dy, dz = (a.ravel() for a in cam.pixel_dirs(rows[:, None], cols[None, :]))
    all_ray, all_sub, (ts, q) = every_pair(scene, cam.position, dx, dy, dz)
    live = (q <= 9.0) & (ts >= cam.near)
    assert all(live[n * P + r] for r, n, inside in edges if inside)
    assert np.isin(all_sub[live] * P + all_ray[live], key).all()


def test_pairs_enumerates_almost_only_live_pairs(monkeypatch):
    # the `render` benchmark's recipe on a few frames: 2000 splats a few
    # pixels across at 128^2. A conic grown by a pixel's width instead of a
    # rounding-sized margin enumerated a third more pairs than were live
    scene = make_random_scene(2000, seed=123, spread=0.5,
                              sigma_range=(0.01, 0.04))
    cams = make_orbit_cameras(scene.center, 2.5 * scene.radius, 4, 0.0,
                              "fibonacci_sphere", 128, 128, 0.9)
    counts = []
    ray_geometry = splat360.renderer._ray_geometry

    def counted(*args):
        ts, q = ray_geometry(*args)
        counts.append((ts.size, np.count_nonzero((q <= 9.0) & (ts >= near))))
        return ts, q

    monkeypatch.setattr(splat360.renderer, "_ray_geometry", counted)
    for cam in cams:
        near = cam.near
        render(scene, cam)
    pairs, live = np.sum(counts, axis=0)
    assert 0 < live <= pairs <= 1.001 * live


@given(st.lists(st.integers(0, 12), max_size=9), st.sampled_from([5, 11]),
       st.data())
@settings(max_examples=200, deadline=None)
def test_ray_totals_equal_the_running_sum_at_each_last_slot(n, rows, data):
    # n[r] slots for ray r: rays with none, a single ray, no ray at all; the
    # values include signed zeros, whose sums show the order of additions
    n = np.array(n, dtype=np.intp)
    ray = np.repeat(np.arange(n.size), n)
    rank = np.arange(ray.size) - np.repeat(np.cumsum(n) - n, n)
    slot, offsets, rays = _rank_major(ray, rank, n)
    values = st.one_of(st.sampled_from([0.0, -0.0]),
                       st.floats(-1e3, 1e3, allow_subnormal=True))
    a = data.draw(hnp.arrays(np.float64, (rows, ray.size), elements=values))
    # a plain running sum along each ray, front to back from its first slot
    expect = np.zeros((rows, n.size))
    running = np.empty_like(a)
    for r in range(n.size):
        for k, s in enumerate(slot[ray == r]):
            expect[:, r] = a[:, s] if k == 0 else expect[:, r] + a[:, s]
            running[:, s] = expect[:, r]
    # the totals are summed in a's rank-0 run; every later slot stays as it was
    scanned = a.copy()
    width = offsets[1] if len(offsets) > 1 else 0
    assert _ray_totals(a, offsets, rays).tobytes() == expect.tobytes()
    assert a[:, width:].tobytes() == scanned[:, width:].tobytes()
    _scan_ranks(np.add, scanned, offsets)
    assert scanned.tobytes() == running.tobytes()


@st.composite
def _ray_order_case(draw):
    """Splat-major pairs as `_pairs` emits them (sub ascending, each splat's
    rays ascending) on up to 8 of P rays, up to a few thousand pairs, with
    t drawn from a small pool that spans one binade or many (0.0 next to
    1e3): exact ties, +-0.0, and siblings, t that share a pool value's t
    field in `_ray_order`'s key and differ from it only in the `shift` low
    bits the key drops (which depend on the span and on N). The first and
    last pair hold the pool's smallest and largest t, so the call's span,
    and its cut, are the pool's; siblings stay between them and land on
    either side of their pool value in enumeration order."""
    k = draw(st.integers(1, 12))
    P = draw(st.sampled_from([1, 2, 2**k, 2**k + 1, 4096]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rays = np.sort(rng.choice(P, min(P, draw(st.integers(1, 8))), replace=False))
    splats = draw(st.one_of(st.integers(0, 40), st.integers(500, 3000)))
    hits = rng.random((splats, rays.size)) < rng.uniform(0.2, 1.0)
    sub, col = np.nonzero(hits)
    ray = rays[col]
    m = draw(st.integers(1, 6))
    if draw(st.booleans()):
        pool = np.ldexp(1.0 + rng.random(m), draw(st.integers(-8, 9)))
    else:
        pool = np.concatenate([10.0 ** rng.uniform(-6.0, 3.0, m), [0.0, 1e3]])
    if draw(st.booleans()):
        pool = np.append(pool, -0.0)
    ts = rng.choice(pool, ray.size)
    if ray.size:
        bits = (pool + 0.0).view(np.int64)
        lo, hi = int(bits.min()), int(bits.max())
        ts[0], ts[-1] = pool[bits.argmin()], pool[bits.argmax()]
        rb = max((P - 1).bit_length(), 1)
        ib = max((ray.size - 1).bit_length(), 1)
        shift = max((hi - lo).bit_length() - (63 - rb - ib), 0)
        pat = (ts + 0.0).view(np.int64)[1:-1]
        field = (pat - lo) >> shift << shift
        low = rng.integers(0, 2**shift, pat.size, dtype=np.int64)
        sibling = np.minimum(lo + field + low, hi).view(np.float64)
        ts[1:-1] = np.where(rng.random(pat.size) < 0.5, sibling, ts[1:-1])
    return ray, sub, ts, P


@given(_ray_order_case())
@settings(max_examples=400, deadline=None)
def test_ray_order_equals_lexsort_on_splat_major_pairs(case):
    ray, sub, ts, P = case
    order = _ray_order(ray, sub, ts, P)
    assert order.tolist() == np.lexsort((sub, ts, ray)).tolist()


@pytest.mark.parametrize("farther, lexsorted", [(np.nextafter(1.0, 2.0), [2]),
                                                (1.0, [])])
def test_ray_order_resorts_only_the_rays_whose_t_fall(farther, lexsorted,
                                                      monkeypatch):
    # 0.0 next to 1e3 leaves this call's key 3 bits short of t, so splats 0
    # and 1 share ray 0's t field: one ulp apart they fall in enumeration
    # order and ray 0 alone is re-sorted; as an exact tie they do not fall
    ray = np.array([0, 0, 1, 1])
    sub = np.arange(4)
    ts = np.array([farther, 1.0, 0.0, 1e3])
    lexsort, sizes = np.lexsort, []
    monkeypatch.setattr(np, "lexsort",
                        lambda keys: sizes.append(keys[0].size) or lexsort(keys))
    order = _ray_order(ray, sub, ts, 2)
    assert sizes == lexsorted
    assert order.tolist() == lexsort((sub, ts, ray)).tolist()


def test_ray_order_sorts_benchmark_like_blocks_without_lexsort(monkeypatch):
    # the blocks of 4 frames of the scene test_kernel_working_set_per_live_slot
    # builds, like the `render` benchmark workload's: no t falls in a key's
    # tie, so no ray is re-sorted
    scene = make_random_scene(2000, seed=2029, spread=0.5, sigma_range=(0.01, 0.04))
    cams = make_orbit_cameras(scene.center, 2.5 * scene.radius, 8, 0.0,
                              "fibonacci_sphere", 128, 128, 0.9)[:4]
    calls = []
    monkeypatch.setattr(splat360.renderer, "_ray_order",
                        lambda *args: calls.append(args) or _ray_order(*args))
    for cam in cams:
        for _ in _pair_sets(scene, cam, _view_grids(cam)):
            pass
    monkeypatch.undo()
    assert len(calls) == 16
    lexsort, resorts = np.lexsort, []
    monkeypatch.setattr(np, "lexsort", lambda keys: resorts.append(keys) or lexsort(keys))
    for ray, sub, ts, P in calls:
        assert ts.size >= 10_000
        order = _ray_order(ray, sub, ts, P)
        assert order.tolist() == lexsort((sub, ts, ray)).tolist()
    assert resorts == []


@given(_scene_and_rays(), st.sampled_from([0.0, 1.8]), st.data())
@settings(max_examples=150, deadline=None)
def test_live_pairs_of_every_pair_composite_like_the_live_alone(case, near, data):
    # a random subset of the pairs is made dead, past the cutoff or before
    # the near plane, so the call over every pair gathers the live ones; the
    # call over the live pairs alone keeps its arrays as they are
    scene, origin, dirs, cfg = case
    dx, dy, dz = (np.ascontiguousarray(dirs[:, i]) for i in range(3))
    ray, sub, (ts, q) = every_pair(scene, origin, dx, dy, dz)
    kill = data.draw(hnp.arrays(np.int8, ray.size, elements=st.integers(0, 2)))
    q[kill == 1] = data.draw(st.floats(9.0, 1e6, exclude_min=True))
    ts[kill == 2] = np.nextafter(near, -np.inf) - data.draw(st.floats(0.0, 10.0))
    live = (q <= 9.0) & (ts >= near)
    everything = _live_pairs(ray, sub, (ts, q), near, dx.size)
    kept = sub[live], ts[live], q[live]
    alone = _live_pairs(ray[live], kept[0], kept[1:], near, dx.size)
    assert all(a is b for a, b in zip(alone, kept))
    for a, b in zip(everything, alone):
        assert a.tobytes() == b.tobytes()
    full, part = (_composite(scene, cfg, pairs, dx, dy, dz, fused_streams=True)
                  for pairs in (everything, alone))
    for f, p in zip(full, part):
        assert f.tobytes() == p.tobytes()


def test_conics_run_once_per_payload(monkeypatch):
    # a 128^2 frame is four 64^2 blocks, and one worker renders them all
    scene = make_random_scene(30, seed=3, spread=0.3, sigma_range=(0.04, 0.1))
    cam = make_orbit_cameras(scene.center, 2.5 * scene.radius, 1, 0.3, "ring",
                             128, 128, 0.9)[0]
    calls = []
    conics = splat360.renderer._conics

    def counted(*args):
        calls.append(args)
        return conics(*args)

    monkeypatch.setattr(splat360.renderer, "_conics", counted)
    render(scene, cam, workers=1)
    assert len(_view_grids(cam)) == 4
    assert len(calls) == 1


def test_tape_holds_only_each_rays_live_splats():
    # 40 small splats on a line, one ray through each: every splat is live on
    # some ray of the batch, but each ray sees one; a 41st ray runs down a
    # chain of 30 half-opaque splats and terminates at the 10th
    # (0.5^10 < TERMINATION_EPSILON)
    xs = np.linspace(-0.8, 0.8, 40)
    line = np.stack([xs, np.zeros(40), np.full(40, 2.0)], axis=1)
    up = np.array([0.0, 0.6, 0.8])
    chain = np.array([(1.0 + 0.2 * i) * up for i in range(30)])
    scene = make_scene(mu=np.concatenate([line, chain]), sigma=0.01, alpha=0.5)
    dirs = np.concatenate([line / np.linalg.norm(line, axis=1, keepdims=True),
                           up[None]])
    tape = dense_composite(scene, np.zeros(3), dirs, tape=True)[-1]
    ref = SplatReference(scene)
    counts = [len(ref.ray(np.zeros(3), d)[3]) for d in dirs]
    assert counts == [1] * 40 + [10]
    assert tape.n.tolist() == counts
    # the chain's ray holds all 30 of its live splats, in t order
    assert tape.tw.shape == (70,)
    assert np.bincount(tape.ray, minlength=41).tolist() == [1] * 40 + [30]
    chain_slots = ray_slots(tape, 40)
    assert tape.idx[chain_slots].tolist() == list(range(40, 70))
    # every slot up to and including its ray's stop contributes; the 20
    # slots past the chain's stop have weight exactly zero
    kept, past = chain_slots[:10], chain_slots[10:]
    others = tape.by_ray[tape.ray[tape.by_ray] != 40]
    for s in (kept, others):
        assert (tape.tw[s] > 0.0).all() and (tape.Tb[s] >= TERMINATION_EPSILON).all()
    assert (tape.w[past] == 0.0).all() and (tape.tw[past] == 0.0).all()
    assert (tape.Tb[past] < TERMINATION_EPSILON).all()
    # rank 0 holds all 41 rays, the chain's ray first; ranks 1-29 only it
    assert tape.offsets == [0, 41, *range(42, 71)]
    assert tape.ray[0] == 40 and (tape.ray[41:] == 40).all()
    assert tape.ray[1:41].tolist() == list(range(40))


@pytest.mark.parametrize("fused_streams", [False, True])
@pytest.mark.parametrize("cfg", _CONFIGS, ids=_CONFIG_IDS)
def test_empty_tape_leaves_the_same_fields_none(cfg, fused_streams):
    # a backward pass reads the same fields whether or not any splat reaches
    # the patch (K = 0)
    scene = make_scene(mu=(0.0, 0.0, 2.0))
    full, empty = (dense_composite(scene, np.zeros(3), np.array([d]), cfg, 0.0,
                                   fused_streams, tape=True)[-1]
                   for d in ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]))
    assert full.w.shape == (1,) and empty.w.shape == (0,)
    for field in dataclasses.fields(full):
        assert ((getattr(empty, field.name) is None)
                == (getattr(full, field.name) is None)), field.name


def test_coincident_splats_composite_in_index_order():
    # splats 1 and 2 share center and covariance, so their t ties exactly;
    # splat 0 is live on the batch's second ray only
    red, green = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    scene = make_scene(mu=[(0.5, 0.0, 2.0), (0.0, 0.0, 2.0), (0.0, 0.0, 2.0)],
                       sigma=0.05, alpha=0.5, l_iso=[(0.0, 0.0, 1.0), red, green])
    dirs = np.array([[0.0, 0.0, 1.0], [0.5, 0.0, 2.0]])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    color, *_ = dense_composite(scene, np.zeros(3), dirs)
    assert color[0].tolist() == [0.5, 0.25, 0.0]
    swapped = dataclasses.replace(scene, l_iso=scene.l_iso[[0, 2, 1]])
    color_b, *_ = dense_composite(swapped, np.zeros(3), dirs)
    assert color_b[0].tolist() == [0.25, 0.5, 0.0]
    assert [s.index for s in _kernel_ray(scene)[3]] == [1, 2]
    # four piles of 50 coincident splats, their indices interleaved: a sort
    # that leaves the order of equal t open scrambles runs like these
    piles = make_scene(mu=[(0.0, 0.0, 1.0 + 0.5 * (i % 4)) for i in range(200)],
                       sigma=0.05, alpha=0.01)
    assert [s.index for s in _kernel_ray(piles)[3]] == \
        [i for pile in range(4) for i in range(pile, 200, 4)]


@pytest.mark.parametrize("cfg", [RenderConfig(), RenderConfig(disentangle=False),
                                 RenderConfig(anisotropy_enabled=False)],
                         ids=["default", "no_disentangle", "no_anisotropy"])
def test_render_with_mlp_fuses_each_pixels_streams(cfg):
    scene = make_random_scene(30, seed=5, spread=0.3, sigma_range=(0.08, 0.16),
                              aniso_max=0.5)
    # 70 rows span two coarse blocks, so workers=2 goes through the pool
    cam = make_orbit_cameras(scene.center, 2.0 * scene.radius, 1, 0.3, "ring",
                             20, 70, 0.5)[0]
    mlp = init_mlp(d=16, seed=4)
    rows, cols = np.divmod(np.arange(70 * 20, dtype=np.float64), 20.0)
    dirs = np.stack(cam.pixel_dirs(rows, cols), axis=1)
    _, depth, final_t, iso, aniso = dense_composite(scene, cam.position, dirs, cfg,
                                                    cam.near, fused_streams=True)
    assert (iso > 0.0).any()
    e_vec = embed_camera(cam, scene.center, scene.radius, mlp.d)
    expect = np.array([fuse_forward_batch(fusion_input(i, a, e_vec, d), mlp)[0]
                       for i, a, d in zip(iso, aniso, dirs)])
    for workers in (1, 2):
        color, dimg, timg = render(scene, cam, cfg, workers=workers, mlp=mlp)
        assert np.array_equal(color.data.reshape(-1, 3), expect)
        # depth and transmittance stay physical
        assert np.array_equal(dimg.data.ravel(), depth)
        assert np.array_equal(timg.data.ravel(), final_t)


@pytest.mark.parametrize("fused", [False, True], ids=["physical", "fused"])
def test_render_bits_do_not_depend_on_the_block_size(fused, monkeypatch):
    # each block is one kernel call, and a 70x90 frame cuts 16-, 32- and
    # 64-pixel blocks into different rays per call and partial blocks
    scene = make_random_scene(60, seed=6, spread=0.3, sigma_range=(0.04, 0.12),
                              aniso_max=0.5)
    cam = make_orbit_cameras(scene.center, 2.5 * scene.radius, 1, 0.3, "ring",
                             90, 70, 0.9)[0]
    mlp = init_mlp(d=16, seed=2) if fused else None
    images = {}
    for tile in (16, 32, 64):
        monkeypatch.setattr(splat360.renderer, "COARSE_TILE", tile)
        images[tile] = b"".join(img.data.tobytes()
                                for img in render(scene, cam, mlp=mlp))
    assert images[16] == images[64] and images[32] == images[64]
