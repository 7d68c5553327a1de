"""Splat compositing kernel: phase factor, per-ray weights, full renders."""
import dataclasses
import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from splat360 import (Camera, Ray, RenderConfig, Scene, composite_ray,
                      embed_camera, fuse, init_mlp, make_orbit_cameras,
                      make_random_scene, phase, render, render_rays)
from conftest import make_scene
from splat360.renderer import (TERMINATION_EPSILON, _composite, _origin_terms,
                               _ray_geometry, _shutdown_pools)

Z_RAY = Ray(np.zeros(3), np.array([0.0, 0.0, 1.0]))


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


def test_phase_rejects_unit_g():
    d = np.array([0.0, 0.0, 1.0])
    for bad in (1.0, -1.0, 1.3):
        with pytest.raises(ValueError):
            phase(d, d, bad)


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
    (sm,) = composite_ray(make_scene(mu=(0.0, 0.0, 2.0), alpha=0.8), Z_RAY)[3]
    assert sm.t == pytest.approx(2.0, abs=1e-12)
    assert sm.weight == pytest.approx(0.8, abs=1e-12)


def test_weight_one_sigma_closest_approach():
    sigma = 0.25
    s = make_scene(mu=(sigma, 0.0, 2.0), sigma=sigma, alpha=1.0)
    (sm,) = composite_ray(s, Z_RAY)[3]
    assert sm.weight == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert sm.t == pytest.approx(2.0, abs=1e-12)


def test_weight_behind_origin_is_zero():
    assert composite_ray(make_scene(mu=(0.0, 0.0, -2.0)), Z_RAY)[3] == []


def test_weight_culled_past_cutoff():
    sigma = 0.1
    far = make_scene(mu=(3.5 * sigma, 0.0, 2.0), sigma=sigma, alpha=1.0)
    assert composite_ray(far, Z_RAY)[3] == []
    near = make_scene(mu=(2.9 * sigma, 0.0, 2.0), sigma=sigma, alpha=1.0)
    (sm,) = composite_ray(near, Z_RAY)[3]
    assert sm.weight == pytest.approx(math.exp(-0.5 * 2.9 ** 2), rel=1e-12)


def test_render_keeps_a_splat_just_inside_the_cutoff():
    # the cone cull and the kernel read one cutoff, so a splat 2.99 sigma
    # off the only ray of a 1x1 frame is rendered exactly as composite_ray
    # composites it
    sigma = 0.1
    s = make_scene(mu=(2.99 * sigma, 0.0, 2.0), sigma=sigma, alpha=1.0,
                   l_iso=(0.3, 0.6, 0.9))
    cam = Camera.look_at(np.zeros(3), np.array([0.0, 0.0, 1.0]), 0.9, 1, 1)
    color, depth, trans = render(s, cam)
    c, dep, ft, samples = composite_ray(s, Z_RAY, near=cam.near)
    assert len(samples) == 1
    assert np.array_equal(color.data[0, 0], c)
    assert depth.data[0, 0, 0] == dep and trans.data[0, 0, 0] == ft


def test_composite_empty_scene():
    s = make_scene(mu=np.zeros((0, 3)), background=(0.2, 0.4, 0.6))
    color, depth, final_t, samples = composite_ray(s, Z_RAY)
    assert np.array_equal(color, [0.2, 0.4, 0.6])
    assert final_t == 1.0 and depth == 0.0 and samples == []


def test_composite_single_opaque_splat():
    s = make_scene(mu=(0.0, 0.0, 2.0), alpha=1.0, l_iso=(0.3, 0.6, 0.9))
    color, depth, final_t, samples = composite_ray(s, Z_RAY)
    assert np.allclose(color, [0.3, 0.6, 0.9], atol=1e-15)
    assert final_t == 0.0
    assert depth == pytest.approx(2.0, abs=1e-12)
    assert len(samples) == 1 and samples[0].weight == 1.0


def test_composite_two_half_weights_hand_oracle():
    # w1 = w2 = 0.5: contributions 0.5 and T2*w2 = 0.5*0.5, final T 0.25
    s = make_scene(mu=[(0.0, 0.0, 1.0), (0.0, 0.0, 2.0)], alpha=0.5,
                   l_iso=[(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
    color, _, final_t, samples = composite_ray(s, Z_RAY)
    assert np.allclose(color, [0.5, 0.25, 0.0], atol=1e-12)
    assert final_t == pytest.approx(0.25, abs=1e-12)
    assert [sm.index for sm in samples] == [0, 1]
    assert samples[1].transmittance_before == pytest.approx(0.5, abs=1e-12)


def test_samples_sorted_with_consistent_transmittance():
    scene = make_random_scene(12, seed=2, spread=0.2, sigma_range=(0.05, 0.15))
    origin = scene.center + np.array([0.0, 0.0, -1.0])
    d = scene.center - origin
    d /= np.linalg.norm(d)
    _, _, final_t, samples = composite_ray(scene, Ray(origin, d))
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
        _, _, final_t, samples = composite_ray(scene, Ray(origin, d))
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
    along = Ray(np.array([0.0, 0.0, -1.0]), np.array([0.0, 0.0, 1.0]))
    opposite = Ray(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]))
    ca, *_ = composite_ray(s, along)
    cb, *_ = composite_ray(s, opposite)
    assert not np.allclose(ca, cb)
    cfg = RenderConfig(anisotropy_enabled=False)
    ca2, *_ = composite_ray(s, along, cfg)
    cb2, *_ = composite_ray(s, opposite, cfg)
    assert np.array_equal(ca2, cb2)


def test_final_t_monotone_in_scene_size():
    rng = np.random.default_rng(31)
    mu = [(rng.normal(scale=0.05), rng.normal(scale=0.05), 1.0 + 0.3 * i)
          for i in range(6)]
    prev = 1.0
    for k in range(1, 7):
        _, _, final_t, _ = composite_ray(make_scene(mu=mu[:k], alpha=0.5), Z_RAY)
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


def test_render_matches_composite_ray(small_random_scene, ring_camera):
    color, depth, trans = render(small_random_scene, ring_camera)
    rows = np.array([3.0, 17.0])
    cols = np.array([5.0, 29.0])
    for rr in rows:
        for cc in cols:
            dx, dy, dz = ring_camera.pixel_dirs(np.array([rr]), np.array([cc]))
            d = np.array([dx[0], dy[0], dz[0]])
            c, dep, ft, _ = composite_ray(
                small_random_scene, Ray(ring_camera.position, d),
                near=ring_camera.near)
            i, j = int(rr), int(cc)
            assert np.array_equal(color.data[i, j], c)
            assert depth.data[i, j, 0] == dep
            assert trans.data[i, j, 0] == ft


def test_render_worker_count_bit_identity(small_random_scene):
    s = small_random_scene
    # 70 rows span two coarse blocks, so workers=3 goes through the pool
    cam = make_orbit_cameras(s.center, 3.0 * s.radius, 1, 0.3, "ring",
                             32, 70, 0.9)[0]
    a, da, ta = render(s, cam, workers=1)
    _shutdown_pools()
    b, db, tb = render(s, cam, workers=3)
    assert multiprocessing.active_children()
    assert np.array_equal(a.data, b.data)
    assert np.array_equal(da.data, db.data)
    assert np.array_equal(ta.data, tb.data)


def test_render_rays_fused_streams_split():
    scene = make_random_scene(5, seed=9, spread=0.2, sigma_range=(0.05, 0.12),
                              aniso_max=0.5, background=(0.0, 0.0, 0.0))
    origin = scene.center + np.array([0.0, 0.0, -0.8])
    dirs = np.array([[0.0, 0.0, 1.0], [0.05, 0.0, 1.0]])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    color, depth, final_t, iso, aniso = render_rays(scene, origin, dirs,
                                                    fused_streams=True)
    # physical color = iso + aniso + background survival (background is black)
    assert np.allclose(color, iso + aniso, atol=1e-12)


def test_termination_epsilon_caps_contributions():
    # a long chain of half-opaque splats: once transmittance drops below
    # epsilon (0.5^10 < 1e-3) nothing farther contributes
    s = make_scene(mu=[(0.0, 0.0, 1.0 + 0.2 * i) for i in range(30)],
                   sigma=0.05, alpha=0.5, l_iso=(1.0, 1.0, 1.0))
    _, _, _, samples = composite_ray(s, Z_RAY)
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
    _, _, final_t, *_ = render_rays(scene, origin, dirs, cfg)
    assert ((final_t >= 0.0) & (final_t <= 1.0)).all()
    for d in dirs:
        color, _, ft, samples = composite_ray(scene, Ray(origin, d), cfg)
        assert 0.0 <= ft <= 1.0
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


def _batch_tape(scene, origin, dirs, cfg, near):
    """The tape of one kernel call over a batch of rays, as `render_rays`
    composites them."""
    v0, v1, v2, cg, _ = _origin_terms(scene, origin)
    dx, dy, dz = (np.ascontiguousarray(dirs[:, i]) for i in range(3))
    sub = np.arange(scene.alpha.size)
    return _composite(scene, cfg, near,
                      _ray_geometry(scene, v0, v1, v2, cg, dx, dy, dz, sub),
                      sub, dx, dy, dz, tape=True)[-1]


@given(_scene_and_rays(), st.sampled_from([0.0, 1.8, 2.0]))
@settings(max_examples=150, deadline=None)
def test_batch_ray_equals_the_ray_alone(case, near):
    scene, origin, dirs, cfg = case
    batch = render_rays(scene, origin, dirs, cfg, near=near, fused_streams=True)
    tape = _batch_tape(scene, origin, dirs, cfg, near)
    for p, d in enumerate(dirs):
        alone = render_rays(scene, origin, d[None], cfg, near=near,
                            fused_streams=True)
        for b, a in zip(batch, alone):
            assert np.array_equal(b[p], a[0])
        samples = composite_ray(scene, Ray(origin, d), cfg, near=near)[3]
        slot = tape.tw[p] > 0.0
        assert [(s.index, s.t, s.weight, s.transmittance_before) for s in samples] == \
            list(zip(tape.idx[p][slot], tape.ts[p][slot], tape.w[p][slot],
                     tape.Tb[p][slot]))


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
    tape = _batch_tape(scene, np.zeros(3), dirs, RenderConfig(), 0.0)
    counts = [len(composite_ray(scene, Ray(np.zeros(3), d))[3]) for d in dirs]
    assert counts == [1] * 40 + [10]
    assert tape.tw.shape == (41, 10)
    pad = np.arange(10) >= np.array(counts)[:, None]
    assert (tape.w[pad] == 0.0).all() and (tape.tw[pad] == 0.0).all()
    assert (tape.tw[~pad] > 0.0).all()


def test_coincident_splats_composite_in_index_order():
    # splats 1 and 2 share center and covariance, so their t ties exactly;
    # splat 0 is live on the batch's second ray only
    red, green = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    scene = make_scene(mu=[(0.5, 0.0, 2.0), (0.0, 0.0, 2.0), (0.0, 0.0, 2.0)],
                       sigma=0.05, alpha=0.5, l_iso=[(0.0, 0.0, 1.0), red, green])
    dirs = np.array([[0.0, 0.0, 1.0], [0.5, 0.0, 2.0]])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    color, *_ = render_rays(scene, np.zeros(3), dirs)
    assert color[0].tolist() == [0.5, 0.25, 0.0]
    swapped = dataclasses.replace(scene, l_iso=scene.l_iso[[0, 2, 1]])
    color_b, *_ = render_rays(swapped, np.zeros(3), dirs)
    assert color_b[0].tolist() == [0.25, 0.5, 0.0]
    assert [s.index for s in composite_ray(scene, Z_RAY)[3]] == [1, 2]


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
    _, depth, final_t, iso, aniso = render_rays(scene, cam.position, dirs, cfg,
                                                near=cam.near, fused_streams=True)
    assert (iso > 0.0).any()
    e_c = embed_camera(cam, scene.center, scene.radius, mlp.d)
    expect = np.array([fuse(i, a, e_c, d, mlp) for i, a, d in zip(iso, aniso, dirs)])
    for workers in (1, 2):
        color, dimg, timg = render(scene, cam, cfg, workers=workers, mlp=mlp)
        assert np.array_equal(color.data.reshape(-1, 3), expect)
        # depth and transmittance stay physical
        assert np.array_equal(dimg.data.ravel(), depth)
        assert np.array_equal(timg.data.ravel(), final_t)
