"""Attenuation branch: unit conversion, trilinear sampling, exact line integrals."""
import dataclasses
import gc
import hashlib
import math
import multiprocessing
import os
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splat360 import (DrrConfig, ProjectionGeometry, VolumeFormatError,
                      VoxelVolume, hu_to_mu, load_volume,
                      make_sphere_phantom, render_drr, save_volume)
from splat360 import ct
from splat360.ct import AIR_HU, _line_integrals, _mu_field
from splat360.renderer import _shutdown_pools

import ct_reference

Z = np.array([0.0, 0.0, 1.0])


def make_uniform_volume(dims, spacing, origin, hu_value: float) -> VoxelVolume:
    nx, ny, nz = dims
    return VoxelVolume(dims, spacing, origin,
                       np.full((nz, ny, nx), float(hu_value)))


def test_hu_water_is_mu_water():
    assert hu_to_mu(0.0, 0.02) == 0.02


def test_hu_air_is_exactly_zero():
    assert hu_to_mu(-1000.0, 0.02) == 0.0
    assert hu_to_mu(-1000.0, 0.31) == 0.0


def test_hu_dense_substitution():
    assert hu_to_mu(1000.0, 0.02) == 0.04


@pytest.mark.parametrize("field", ["mu_water", "i0"])
@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
def test_drr_config_rejects_non_finite(field, bad):
    with pytest.raises(ValueError, match=field):
        DrrConfig(**{field: bad})


@pytest.mark.parametrize("field", ["mu_water", "i0"])
def test_drr_config_rejects_bools(field):
    # True used to pass as 1.0
    with pytest.raises(ValueError, match=field):
        DrrConfig(**{field: True})


def test_hu_clamped_below_air():
    assert hu_to_mu(-3000.0, 0.02) == 0.0


@given(st.floats(-999.0, 4000.0), st.floats(0.001, 0.1))
@settings(max_examples=100, deadline=None)
def test_hu_affine_above_clamp(h, w):
    assert hu_to_mu(h, w) == pytest.approx(w * (1.0 + h / 1000.0), rel=1e-12)


def _sample_hu(vol, pts):
    """Trilinear HU at [N,3] world points (or one 3-vector). Inside the
    half-voxel margin beyond the outer node centers the nearest node value
    extends constantly; outside the box is air. Where no node is below
    -1000 HU, mu of it is the field the line integrals integrate."""
    pts = np.reshape(np.asarray(pts, dtype=np.float64), (-1, 3))
    dimv = np.array(vol.dims, dtype=np.float64)
    u = (pts - vol.origin) / vol.spacing
    inside = ((u >= -0.5) & (u <= dimv - 0.5)).all(axis=1)
    uc = np.clip(u, 0.0, dimv - 1.0)
    i0 = np.minimum(np.floor(uc), dimv - 1.0).astype(np.int64)
    i1 = np.minimum(i0 + 1, np.array(vol.dims) - 1)
    f = uc - i0
    x0, y0, z0 = i0.T
    x1, y1, z1 = i1.T
    fx, fy, fz = f.T
    h = vol.hu
    c00 = h[z0, y0, x0] + (h[z0, y0, x1] - h[z0, y0, x0]) * fx
    c10 = h[z0, y1, x0] + (h[z0, y1, x1] - h[z0, y1, x0]) * fx
    c01 = h[z1, y0, x0] + (h[z1, y0, x1] - h[z1, y0, x0]) * fx
    c11 = h[z1, y1, x0] + (h[z1, y1, x1] - h[z1, y1, x0]) * fx
    c0 = c00 + (c10 - c00) * fy
    c1 = c01 + (c11 - c01) * fy
    return np.where(inside, c0 + (c1 - c0) * fz, AIR_HU)


def _ray_integral(vol, origin, d, mu_water=0.02):
    """Line integral of mu along the ray from `origin` along the unit `d`."""
    return float(_line_integrals(vol, _mu_field(vol, mu_water),
                                 np.reshape(origin, (1, 3)), np.reshape(d, (1, 3)))[0])


def _checker_volume():
    hu = np.arange(27, dtype=np.float64).reshape(3, 3, 3) * 100.0
    return VoxelVolume((3, 3, 3), np.ones(3), np.zeros(3), hu.ravel())


def test_sample_at_node_exact():
    vol = _checker_volume()
    # hu is laid out z-major, x-fastest: value at (ix, iy, iz)
    assert _sample_hu(vol, [1.0, 2.0, 0.0])[0] == 100.0 * (0 * 9 + 2 * 3 + 1)
    assert _sample_hu(vol, [0.0, 0.0, 2.0])[0] == 100.0 * 18


def test_sample_midpoint_averages():
    hu = np.full((1, 1, 2), 0.0)
    hu[0, 0, 1] = 100.0
    vol = VoxelVolume((2, 1, 1), np.ones(3), np.zeros(3), hu.ravel())
    assert _sample_hu(vol, [0.5, 0.0, 0.0])[0] == 50.0


def test_sample_outside_returns_air():
    vol = _checker_volume()
    assert _sample_hu(vol, [10.0, 0.0, 0.0])[0] == -1000.0
    assert _sample_hu(vol, [0.0, 0.0, -5.0])[0] == -1000.0


def _water_slab(n=100, cross=5):
    # box spans exactly n mm along z (voxel centers 0..n-1, half-voxel margins)
    return make_uniform_volume((cross, cross, n), (10.0, 10.0, 1.0),
                               (0.0, 0.0, 0.0), 0.0)


def test_slab_attenuation_oracle():
    vol = _water_slab(100)
    o = np.array([20.0, 20.0, -40.0])
    assert _ray_integral(vol, o, Z, 0.01) == pytest.approx(1.0, rel=1e-12)


def test_ray_missing_box():
    vol = _water_slab(10)
    o = np.array([1000.0, 1000.0, -5.0])
    assert _ray_integral(vol, o, Z) == 0.0


def test_line_integral_monotone_in_density():
    base = make_uniform_volume((3, 3, 8), np.ones(3), np.zeros(3), 0.0)
    o = np.array([1.0, 1.0, -3.0])
    prev = _ray_integral(base, o, Z)
    for bump in (200.0, 500.0, 900.0):
        hu = base.hu.copy()
        hu[4, 1, 1] = bump  # voxel on the ray
        vol = VoxelVolume(base.dims, base.spacing, base.origin, hu.ravel())
        cur = _ray_integral(vol, o, Z)
        assert cur > prev
        prev = cur


def test_two_slab_composability():
    # stacked sub-volumes vs the union volume: the union ramps linearly
    # between its nodes z = 7 and 8, the stack steps at z = 7.5, and both
    # integrate exactly to the same value
    n = 8
    lower = make_uniform_volume((5, 5, n), np.ones(3), (0.0, 0.0, 0.0), 0.0)
    upper = make_uniform_volume((5, 5, n), np.ones(3), (0.0, 0.0, float(n)), 500.0)
    both_hu = np.concatenate([np.zeros(n * 25), np.full(n * 25, 500.0)])
    both = VoxelVolume((5, 5, 2 * n), np.ones(3), np.zeros(3), both_hu)
    o = np.array([2.0, 2.0, -7.0])
    li_lower = _ray_integral(lower, o, Z)
    li_upper = _ray_integral(upper, o, Z)
    li_both = _ray_integral(both, o, Z)
    assert li_lower + li_upper == pytest.approx(li_both, rel=1e-12)
    # and the union chord matches the closed form for this profile
    expect = 0.02 * (2 * n + 0.5 * n)
    assert li_both == pytest.approx(expect, rel=1e-12)


def _exact_one_cell(hu, spacing, origin, o, d, mu_w):
    """Closed-form line integral through a 2x2x2 volume: on each piece
    between the t where a node coordinate u_a crosses 0 or 1, the fraction
    along axis a is clip(u_a, 0, 1), constant or affine in t, so mu is a
    product of polynomials that numpy.polynomial integrates exactly."""
    P = np.polynomial.Polynomial
    u0 = (o - origin) / spacing
    du = d / spacing
    with np.errstate(divide="ignore"):
        t_lo = (-0.5 - u0) / du
        t_hi = (1.5 - u0) / du
    t0 = max(0.0, np.minimum(t_lo, t_hi).max())
    t1 = np.maximum(t_lo, t_hi).min()
    cuts = [t0, t1] + [(k - u0[a]) / du[a] for a in range(3) for k in (0.0, 1.0)
                       if du[a] != 0.0 and t0 < (k - u0[a]) / du[a] < t1]
    cuts = sorted(cuts)
    mu = mu_w * (1.0 + hu / 1000.0)  # [z, y, x]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.5 * (lo + hi)
        f = []
        for a in range(3):
            u = u0[a] + mid * du[a]
            f.append(P([0.0]) if u <= 0.0 else P([1.0]) if u >= 1.0
                     else P([u0[a], du[a]]))
        fx, fy, fz = f
        field = sum(mu[z, y, x] * (fz if z else 1 - fz) * (fy if y else 1 - fy)
                    * (fx if x else 1 - fx)
                    for z in (0, 1) for y in (0, 1) for x in (0, 1))
        antider = field.integ()
        total += antider(hi) - antider(lo)
    return total


@pytest.mark.parametrize("seed", range(5))
def test_one_cell_matches_its_closed_form_cubic(seed):
    rng = np.random.default_rng(seed)
    hu = rng.uniform(-1000.0, 2000.0, (2, 2, 2))
    spacing = rng.uniform(0.5, 2.0, 3)
    origin = rng.uniform(-1.0, 1.0, 3)
    vol = VoxelVolume((2, 2, 2), spacing, origin, hu)
    target = origin + rng.uniform(0.2, 0.8, 3) * spacing  # inside the cell
    o = target - 10.0 * rng.normal(size=3)
    d = (target - o) / np.linalg.norm(target - o)
    li = _ray_integral(vol, o, d)
    assert li == pytest.approx(_exact_one_cell(hu, spacing, origin, o, d, 0.02),
                               rel=1e-12)


def test_random_volume_matches_a_fine_midpoint_reference():
    rng = np.random.default_rng(3)
    hu = rng.uniform(-1000.0, 1500.0, (5, 5, 5))
    hu[rng.random(hu.shape) < 0.8] = -1000.0  # all-air cells, which are skipped
    vol = VoxelVolume((5, 5, 5), (1.0, 0.7, 1.3), (0.2, -0.3, 0.1), hu)
    for _ in range(4):
        target = vol.center + rng.uniform(-1.0, 1.0, 3)
        o = target - 12.0 * rng.normal(size=3)
        d = (target - o) / np.linalg.norm(target - o)
        li = _ray_integral(vol, o, d)
        # 2e5-step midpoint rule over the chord, from the sampler and mu(HU)
        t0 = max(0.0, np.minimum((vol.box_lo - o) / d, (vol.box_hi - o) / d).max())
        t1 = np.maximum((vol.box_lo - o) / d, (vol.box_hi - o) / d).min()
        steps = 200_000
        t = t0 + (np.arange(steps) + 0.5) * (t1 - t0) / steps
        mu = hu_to_mu(_sample_hu(vol, o + t[:, None] * d), 0.02)
        assert li == pytest.approx(mu.sum() * (t1 - t0) / steps, rel=1e-8)


def test_clamp_acts_on_node_values():
    # nodes at HU -1024 and 0: mu is clamped at the nodes (0 and mu_water)
    # and interpolated between them, so the ramp holds half of mu_water and
    # the margins half each of 0 and mu_water. Interpolating HU first and
    # clamping after would give 0.5 * 1.024 * (1 - 0.024)**2 mu_water on the ramp.
    vol = VoxelVolume((2, 1, 1), np.ones(3), np.zeros(3), [-1024.0, 0.0])
    li = _ray_integral(vol, np.array([-3.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    assert li == pytest.approx(0.02 * (0.5 + 0.5), rel=1e-12)


def test_ray_along_node_lines_beside_water_reads_exactly_zero():
    # the ray lies in the node plane y = 1, which holds the one water node,
    # and crosses only cells of the plane whose corners there are air; a
    # Gauss node rounded a hair into the water's cells must not read mu < 0
    hu = np.full((3, 3, 3), -1000.0)
    hu[2, 1, 1] = 0.0
    vol = VoxelVolume((3, 3, 3), (0.7, 1.1, 0.1), np.zeros(3), hu)
    d = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    li = _ray_integral(vol, np.array([0.0, 1.1, 0.1]) - 5.0 * d, d)
    assert li == 0.0


@st.composite
def _volume_and_rays(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dims = tuple(draw(st.integers(1, 4)) for _ in range(3))
    hu = rng.uniform(-1024.0, 1500.0, dims[::-1])
    hu[rng.random(hu.shape) < rng.uniform(0.3, 0.9)] = -1000.0  # air to skip
    vol = VoxelVolume(dims, rng.uniform(0.5, 2.0, 3), rng.uniform(-2.0, 2.0, 3), hu)
    n = draw(st.integers(1, 24))
    target = vol.center + rng.uniform(-1.0, 1.0, (n, 3)) * (vol.box_hi - vol.box_lo)
    dirs = rng.normal(size=(n, 3))
    # some rays run along node lines: through a node, on a grid axis or
    # diagonal, tilted by at most a few ulps
    lines = rng.random(n) < 0.6
    target[lines] = vol.origin + rng.integers(0, dims, (lines.sum(), 3)) * vol.spacing
    dirs[lines] = rng.integers(-1, 2, (lines.sum(), 3)) + rng.choice(
        [0.0, 1e-17, 1e-15, 1e-12], (lines.sum(), 1)) * rng.normal(size=(lines.sum(), 3))
    dirs[np.abs(dirs).max(axis=1) < 0.5] = [1.0, 0.0, 0.0]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return vol, target - 10.0 * dirs, dirs, rng.permutation(n)


@given(_volume_and_rays())
@settings(max_examples=60, deadline=None)
def test_line_integrals_do_not_depend_on_the_other_rays(case):
    vol, origins, dirs, perm = case
    field = _mu_field(vol, 0.02)
    every = _line_integrals(vol, field, origins, dirs)
    assert (every >= 0.0).all()
    half = perm[: max(1, perm.size // 2)]
    assert np.array_equal(_line_integrals(vol, field, origins[half], dirs[half]),
                          every[half])
    assert np.array_equal(_line_integrals(vol, field, origins[perm], dirs[perm]),
                          every[perm])
    for i in range(origins.shape[0]):
        one = _line_integrals(vol, field, origins[i:i + 1], dirs[i:i + 1])
        assert np.array_equal(one, every[i:i + 1])
    # rays that start beyond the box's upper corner and move away from it,
    # and the same rays through an all-air volume
    assert not _line_integrals(vol, field, vol.box_hi + 1.0 + np.abs(origins),
                               np.abs(dirs)).any()
    air = VoxelVolume(vol.dims, vol.spacing, vol.origin, np.full(vol.hu.shape, -1000.0))
    assert not _line_integrals(air, _mu_field(air, 0.02), origins, dirs).any()


@st.composite
def _occupied_box_and_rays(draw):
    """A volume whose non-air nodes fill one box, its expected `_mu_field`
    span, and rays: from afar, from inside the box, axis-parallel, and in
    the node planes u = L and u = U."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dims = np.array([draw(st.integers(1, 6)) for _ in range(3)])
    if draw(st.booleans()):  # one non-air node, at a corner of the grid
        lo = hi = rng.integers(0, 2, 3) * (dims - 1)
    else:  # touching the first or the last node on an axis or not
        lo = rng.integers(0, dims)
        hi = rng.integers(lo, dims)
    hu = rng.uniform(-1024.0, -1000.0, dims[::-1])  # air, partly by the clamp
    box = tuple(slice(i, j + 1) for i, j in zip(lo[::-1], hi[::-1]))
    hu[box] = rng.uniform(-990.0, 1500.0, hu[box].shape)
    # dyadic spacing and origin put a node plane's rays exactly on u = k
    vol = VoxelVolume(tuple(dims), rng.choice([0.5, 0.75, 1.0, 2.0], 3),
                      rng.integers(-8, 8, 3) * 0.25, hu)
    # non-air cells run from node lo - 1 to node hi + 1; cell 0 and cell
    # n - 1 hold the margins
    span = [(float(i - 1) if i > 1 else -np.inf, float(j + 1) if j < n - 1 else np.inf)
            for i, j, n in zip(lo, hi, dims)]
    n = draw(st.integers(1, 32))
    size = vol.box_hi - vol.box_lo
    target = vol.box_lo + rng.uniform(-0.2, 1.2, (n, 3)) * size
    dirs = rng.normal(size=(n, 3))
    kind = rng.integers(0, 4, n)
    for r in np.flatnonzero(kind == 1):  # axis-parallel
        dirs[r] = np.eye(3)[rng.integers(3)] * rng.choice([-1.0, 1.0])
    for r in np.flatnonzero(kind == 2):  # in the plane u = L or u = U
        ax = rng.integers(3)
        ends = [k for k in span[ax] if np.isfinite(k)] or [float(rng.integers(dims[ax]))]
        target[r, ax] = vol.origin[ax] + rng.choice(ends) * vol.spacing[ax]
        dirs[r, ax] = 0.0
        if rng.random() < 0.3:
            dirs[r, (ax + 1) % 3] = 0.0
        if not dirs[r].any():
            dirs[r, (ax + 2) % 3] = 1.0
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    inside = kind == 3  # the ray starts inside the box
    target[inside] = vol.box_lo + rng.uniform(0.0, 1.0, (inside.sum(), 3)) * size
    origins = np.where(inside[:, None], target, target - 3.0 * size.max() * dirs)
    return vol, origins, dirs, span


@given(_occupied_box_and_rays())
@settings(max_examples=100, deadline=None)
def test_empty_space_clip_keeps_every_bit(case):
    vol, origins, dirs, span = case
    mu, air, computed = _mu_field(vol, 0.02)
    assert computed == span
    whole = [(-np.inf, np.inf)] * 3
    clipped = _line_integrals(vol, (mu, air, computed), origins, dirs)
    assert clipped.tobytes() == _line_integrals(vol, (mu, air, whole), origins,
                                                dirs).tobytes()


@given(st.one_of(_volume_and_rays(), _occupied_box_and_rays()))
@settings(max_examples=150, deadline=None)
def test_line_integrals_equal_the_reference_bit_for_bit(case):
    # rays along node planes, in the margins, through all-air cells and
    # along 1-node axes, against the plain padded form in `ct_reference`
    vol, origins, dirs = case[:3]
    field = _mu_field(vol, 0.02)
    assert (_line_integrals(vol, field, origins, dirs).tobytes()
            == ct_reference.line_integrals(vol, field, origins, dirs).tobytes())


@pytest.mark.parametrize("dims,hu_value,spacing,origin,o,d", [
    # 1.7e-13 off the node line x = 1, the ray leaves the span y < 1 at a
    # node; u_x at the clipped end rounds onto the plane x = 1, which the
    # unclipped ray still cuts just before that end
    ((2, 2, 2), -615.6934306211695,
     (1.269097879033188, 0.5029071774561973, 0.8034046481296102),
     (-1.8686155629908443, -1.4994673301267274, -0.5049351073834747),
     (-0.5995176839559786, -8.067627964527006, -6.772598271128339),
     (-1.6777137211499384e-13, 0.70710678118564763, 0.70710678118744741)),
    # 5e-16 off the plane x = U = 2, the ray crosses it mathematically, but
    # u_x rounds to 2 at both ends of its box chord, so the unclipped ray
    # makes no cut there and neither may the clip
    ((3, 1, 3), 1030.690850937102,
     (0.9042739050136683, 0.996074077202107, 1.5976997873366123),
     (1.894731360541964, -0.3967650423814719, -0.17473090876167463),
     (3.7032791705693056, -7.46783285424695, 6.896336903103798),
     (-5.033400464183907e-16, 0.7071067811865478, -0.7071067811865472)),
], ids=["cut_range", "uncrossed_bound"])
def test_clip_keeps_the_bits_of_rays_along_node_planes(dims, hu_value, spacing,
                                                        origin, o, d):
    hu = np.full(dims[::-1], AIR_HU)
    hu[1, 0, 1] = hu_value  # the one non-air node
    vol = VoxelVolume(dims, spacing, origin, hu)
    mu, air, span = _mu_field(vol, 0.02)
    whole = [(-np.inf, np.inf)] * 3
    assert span != whole
    o, d = np.array([o]), np.array([d])
    assert (_line_integrals(vol, (mu, air, span), o, d).tobytes()
            == _line_integrals(vol, (mu, air, whole), o, d).tobytes())


def _sphere_geometry(vol, size=33):
    ext = float(np.max(vol.box_hi - vol.box_lo))
    return ProjectionGeometry(vol.center + np.array([0.0, -3.0 * ext, 0.0]),
                              vol.center + np.array([0.0, 3.0 * ext, 0.0]),
                              np.array([2.0 * ext / size, 0.0, 0.0]),
                              np.array([0.0, 0.0, -2.0 * ext / size]),
                              size, size)


def test_drr_all_air_uniform(monkeypatch):
    vol = make_uniform_volume((9, 9, 9), np.ones(3), np.zeros(3), -1000.0)
    geom = _sphere_geometry(vol, 9)

    def no_piece_work(*args):
        raise AssertionError("an all-air volume reached the piece stage")

    monkeypatch.setattr(ct, "_piece_sums", no_piece_work)
    img = render_drr(vol, geom, DrrConfig(i0=1.5))
    assert np.all(img.data == 1.5)
    li = render_drr(vol, geom, DrrConfig(output="line_integral"))
    assert np.all(li.data == 0.0)


def test_drr_sphere_central_chord():
    radius = 10.0
    vol = make_sphere_phantom(33, 1.0, radius, hu_inside=0.0)
    geom = _sphere_geometry(vol, 33)  # odd: central pixel ray hits the center
    cfg = DrrConfig(mu_water=0.02)
    img = render_drr(vol, geom, cfg)
    # the central ray runs along a node line, where the phantom's ramp is
    # linear between nodes, so the exact integral is mu * 2R to rounding
    expect = math.exp(-cfg.mu_water * 2.0 * radius)
    assert img.data[16, 16, 0] == pytest.approx(expect, rel=1e-12)


def test_drr_sphere_radial_symmetry():
    vol = make_sphere_phantom(33, 1.0, 10.0, hu_inside=0.0)
    geom = _sphere_geometry(vol, 33)
    img = render_drr(vol, geom, DrrConfig(mu_water=0.02)).data[:, :, 0]
    c = 16
    for dr, dc in ((0, 5), (5, 0), (0, -5), (-5, 0)):
        assert img[c + dr, c + dc] == pytest.approx(img[c + 5, c], rel=0.01)


def test_drr_worker_bit_identity():
    vol = make_sphere_phantom(17, 1.0, 5.0, hu_inside=200.0)
    geom = _sphere_geometry(vol, 65)  # two pixel chunks, so a pool of two
    a = render_drr(vol, geom, workers=1)
    _shutdown_pools()
    b = render_drr(vol, geom, workers=3)
    assert multiprocessing.active_children()
    assert np.array_equal(a.data, b.data)


class _PayloadSizes:
    """Stands in for the pool `ct._pool_for` returns and records the
    pickled size of every payload it maps."""

    def __init__(self, pool, sizes):
        self.pool, self.sizes = pool, sizes

    def map(self, fn, payloads):
        self.sizes.extend(len(pickle.dumps(p, pickle.HIGHEST_PROTOCOL))
                          for p in payloads)
        return self.pool.map(fn, payloads)


def test_projections_build_the_field_once_and_ship_no_volume(monkeypatch):
    vol = make_sphere_phantom(33, 1.0, 10.0, hu_inside=200.0)  # 288 KB of HU
    geom = _sphere_geometry(vol, 65)  # two pixel chunks, so a pool of two
    one = render_drr(vol, geom, DrrConfig(mu_water=0.03), workers=1)
    parent, built, sizes = os.getpid(), [], []
    real_field, real_pool_for = ct._mu_field, ct._pool_for

    def counted(v, mu_water):
        assert os.getpid() == parent, "a pool worker built a field"
        built.append(mu_water)
        return real_field(v, mu_water)

    monkeypatch.setattr(ct, "_mu_field", counted)
    monkeypatch.setattr(ct, "_pool_for",
                        lambda size: _PayloadSizes(real_pool_for(size), sizes))
    cfg = DrrConfig(mu_water=0.02)
    first = render_drr(vol, geom, cfg, workers=2)
    for _ in range(2):
        assert np.array_equal(render_drr(vol, geom, cfg, workers=2).data, first.data)
    assert np.array_equal(render_drr(vol, geom, cfg, workers=1).data, first.data)
    # the field at mu_water 0.03 was built before the patch, and is kept
    assert np.array_equal(render_drr(vol, geom, DrrConfig(mu_water=0.03),
                                     workers=2).data, one.data)
    assert built == [0.02]
    assert len(sizes) == 8 and max(sizes) < 4096


def test_volume_is_frozen_and_owns_a_read_only_hu():
    hu = make_sphere_phantom(17, 1.0, 5.0, hu_inside=200.0).hu.copy()
    vol = VoxelVolume((17, 17, 17), np.ones(3), np.zeros(3), hu)
    for name in ("spacing", "origin", "hu"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(vol, name)[0] = 1.0
    for f in dataclasses.fields(vol):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(vol, f.name, getattr(vol, f.name))
    geom = _sphere_geometry(vol, 17)
    before = render_drr(vol, geom)
    hu[...] = 500.0  # the caller's array, not the volume's
    assert np.array_equal(render_drr(vol, geom).data, before.data)
    fresh = VoxelVolume(vol.dims, vol.spacing, vol.origin, vol.hu)
    assert np.array_equal(render_drr(fresh, geom).data, before.data)


def test_a_volume_field_is_dropped_with_the_volume():
    vol = make_sphere_phantom(9, 1.0, 3.0, hu_inside=0.0)
    render_drr(vol, _sphere_geometry(vol, 9))
    key, alive = id(vol), weakref.ref(vol)
    assert key in ct._FIELDS
    del vol
    gc.collect()
    assert alive() is None and key not in ct._FIELDS


def _pinned_volume(kind):
    rng = np.random.default_rng(11)
    if kind == "sphere":  # a sphere off the grid centre
        hu = np.pad(make_sphere_phantom(15, 1.0, 5.0, hu_inside=300.0).hu,
                    ((2, 7), (6, 1), (3, 4)), constant_values=AIR_HU)
    elif kind == "shelled":  # air shells of a different width on each face
        hu = np.full((17, 19, 16), AIR_HU)
        hu[4:15, 1:12, 3:14] = rng.uniform(-1024.0, 1500.0, (11, 11, 11))
    elif kind == "dense":  # no air node at all
        hu = rng.uniform(-900.0, 1500.0, (13, 17, 15))
    else:  # all air, partly from the clamp below -1000 HU
        hu = rng.uniform(-1024.0, -1000.0, (12, 14, 13))
    return VoxelVolume(hu.shape[::-1], (0.9, 1.1, 1.3), (-3.0, 2.0, 0.5), hu)


def _oblique_geometry(vol, size=65):
    # 65^2 pixels make two pool payloads; the tilted axis takes no ray
    # along a grid axis
    ext = float(np.max(vol.box_hi - vol.box_lo))
    d = np.array([0.6, -0.7, 0.3])
    d /= np.linalg.norm(d)
    u = np.cross(d, Z)
    u /= np.linalg.norm(u)
    v = np.cross(d, u)
    return ProjectionGeometry(vol.center - 3.0 * ext * d, vol.center + 3.0 * ext * d,
                              3.0 * ext / size * u, 3.0 * ext / size * v, size, size)


@pytest.mark.parametrize("kind,output,expected", [
    ("sphere", "intensity",
     "0fbf113f041e9ece506a50b3ff5f99a3894d27f470850a940ca818ac701b4a7f"),
    ("sphere", "line_integral",
     "0799f2b9be180a8073bbc73aed980617c13eaada04efc389fec123c6a1d2acf8"),
    ("shelled", "intensity",
     "721dfb195f0c02e04ab2407844596dd2b759dc6d50b24fa0d92b61b8dd5a2ce4"),
    ("shelled", "line_integral",
     "bca6d249a6d3bd46d3308542f3b1bd2de364261c3b6135251eaed38de4a407bd"),
    ("dense", "intensity",
     "e913cbc079489a90d6c2d0940061fbb0584a1c03d6efbbcb890a5ce6c7e75868"),
    ("dense", "line_integral",
     "8535882d1fc217f9ba33f6e0d80bc90b701c2649f67956c7d68329d924232f7e"),
    ("air", "intensity",
     "2d426dab884c318a0f4e8d58dfdfd80692dad918313eb9e35b76fe909cd73a54"),
    ("air", "line_integral",
     "60c21324bf08f401cd2f53aea873ea10db9b7863cefd2515c720338a75139de4"),
])
def test_drr_output_bits_are_pinned(kind, output, expected):
    # sha256 of the projection's bits on one worker and on two. The line
    # integrals are elementwise numpy, np.sort and np.bincount, with no BLAS
    # call; the intensities also read numpy's exp
    vol = _pinned_volume(kind)
    cfg = DrrConfig(mu_water=0.021, i0=1.5, output=output)
    for workers in (1, 2):
        img = render_drr(vol, _oblique_geometry(vol), cfg, workers=workers)
        assert hashlib.sha256(img.data.tobytes()).hexdigest() == expected, workers


def test_geometry_validation():
    with pytest.raises(ValueError):
        ProjectionGeometry(np.zeros(3), np.array([0.0, 10.0, 0.0]),
                           np.array([1.0, 0.0, 0.0]),
                           np.array([1.0, 0.1, 0.0]), 8, 8)  # u not perp v


@pytest.mark.parametrize("sizes", [(64.7, 8), (8, True), (8.0, 8), (8, "8")],
                         ids=["fraction", "bool", "integral_float", "string"])
def test_geometry_rejects_detector_sizes_that_are_not_integers(sizes):
    # (64.7, True) used to build a 64x1 detector
    axes = (np.zeros(3), np.array([0.0, 10.0, 0.0]), np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 1.0]))
    geom = ProjectionGeometry(*axes, np.int64(8), 8)
    assert type(geom.det_width) is int
    with pytest.raises(ValueError, match="integer"):
        ProjectionGeometry(*axes, *sizes)


@pytest.mark.parametrize("field", ["source", "detector_center", "detector_u",
                                   "detector_v"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_geometry_rejects_non_finite(field, bad):
    geom = {"source": np.zeros(3), "detector_center": np.array([0.0, 10.0, 0.0]),
            "detector_u": np.array([1.0, 0.0, 0.0]),
            "detector_v": np.array([0.0, 0.0, 1.0])}
    ProjectionGeometry(**geom, det_width=8, det_height=8)
    geom[field] = np.array([bad, 0.0, 0.0])
    with pytest.raises(ValueError):
        ProjectionGeometry(**geom, det_width=8, det_height=8)


def test_volume_round_trip(tmp_path):
    vol = make_sphere_phantom(9, 2.0, 6.0, hu_inside=300.0)
    path = tmp_path / "phantom.vol"
    save_volume(str(path), vol)
    back = load_volume(str(path))
    assert back.dims == vol.dims
    assert np.array_equal(back.spacing, vol.spacing)
    assert np.array_equal(back.origin, vol.origin)
    assert np.array_equal(back.hu, np.rint(vol.hu))


def test_failed_volume_save_leaves_the_old_volume(tmp_path, monkeypatch):
    path = str(tmp_path / "v.vol")
    save_volume(path, make_sphere_phantom(6, 1.0, 2.0))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def disk_full(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", disk_full)
    with pytest.raises(OSError, match="disk full"):
        save_volume(path, make_sphere_phantom(8, 1.0, 3.0, hu_inside=500.0))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_volume_save_refuses_hu_beyond_int16(tmp_path):
    # the int16 cast wrapped these: 70000 loaded back as 4464, and 40000 as
    # a value below -1024 that load_volume refuses
    top = make_uniform_volume((2, 2, 2), np.ones(3), np.zeros(3), 32767.0)
    save_volume(str(tmp_path / "top.vol"), top)
    assert np.array_equal(load_volume(str(tmp_path / "top.vol")).hu, top.hu)
    for hu in (32767.5, 40000.0, 70000.0):
        d = tmp_path / f"hu{hu:g}"
        d.mkdir()
        vol = make_uniform_volume((2, 2, 2), np.ones(3), np.zeros(3), hu)
        with pytest.raises(VolumeFormatError, match="int16"):
            save_volume(str(d / "v.vol"), vol)
        assert list(d.iterdir()) == []


def test_volume_length_mismatch_names_counts(tmp_path):
    vol = make_uniform_volume((4, 4, 4), np.ones(3), np.zeros(3), 0.0)
    path = tmp_path / "v.vol"
    save_volume(str(path), vol)
    raw = tmp_path / "v.raw"
    raw.write_bytes(raw.read_bytes()[:-2])
    with pytest.raises(VolumeFormatError) as err:
        load_volume(str(path))
    assert "128" in str(err.value) and "126" in str(err.value)


def test_volume_header_errors(tmp_path):
    p = tmp_path / "h.vol"
    p.write_text("dims=2 2 2\nspacing=1 1 1\n")
    with pytest.raises(VolumeFormatError):
        load_volume(str(p))
    p.write_text("dims=2 2 2\nspacing=1 1 1\norigin=0 0 0\ndata=x.raw\ndtype=float32\n")
    with pytest.raises(VolumeFormatError):
        load_volume(str(p))
