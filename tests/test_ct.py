"""Attenuation branch: unit conversion, trilinear sampling, exact line integrals."""
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splat360 import (DrrConfig, ProjectionGeometry, Ray, VolumeFormatError,
                      VoxelVolume, beer_lambert_ray, hu_to_mu, load_volume,
                      make_sphere_phantom, make_uniform_volume, render_drr,
                      sample_hu, save_volume)
from splat360.ct import _line_integrals, _mu_field, _sample_hu_grid
from splat360.renderer import _shutdown_pools

Z = np.array([0.0, 0.0, 1.0])


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


def test_hu_clamped_below_air():
    assert hu_to_mu(-3000.0, 0.02) == 0.0


@given(st.floats(-999.0, 4000.0), st.floats(0.001, 0.1))
@settings(max_examples=100, deadline=None)
def test_hu_affine_above_clamp(h, w):
    assert hu_to_mu(h, w) == pytest.approx(w * (1.0 + h / 1000.0), rel=1e-12)


def _checker_volume():
    hu = np.arange(27, dtype=np.float64).reshape(3, 3, 3) * 100.0
    return VoxelVolume((3, 3, 3), np.ones(3), np.zeros(3), hu.ravel())


def test_sample_at_node_exact():
    vol = _checker_volume()
    # hu is laid out z-major, x-fastest: value at (ix, iy, iz)
    assert sample_hu(vol, [1.0, 2.0, 0.0]) == 100.0 * (0 * 9 + 2 * 3 + 1)
    assert sample_hu(vol, [0.0, 0.0, 2.0]) == 100.0 * 18


def test_sample_midpoint_averages():
    hu = np.full((1, 1, 2), 0.0)
    hu[0, 0, 1] = 100.0
    vol = VoxelVolume((2, 1, 1), np.ones(3), np.zeros(3), hu.ravel())
    assert sample_hu(vol, [0.5, 0.0, 0.0]) == 50.0


def test_sample_outside_returns_air():
    vol = _checker_volume()
    assert sample_hu(vol, [10.0, 0.0, 0.0]) == -1000.0
    assert sample_hu(vol, [0.0, 0.0, -5.0]) == -1000.0


def _water_slab(n=100, cross=5):
    # box spans exactly n mm along z (voxel centers 0..n-1, half-voxel margins)
    return make_uniform_volume((cross, cross, n), (10.0, 10.0, 1.0),
                               (0.0, 0.0, 0.0), 0.0)


def test_slab_attenuation_oracle():
    vol = _water_slab(100)
    cfg = DrrConfig(mu_water=0.01)
    r = Ray(np.array([20.0, 20.0, -40.0]), Z)
    intensity, li = beer_lambert_ray(vol, r, cfg)
    assert li == pytest.approx(1.0, rel=1e-12)
    assert intensity == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_ray_missing_box():
    vol = _water_slab(10)
    r = Ray(np.array([1000.0, 1000.0, -5.0]), Z)
    intensity, li = beer_lambert_ray(vol, r, DrrConfig(i0=2.0))
    assert intensity == 2.0 and li == 0.0


def test_intensity_monotone_in_density():
    base = make_uniform_volume((3, 3, 8), np.ones(3), np.zeros(3), 0.0)
    r = Ray(np.array([1.0, 1.0, -3.0]), Z)
    prev, _ = beer_lambert_ray(base, r)
    for bump in (200.0, 500.0, 900.0):
        hu = base.hu.copy()
        hu[4, 1, 1] = bump  # voxel on the ray
        vol = VoxelVolume(base.dims, base.spacing, base.origin, hu.ravel())
        cur, _ = beer_lambert_ray(vol, r)
        assert cur < prev
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
    cfg = DrrConfig()
    r = Ray(np.array([2.0, 2.0, -7.0]), Z)
    _, li_lower = beer_lambert_ray(lower, r, cfg)
    _, li_upper = beer_lambert_ray(upper, r, cfg)
    _, li_both = beer_lambert_ray(both, r, cfg)
    assert li_lower + li_upper == pytest.approx(li_both, rel=1e-12)
    # and the union chord matches the closed form for this profile
    mu_w = cfg.mu_water
    expect = mu_w * (2 * n + 0.5 * n)
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
    cfg = DrrConfig(mu_water=0.02)
    _, li = beer_lambert_ray(vol, Ray(o, d), cfg)
    assert li == pytest.approx(_exact_one_cell(hu, spacing, origin, o, d, 0.02),
                               rel=1e-12)


def test_random_volume_matches_a_fine_midpoint_reference():
    rng = np.random.default_rng(3)
    hu = rng.uniform(-1000.0, 1500.0, (5, 5, 5))
    hu[rng.random(hu.shape) < 0.8] = -1000.0  # all-air cells, which are skipped
    vol = VoxelVolume((5, 5, 5), (1.0, 0.7, 1.3), (0.2, -0.3, 0.1), hu)
    cfg = DrrConfig()
    for _ in range(4):
        target = vol.center + rng.uniform(-1.0, 1.0, 3)
        o = target - 12.0 * rng.normal(size=3)
        d = (target - o) / np.linalg.norm(target - o)
        _, li = beer_lambert_ray(vol, Ray(o, d), cfg)
        # 2e5-step midpoint rule over the chord, from the sampler and mu(HU)
        t0 = max(0.0, np.minimum((vol.box_lo - o) / d, (vol.box_hi - o) / d).max())
        t1 = np.maximum((vol.box_lo - o) / d, (vol.box_hi - o) / d).min()
        steps = 200_000
        t = t0 + (np.arange(steps) + 0.5) * (t1 - t0) / steps
        mu = hu_to_mu(_sample_hu_grid(vol, o + t[:, None] * d), cfg.mu_water)
        assert li == pytest.approx(mu.sum() * (t1 - t0) / steps, rel=1e-8)


def test_clamp_acts_on_node_values():
    # nodes at HU -1024 and 0: mu is clamped at the nodes (0 and mu_water)
    # and interpolated between them, so the ramp holds half of mu_water and
    # the margins half each of 0 and mu_water. Interpolating HU first and
    # clamping after would give 0.5 * 1.024 * (1 - 0.024)**2 mu_water on the ramp.
    vol = VoxelVolume((2, 1, 1), np.ones(3), np.zeros(3), [-1024.0, 0.0])
    r = Ray(np.array([-3.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    _, li = beer_lambert_ray(vol, r, DrrConfig(mu_water=0.02))
    assert li == pytest.approx(0.02 * (0.5 + 0.5), rel=1e-12)


def test_ray_along_node_lines_beside_water_reads_exactly_zero():
    # the ray lies in the node plane y = 1, which holds the one water node,
    # and crosses only cells of the plane whose corners there are air; a
    # Gauss node rounded a hair into the water's cells must not read mu < 0
    hu = np.full((3, 3, 3), -1000.0)
    hu[2, 1, 1] = 0.0
    vol = VoxelVolume((3, 3, 3), (0.7, 1.1, 0.1), np.zeros(3), hu)
    d = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    _, li = beer_lambert_ray(vol, Ray(np.array([0.0, 1.1, 0.1]) - 5.0 * d, d))
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


def _sphere_geometry(vol, size=33):
    ext = float(np.max(vol.box_hi - vol.box_lo))
    return ProjectionGeometry(vol.center + np.array([0.0, -3.0 * ext, 0.0]),
                              vol.center + np.array([0.0, 3.0 * ext, 0.0]),
                              np.array([2.0 * ext / size, 0.0, 0.0]),
                              np.array([0.0, 0.0, -2.0 * ext / size]),
                              size, size)


def test_drr_all_air_uniform():
    vol = make_uniform_volume((9, 9, 9), np.ones(3), np.zeros(3), -1000.0)
    geom = _sphere_geometry(vol, 9)
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


def test_geometry_validation():
    with pytest.raises(ValueError):
        ProjectionGeometry(np.zeros(3), np.array([0.0, 10.0, 0.0]),
                           np.array([1.0, 0.0, 0.0]),
                           np.array([1.0, 0.1, 0.0]), 8, 8)  # u not perp v


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
