"""Attenuation branch: unit conversion, trilinear sampling, ray marching."""
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
from splat360.renderer import _shutdown_pools

Z = np.array([0.0, 0.0, 1.0])


def test_hu_water_is_mu_water():
    assert hu_to_mu(0.0, 0.02) == 0.02


def test_hu_air_is_exactly_zero():
    assert hu_to_mu(-1000.0, 0.02) == 0.0
    assert hu_to_mu(-1000.0, 0.31) == 0.0


def test_hu_dense_substitution():
    assert hu_to_mu(1000.0, 0.02) == 0.04


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
    assert li == pytest.approx(1.0, rel=0.005)
    assert intensity == pytest.approx(math.exp(-1.0), rel=0.005)


def test_slab_step_halving_converges():
    vol = _water_slab(100)
    r = Ray(np.array([20.0, 20.0, -40.0]), Z)
    _, li_a = beer_lambert_ray(vol, r, DrrConfig(mu_water=0.01, step_mm=0.5))
    _, li_b = beer_lambert_ray(vol, r, DrrConfig(mu_water=0.01, step_mm=0.25))
    assert abs(li_a - li_b) < 0.001 * li_a


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
    # stacked sub-volumes vs the union volume on an aligned step grid; the
    # integrand is piecewise linear with kinks on step boundaries, so the
    # midpoint sums agree to roundoff
    n = 8
    lower = make_uniform_volume((5, 5, n), np.ones(3), (0.0, 0.0, 0.0), 0.0)
    upper = make_uniform_volume((5, 5, n), np.ones(3), (0.0, 0.0, float(n)), 500.0)
    both_hu = np.concatenate([np.zeros(n * 25), np.full(n * 25, 500.0)])
    both = VoxelVolume((5, 5, 2 * n), np.ones(3), np.zeros(3), both_hu)
    cfg = DrrConfig(step_mm=0.5)
    r = Ray(np.array([2.0, 2.0, -7.0]), Z)
    _, li_lower = beer_lambert_ray(lower, r, cfg)
    _, li_upper = beer_lambert_ray(upper, r, cfg)
    _, li_both = beer_lambert_ray(both, r, cfg)
    assert li_lower + li_upper == pytest.approx(li_both, abs=1e-9)
    # and the union chord matches the closed form for this profile
    mu_w = cfg.mu_water
    expect = mu_w * (2 * n + 0.5 * n)
    assert li_both == pytest.approx(expect, abs=1e-9)


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
    expect = math.exp(-cfg.mu_water * 2.0 * radius)
    assert img.data[16, 16, 0] == pytest.approx(expect, rel=0.01)


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
