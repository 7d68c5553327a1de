"""Domain types: primitive evaluation, scene validation, cameras, JSON I/O."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from splat360 import (Camera, GaussianPrimitive, InvalidPrimitiveError, Ray,
                      Scene, SceneFormatError, eval_gaussian, load_scene,
                      make_orbit_cameras, make_random_scene, render,
                      save_scene, scene_from_json, scene_to_json,
                      validate_scene)
from splat360 import scene as scene_module
from conftest import make_primitive


def test_eval_at_mean_is_alpha():
    p = make_primitive(alpha=0.8)
    assert eval_gaussian(p, p.mu) == 0.8


def test_eval_alpha_scales_peak():
    p = make_primitive(alpha=0.5)
    assert eval_gaussian(p, p.mu) == 0.5


def test_eval_one_sigma_offset():
    # isotropic cov sigma^2 I, point one sigma off the mean along an axis:
    # quadratic form is exactly 1, value alpha * exp(-1/2)
    sigma = 0.3
    p = make_primitive(sigma=sigma, alpha=1.0)
    for axis in range(3):
        x = p.mu.copy()
        x[axis] += sigma
        assert eval_gaussian(p, x) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_eval_singular_covariance_rejected():
    p = make_primitive()
    p.cov = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(InvalidPrimitiveError):
        eval_gaussian(p, np.zeros(3))


def test_eval_bounded_by_alpha():
    rng = np.random.default_rng(5)
    p = make_primitive(sigma=0.2, alpha=0.7)
    for _ in range(50):
        x = rng.normal(size=3)
        assert eval_gaussian(p, x) <= 0.7 + 1e-15


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_eval_rotation_invariant(seed):
    # rotating x, mu, cov, normal together leaves the density unchanged
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(a + 3 * np.eye(3))
    mu = rng.normal(size=3)
    w = rng.standard_normal((3, 3))
    cov = w @ w.T + 0.05 * np.eye(3)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    p = GaussianPrimitive(mu, cov, 0.9, np.full(3, 0.5), np.zeros(3), n, 0.0)
    x = rng.normal(size=3)
    pr = GaussianPrimitive(q @ mu, q @ cov @ q.T, 0.9, np.full(3, 0.5),
                           np.zeros(3), q @ n / np.linalg.norm(q @ n), 0.0)
    v0 = eval_gaussian(p, x)
    v1 = eval_gaussian(pr, q @ x)
    assert v1 == pytest.approx(v0, rel=1e-9)


def test_validate_clean_scene_empty():
    s = Scene.from_gaussians([make_primitive()], background=np.zeros(3))
    assert validate_scene(s) == []


def test_validate_flags_g_out_of_range():
    p = make_primitive()
    p.g = 1.5
    s = Scene.from_gaussians([p], background=np.zeros(3))
    out = validate_scene(s)
    assert len(out) == 1 and "g" in out[0]


def test_validate_flags_asymmetric_cov():
    p = make_primitive()
    p.cov = np.array([[0.01, 0.002, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]])
    s = Scene.from_gaussians([p], background=np.zeros(3))
    out = validate_scene(s)
    assert any("symmetric" in v for v in out)


def test_scene_bounds_cover_three_sigma():
    p = make_primitive(mu=(1.0, -2.0, 0.5), sigma=0.2)
    s = Scene.from_gaussians([p], background=np.zeros(3))
    assert np.all(s.bounds_min <= p.mu - 3 * 0.2 + 1e-12)
    assert np.all(s.bounds_max >= p.mu + 3 * 0.2 - 1e-12)
    r = np.linalg.norm(p.mu - s.center) + 3 * 0.2
    assert s.radius >= r - 1e-9


def test_scene_bounds_recomputed_on_rebuild():
    s = Scene.from_gaussians([make_primitive(mu=(0, 0, 0))], background=np.zeros(3))
    far = make_primitive(mu=(5.0, 0.0, 0.0))
    s2 = s.with_gaussians(list(s.gaussians) + [far])
    assert s2.bounds_max[0] > 4.0
    assert s.bounds_max[0] < 1.0  # original untouched


def test_ring_four_cameras_at_quarter_azimuths():
    center = np.array([0.5, 0.5, 0.0])
    cams = make_orbit_cameras(center, 2.0, 4, 0.0, "ring", 8, 8, 0.8)
    assert len(cams) == 4
    for cam in cams:
        d = np.linalg.norm(cam.position - center)
        assert d == pytest.approx(2.0, abs=1e-9)
        to_center = (center - cam.position) / d
        assert float(cam.forward @ to_center) == pytest.approx(1.0, abs=1e-9)
    # consecutive positions a quarter turn apart
    for a, b in zip(cams, cams[1:]):
        va = a.position - center
        vb = b.position - center
        assert float(va @ vb) == pytest.approx(0.0, abs=1e-9)


def test_ring_360_unit_degree_steps():
    cams = make_orbit_cameras(np.zeros(3), 1.0, 360, 0.0, "ring", 8, 8, 0.8)
    for a, b in zip(cams, cams[1:]):
        cosang = float(a.position @ b.position) / (
            np.linalg.norm(a.position) * np.linalg.norm(b.position))
        assert math.acos(np.clip(cosang, -1, 1)) == pytest.approx(
            math.radians(1.0), abs=1e-9)


def test_orbit_single_camera_distance():
    for mode in ("ring", "fibonacci_sphere"):
        (cam,) = make_orbit_cameras(np.zeros(3), 1.5, 1, 0.4, mode, 8, 8, 0.8)
        assert np.linalg.norm(cam.position) == pytest.approx(1.5, abs=1e-9)


def test_orbit_zero_count_rejected():
    with pytest.raises(ValueError):
        make_orbit_cameras(np.zeros(3), 1.0, 0, 0.0, "ring", 8, 8, 0.8)


def test_fibonacci_frames_orthonormal():
    cams = make_orbit_cameras(np.zeros(3), 1.0, 17, 0.0, "fibonacci_sphere",
                              8, 8, 0.8)
    assert len(cams) == 17
    for cam in cams:
        m = np.stack([cam.right, cam.up, cam.forward])
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-9)


def test_camera_rejects_skewed_frame():
    with pytest.raises(ValueError):
        Camera(np.zeros(3), np.array([0.0, 1.0, 0.0]),
               np.array([0.0, 1e-3, 1.0]) / np.linalg.norm([0.0, 1e-3, 1.0]),
               np.array([1.0, 0.0, 0.0]), 0.9, 8, 8)


def test_pixel_dirs_unit_length(front_camera):
    rows = np.arange(front_camera.height, dtype=float)
    cols = np.arange(front_camera.width, dtype=float)
    dx, dy, dz = front_camera.pixel_dirs(rows[:, None], cols[None, :])
    norms = np.sqrt(dx * dx + dy * dy + dz * dz)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_ray_requires_unit_dir():
    with pytest.raises(ValueError):
        Ray(np.zeros(3), np.array([1.0, 1.0, 0.0]))


def test_scene_json_round_trip(small_random_scene, tmp_path):
    path = tmp_path / "s.json"
    save_scene(str(path), small_random_scene)
    back = load_scene(str(path))
    assert len(back.gaussians) == len(small_random_scene.gaussians)
    for a, b in zip(small_random_scene.gaussians, back.gaussians):
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.cov, b.cov)
        assert a.alpha == b.alpha and a.g == b.g
        assert np.array_equal(a.l_iso, b.l_iso)
        assert np.array_equal(a.l_aniso, b.l_aniso)
        assert np.array_equal(a.normal, b.normal)
    assert np.array_equal(small_random_scene.background, back.background)


def test_scene_json_cov_upper_triangular_order():
    cov = np.array([[1.0, 0.1, 0.2], [0.1, 2.0, 0.3], [0.2, 0.3, 3.0]]) * 1e-2
    s = Scene.from_gaussians([make_primitive(cov=cov)], background=np.zeros(3))
    doc = scene_to_json(s)
    assert doc["gaussians"][0]["cov"] == [0.01, 0.001, 0.002, 0.02, 0.003, 0.03]


def test_scene_json_rejects_unknown_keys():
    doc = scene_to_json(Scene.from_gaussians([make_primitive()], background=np.zeros(3)))
    doc["gaussians"][0]["extra"] = 1
    with pytest.raises(SceneFormatError):
        scene_from_json(doc)
    doc2 = scene_to_json(Scene.from_gaussians([make_primitive()], background=np.zeros(3)))
    doc2["bogus"] = True
    with pytest.raises(SceneFormatError):
        scene_from_json(doc2)


def test_scene_json_rejects_missing_field():
    doc = scene_to_json(Scene.from_gaussians([make_primitive()], background=np.zeros(3)))
    del doc["gaussians"][0]["alpha"]
    with pytest.raises(SceneFormatError):
        scene_from_json(doc)


def test_load_scene_bad_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    with pytest.raises(SceneFormatError):
        load_scene(str(p))
    with pytest.raises(SceneFormatError):
        load_scene(str(tmp_path / "absent.json"))


def test_make_random_scene_deterministic_and_valid():
    a = make_random_scene(10, seed=3)
    b = make_random_scene(10, seed=3)
    for pa, pb in zip(a.gaussians, b.gaussians):
        assert np.array_equal(pa.mu, pb.mu) and pa.alpha == pb.alpha
    assert validate_scene(a) == []


# ---------------------------------------------------------------------------
# array-backed scene

def _scene_arrays(s):
    return {f.name: getattr(s, f.name) for f in dataclasses.fields(s)
            if isinstance(getattr(s, f.name), np.ndarray)}


def test_render_ignores_mutated_gaussian_view(small_random_scene, ring_camera):
    s = small_random_scene
    render(s, ring_camera)
    s.gaussians[0].alpha = 0.01
    a = render(s, ring_camera)
    b = render(scene_from_json(scene_to_json(s)), ring_camera)
    for x, y in zip(a, b):
        assert np.array_equal(x.data, y.data)


def test_scene_arrays_are_read_only(small_random_scene):
    arrays = _scene_arrays(small_random_scene)
    assert {"mu", "cov", "alpha", "l_iso", "l_aniso", "normal", "g",
            "background"} <= set(arrays)
    for name, a in arrays.items():
        with pytest.raises(ValueError):
            a[...] = 0.0


def test_scene_rejects_mismatched_shapes():
    s = make_random_scene(3, seed=1)
    fields = {k: getattr(s, k) for k in ("mu", "cov", "alpha", "l_iso",
                                          "l_aniso", "normal", "g", "background")}
    for name in fields:
        bad = dict(fields, **{name: fields[name][..., :1]})
        with pytest.raises(ValueError):
            Scene(**bad)


def test_singular_covariance_constructs_but_does_not_render(front_camera):
    p = make_primitive()
    p.cov = np.diag([0.01, 0.01, 0.0])
    s = Scene.from_gaussians([make_primitive(), p], background=np.zeros(3))
    assert validate_scene(s) == ["gaussian 1: cov not positive-definite"]
    with pytest.raises(InvalidPrimitiveError, match="gaussian 1"):
        render(s, front_camera)


@st.composite
def _valid_scenes(draw):
    G = draw(st.integers(0, 4))

    def arr(shape, lo, hi):
        return draw(hnp.arrays(np.float64, shape, elements=st.floats(lo, hi)))

    a = arr((G, 3, 3), -1.0, 1.0)
    scale = arr((G, 1, 1), 1e-3, 10.0)
    cov = scale * scale * (np.einsum("gij,gkj->gik", a, a) + 0.1 * np.eye(3))
    theta, phi = arr((G,), 0.0, math.pi), arr((G,), -math.pi, math.pi)
    normal = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                       np.cos(theta)], axis=1)
    return Scene(mu=arr((G, 3), -1e3, 1e3),
                 cov=0.5 * (cov + np.transpose(cov, (0, 2, 1))),
                 alpha=arr((G,), 1e-6, 1.0), l_iso=arr((G, 3), 0.0, 1.0),
                 l_aniso=arr((G, 3), 0.0, 10.0), normal=normal,
                 g=arr((G,), -0.99, 0.99), background=arr((3,), 0.0, 10.0))


@given(_valid_scenes())
@settings(max_examples=60, deadline=None)
def test_scene_json_round_trips_every_array_bitwise(s):
    assert validate_scene(s) == []
    back = scene_from_json(json.loads(json.dumps(scene_to_json(s))))
    arrays, back_arrays = _scene_arrays(s), _scene_arrays(back)
    assert set(arrays) == set(back_arrays)
    for name, a in arrays.items():
        assert a.shape == back_arrays[name].shape, name
        assert a.tobytes() == back_arrays[name].tobytes(), name
    assert back.radius == s.radius or (math.isnan(back.radius) and math.isnan(s.radius))


_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.integers(-10 ** 400, 10 ** 400), st.floats(),
    st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 1e-300, 0.0, -0.0]),
    st.lists(st.floats(), max_size=7),
    st.lists(st.integers(-10 ** 400, 10 ** 400), max_size=7),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
_SCALES = st.sampled_from([1e300, 1e-300, 1e308, 5e-324, -1.0, 0.0])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_scene_json_raises_only_scene_format_error(data):
    doc = scene_to_json(make_random_scene(2, seed=1))
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(
            ["doc", "top", "drop_top", "extra_top", "entry", "field",
             "drop_field", "extra_field", "element", "scale"]))
        entries = doc.get("gaussians") if isinstance(doc, dict) else None
        entry = None
        if isinstance(entries, list) and entries:
            entry = entries[data.draw(st.integers(0, len(entries) - 1))]
        key = data.draw(st.sampled_from(
            ["mu", "cov", "alpha", "l_iso", "l_aniso", "normal", "g"]))
        if kind == "doc":
            doc = data.draw(_JUNK)
        elif not isinstance(doc, dict):
            continue
        elif kind == "top":
            doc[data.draw(st.sampled_from(["background", "gaussians"]))] = data.draw(_JUNK)
        elif kind == "drop_top":
            doc.pop(data.draw(st.sampled_from(["background", "gaussians"])), None)
        elif kind == "extra_top":
            doc[data.draw(st.text(max_size=4))] = data.draw(_JUNK)
        elif kind == "entry" and isinstance(entries, list) and entries:
            entries[data.draw(st.integers(0, len(entries) - 1))] = data.draw(_JUNK)
        elif not isinstance(entry, dict):
            continue
        elif kind == "field":
            entry[key] = data.draw(_JUNK)
        elif kind == "drop_field":
            entry.pop(key, None)
        elif kind == "extra_field":
            entry[data.draw(st.text(max_size=4))] = data.draw(_JUNK)
        elif isinstance(entry.get(key), list) and entry[key]:
            j = data.draw(st.integers(0, len(entry[key]) - 1))
            if kind == "element":
                entry[key][j] = data.draw(_JUNK)
            elif isinstance(entry[key][j], float):
                entry[key][j] *= data.draw(_SCALES)
    try:
        scene_from_json(doc)
    except SceneFormatError:
        pass


def test_failed_save_leaves_existing_scene_file(tmp_path, monkeypatch,
                                                 small_random_scene):
    path = tmp_path / "s.json"
    save_scene(str(path), small_random_scene)
    before = path.read_bytes()

    def broken(scene):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(scene_module, "scene_to_json", broken)
    with pytest.raises(RuntimeError):
        save_scene(str(path), make_random_scene(3, seed=2))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]
