"""Domain types: scene arrays and validation, cameras, JSON I/O."""
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from splat360 import (Camera, ImageBuffer, InvalidPrimitiveError, Scene,
                      SceneFormatError, composite_loss, depth_gradient, load_scene, make_orbit_cameras,
                      make_random_scene, psnr, render, save_scene,
                      scene_from_json, scene_to_json, select_anchors, ssim,
                      validate_scene)
from splat360 import scene as scene_module
from splat360.scene import image_array, perturb_appearance
from conftest import dense_composite, kernel_samples, make_scene


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_eval_rotation_invariant(seed):
    # rotating the splat (mu, cov, normal) and the ray together leaves the
    # kernel's weight and t unchanged; the ray passes within half a sigma of
    # the center, 10 units past its origin
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 3 * np.eye(3))
    mu = rng.normal(size=3)
    w = rng.standard_normal((3, 3))
    cov = w @ w.T + 0.05 * np.eye(3)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    z = rng.normal(size=3)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    origin = mu + np.linalg.cholesky(cov) @ (0.5 * z / np.linalg.norm(z)) - 10 * d
    samples = []
    for r in (np.eye(3), q):
        s = make_scene(mu=r @ mu, cov=r @ cov @ r.T, alpha=0.9,
                       normal=r @ n / np.linalg.norm(r @ n))
        samples += kernel_samples(
            dense_composite(s, r @ origin, (r @ d)[None], tape=True)[-1], 0)
    a, b = samples
    assert b.weight == pytest.approx(a.weight, rel=1e-12)
    assert b.t == pytest.approx(a.t, rel=1e-12)


def test_validate_clean_scene_empty():
    s = make_scene()
    assert validate_scene(s) == []


def test_validate_flags_g_out_of_range():
    out = validate_scene(make_scene(g=1.5))
    assert len(out) == 1 and "g" in out[0]


def test_validate_flags_asymmetric_cov():
    cov = np.array([[0.01, 0.002, 0.0], [0.0, 0.01, 0.0], [0.0, 0.0, 0.01]])
    out = validate_scene(make_scene(cov=cov))
    assert any("symmetric" in v for v in out)


def test_scene_bounds_cover_three_sigma():
    mu = np.array([1.0, -2.0, 0.5])
    s = make_scene(mu=mu, sigma=0.2)
    assert np.all(s.bounds_min <= mu - 3 * 0.2 + 1e-12)
    assert np.all(s.bounds_max >= mu + 3 * 0.2 - 1e-12)
    r = np.linalg.norm(mu - s.center) + 3 * 0.2
    assert s.radius >= r - 1e-9


def test_scene_bounds_recomputed_on_rebuild():
    s = make_scene()
    s2 = dataclasses.replace(s, mu=[(5.0, 0.0, 0.0)])
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


@pytest.mark.parametrize("field,value", [
    ("position", [np.inf, 0.0, 0.0]), ("forward", [np.nan] * 3),
    ("up", [0.0, 0.0, np.nan]), ("right", [np.inf, 0.0, 0.0]),
    ("near", np.inf)],
    ids=["position_inf", "forward_nan", "up_nan", "right_inf", "near_inf"])
def test_camera_rejects_non_finite(field, value):
    frame = {"position": np.zeros(3), "forward": np.array([0.0, 1.0, 0.0]),
             "up": np.array([0.0, 0.0, 1.0]), "right": np.array([1.0, 0.0, 0.0])}
    Camera(**frame, fov_y=0.9, width=8, height=8)
    with pytest.raises(ValueError):
        Camera(**{**frame, field: value}, fov_y=0.9, width=8, height=8)


@pytest.mark.parametrize("sizes", [{"width": 64.9}, {"height": True},
                                   {"width": 8.0}, {"height": "8"}],
                         ids=["fraction", "bool", "integral_float", "string"])
def test_camera_rejects_sizes_that_are_not_integers(sizes):
    # 64.9 used to build a 64-pixel image and True a 1-pixel one
    frame = {"position": np.zeros(3), "forward": np.array([0.0, 1.0, 0.0]),
             "up": np.array([0.0, 0.0, 1.0]), "right": np.array([1.0, 0.0, 0.0])}
    cam = Camera(**frame, fov_y=0.9, width=np.int64(8), height=8)
    assert type(cam.width) is int
    with pytest.raises(ValueError, match="integer"):
        Camera(**{"width": 8, "height": 8, **sizes}, **frame, fov_y=0.9)


def test_scene_json_round_trip(small_random_scene, tmp_path):
    path = tmp_path / "s.json"
    save_scene(str(path), small_random_scene)
    back = load_scene(str(path))
    for name in ("mu", "cov", "alpha", "l_iso", "l_aniso", "normal", "g",
                 "background"):
        assert np.array_equal(getattr(small_random_scene, name),
                              getattr(back, name)), name


def test_scene_json_cov_upper_triangular_order():
    cov = np.array([[1.0, 0.1, 0.2], [0.1, 2.0, 0.3], [0.2, 0.3, 3.0]]) * 1e-2
    doc = scene_to_json(make_scene(cov=cov))
    assert doc["gaussians"][0]["cov"] == [0.01, 0.001, 0.002, 0.02, 0.003, 0.03]


def test_scene_json_rejects_unknown_keys():
    doc = scene_to_json(make_scene())
    doc["gaussians"][0]["extra"] = 1
    with pytest.raises(SceneFormatError):
        scene_from_json(doc)
    doc2 = scene_to_json(make_scene())
    doc2["bogus"] = True
    with pytest.raises(SceneFormatError):
        scene_from_json(doc2)


def test_scene_json_rejects_missing_field():
    doc = scene_to_json(make_scene())
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
    assert np.array_equal(a.mu, b.mu) and np.array_equal(a.alpha, b.alpha)
    assert validate_scene(a) == []


# ---------------------------------------------------------------------------
# array-backed scene

def _scene_arrays(s):
    return {f.name: getattr(s, f.name) for f in dataclasses.fields(s)
            if isinstance(getattr(s, f.name), np.ndarray)}


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


def test_scenes_share_only_the_last_covariance_factorisation():
    a = make_random_scene(5, seed=2)
    b = dataclasses.replace(a, alpha=a.alpha * 0.5, mu=a.mu + 1.0)
    assert b.cov_inv is a.cov_inv and b.singular is a.singular
    assert np.allclose(b.bounds_min, a.bounds_min + 1.0)
    c = dataclasses.replace(a, cov=a.cov * 2.0)
    assert c.cov_inv is not a.cov_inv
    assert np.array_equal(c.cov_inv, a.cov_inv / 2.0)
    d = dataclasses.replace(a, alpha=a.alpha * 0.5)  # factorised again
    assert d.cov_inv is not a.cov_inv
    for name in ("cov_inv", "singular", "bounds_min", "bounds_max", "center"):
        assert getattr(d, name).tobytes() == getattr(a, name).tobytes(), name
    assert d.radius == a.radius


def test_singular_covariance_constructs_but_does_not_render(front_camera):
    s = make_scene(mu=np.zeros((2, 3)),
                   cov=[np.eye(3) * 0.01, np.diag([0.01, 0.01, 0.0])])
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


def test_image_array_reads_2d_as_one_channel_and_passes_buffers_through():
    arr = image_array(np.arange(6).reshape(2, 3))
    assert arr.shape == (2, 3, 1) and arr.dtype == np.float64
    buf = ImageBuffer(arr)
    assert image_array(buf) is buf.data
    assert (buf.height, buf.width) == (2, 3)


@pytest.mark.parametrize("shape", [(4,), (2, 3, 2), (2, 3, 4), (1, 2, 3, 1)])
def test_image_array_rejects_channel_counts_other_than_1_and_3(shape):
    with pytest.raises(ValueError, match="HxWx1 or HxWx3"):
        image_array(np.zeros(shape))


# public functions that take an image, each handed the bad one
_IMAGE_TAKERS = {
    "ImageBuffer": ImageBuffer,
    "psnr": lambda img: psnr(img, np.zeros_like(img)),
    "ssim": lambda img: ssim(np.zeros_like(img), img),
    "composite_loss": lambda img: composite_loss(img, np.zeros_like(img)),
    "depth_gradient": depth_gradient,
    "select_anchors": lambda img: select_anchors(img, k=3),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("take", list(_IMAGE_TAKERS.values()),
                         ids=list(_IMAGE_TAKERS))
def test_every_image_taker_rejects_non_finite_values(take, bad):
    img = np.ones((8, 8))
    img[3, 4] = bad
    with pytest.raises(ValueError, match="finite"):
        take(img)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("take", ["depth_gradient", "select_anchors"])
def test_a_value_written_into_a_buffer_is_checked_again(take, bad):
    # an ImageBuffer's array stays writable, so each taker checks it on read
    buf = ImageBuffer(np.ones((8, 8)))
    buf.data[3, 4, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        _IMAGE_TAKERS[take](buf)


def test_perturb_appearance_repeats_keeps_geometry_and_clips(small_random_scene):
    # values on the clip bounds, so that roughly half of the draws cross them
    G = small_random_scene.alpha.size
    base = dataclasses.replace(
        small_random_scene, alpha=np.full(G, 1.0), l_iso=np.full((G, 3), 1.0),
        g=np.where(np.arange(G) % 2 == 0, 0.999, -0.999))
    first = perturb_appearance(base, seed=4, rel=0.5)
    again = perturb_appearance(base, seed=4, rel=0.5)
    names = ("alpha", "l_iso", "l_aniso", "g")
    for name in names:
        assert getattr(first, name).tobytes() == getattr(again, name).tobytes()
    other = perturb_appearance(base, seed=5, rel=0.5)
    assert any(not np.array_equal(getattr(first, n), getattr(other, n))
               for n in names)
    for seed in range(20):
        s = perturb_appearance(base, seed=seed, rel=0.5)
        assert s.mu.tobytes() == base.mu.tobytes()
        assert s.cov.tobytes() == base.cov.tobytes()
        assert ((s.alpha >= 1e-4) & (s.alpha <= 1.0)).all()
        assert ((s.l_iso >= 0.0) & (s.l_iso <= 1.0)).all()
        assert (s.l_aniso >= 0.0).all()
        assert ((s.g >= -0.999) & (s.g <= 0.999)).all()
    # alpha's lower clip
    tiny = perturb_appearance(dataclasses.replace(base, alpha=np.full(G, 1e-4)),
                              seed=4, rel=0.5)
    assert tiny.alpha.min() == 1e-4
