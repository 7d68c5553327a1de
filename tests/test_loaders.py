"""Every file loader fails only with FormatError: known defects, then fuzzing."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splat360 import (FormatError, ParamsFormatError, SceneFormatError,
                      fusion, load_mlp, load_pfm, load_ppm, load_scene,
                      load_volume, make_random_scene, make_sphere_phantom,
                      save_scene, save_volume)
from splat360.cli import EXIT_FORMAT, main
from splat360.scene import camera_to_doc, load_camera_json, make_orbit_cameras


def _write(path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


def _params_bytes(layers, d, seed, n_values) -> bytes:
    header = f"layers={' '.join(map(str, layers))}\nd={d}\nseed={seed}\n"
    return header.encode() + np.zeros(n_values).astype("<f8").tobytes()


def _n_params(layers) -> int:
    return sum(n * m + n for m, n in zip(layers, layers[1:]))


# ---------------------------------------------------------------------------
# defects, one test each

@pytest.mark.parametrize("header", [
    b"dims=1 1 1\n\xff\xfe\n",
    b"dims=1 1 1\nspacing=1 1 1\norigin=0 0 0\ndata=a\x00b\ndtype=int16le\n"])
def test_volume_header_bytes(tmp_path, header):
    with pytest.raises(FormatError):
        load_volume(_write(tmp_path / "v.vol", header))


def test_scene_file_not_utf8(tmp_path):
    save_scene(str(tmp_path / "s.json"), make_random_scene(2, seed=0))
    text = (tmp_path / "s.json").read_bytes()
    with pytest.raises(FormatError):
        load_scene(_write(tmp_path / "s.json", text + b"\xff"))


def test_camera_file_not_utf8_exits_with_format_code(tmp_path):
    scene = make_random_scene(2, seed=0)
    save_scene(str(tmp_path / "s.json"), scene)
    cam = make_orbit_cameras(scene.center, 2.0, 1, 0.3, "ring", 8, 8, 0.9)[0]
    text = json.dumps(camera_to_doc(cam)).encode() + b"\xff"
    path = _write(tmp_path / "c.json", text)
    with pytest.raises(FormatError):
        load_camera_json(path)
    code = main(["render", "--scene", str(tmp_path / "s.json"), "--camera", path,
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_FORMAT


def _camera_doc():
    scene = make_random_scene(2, seed=0)
    return camera_to_doc(make_orbit_cameras(scene.center, 2.0, 1, 0.3, "ring",
                                            8, 8, 0.9)[0])


@pytest.mark.parametrize("key,text", [
    ("width", "1e400"), ("width", "true"), ("width", "3.5"), ("height", "true"),
    ("position", "[1" + "0" * 400 + ", 0, 0]"), ("forward", "[NaN, NaN, NaN]"),
    ("position", "[Infinity, 0, 0]"), ("fov_y", '"0.9"'), ("fov_y", "true"),
    ("near", '"0.01"'), ("near", "true"), ("position", '["0.0", "0.0", "-1.0"]'),
    ("position", "[0, false, 0]")],
    ids=["overflow", "bool", "fraction", "height_bool", "position_overflow",
         "forward_nan", "position_inf", "fov_string", "fov_bool", "near_string",
         "near_bool", "position_strings", "position_bool"])
def test_camera_json_rejects_bad_sizes_with_format_code(tmp_path, key, text):
    doc = _camera_doc()
    doc[key] = "@"
    path = _write(tmp_path / "c.json", json.dumps(doc).replace('"@"', text).encode())
    with pytest.raises(FormatError):
        load_camera_json(path)
    save_scene(str(tmp_path / "s.json"), make_random_scene(2, seed=0))
    code = main(["render", "--scene", str(tmp_path / "s.json"), "--camera", path,
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_FORMAT


@pytest.mark.parametrize("key", ["nera", "fov", "Width"])
def test_camera_json_rejects_unknown_keys_with_format_code(tmp_path, key):
    # a misspelt "near" used to load with the default near plane
    doc = _camera_doc()
    doc[key] = 5
    path = _write(tmp_path / "c.json", json.dumps(doc).encode())
    with pytest.raises(FormatError, match=key):
        load_camera_json(path)
    save_scene(str(tmp_path / "s.json"), make_random_scene(2, seed=0))
    code = main(["render", "--scene", str(tmp_path / "s.json"), "--camera", path,
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_FORMAT


@pytest.mark.parametrize("d,seed", [(5, 0), (16, -1)])
def test_params_header_values_init_mlp_rejects(tmp_path, d, seed):
    layers = [9 + d, 32, 32, 3]
    path = _write(tmp_path / "m.params",
                  _params_bytes(layers, d, seed, _n_params(layers)))
    with pytest.raises(ParamsFormatError):
        load_mlp(path)


def test_params_payload_length_checked_before_building(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("init_mlp called before the length check")

    monkeypatch.setattr(fusion, "init_mlp", refuse)
    layers = [9 + 16, 32, 32, 3]
    path = _write(tmp_path / "m.params", _params_bytes(layers, 16, 0, 5))
    with pytest.raises(ParamsFormatError):
        load_mlp(path)


@pytest.mark.parametrize("scale,value", [(b"nan", 1.0), (b"inf", 1.0),
                                         (b"-inf", 1.0), (b"-1e300", 1e30),
                                         (b"-1.0", np.nan), (b"-1.0", np.inf)])
def test_pfm_non_finite_image(tmp_path, scale, value):
    data = b"Pf\n1 1\n" + scale + b"\n" + np.full(1, value, "<f4").tobytes()
    with pytest.raises(FormatError):
        load_pfm(_write(tmp_path / "x.pfm", data))


@pytest.mark.parametrize("text", [b"[" * 100_000, b"[1" + b"0" * 5000 + b"]"],
                         ids=["deep", "long_int"])
@pytest.mark.parametrize("load, error", [
    (load_scene, SceneFormatError), (load_camera_json, FormatError)],
    ids=["scene", "camera"])
def test_json_past_the_parsers_limits(tmp_path, load, error, text):
    # the parser's recursion limit escaped as RecursionError, and int()'s
    # digit limit as a ValueError that is no JSONDecodeError
    with pytest.raises(error):
        load(_write(tmp_path / "x.json", text))


def test_deeply_nested_scene_exits_with_format_code(tmp_path):
    path = _write(tmp_path / "deep.json", b"[" * 100_000)
    code = main(["render", "--scene", path, "--out", str(tmp_path / "out")])
    assert code == EXIT_FORMAT


# ---------------------------------------------------------------------------
# fuzzing: any bytes in, a value or FormatError out

def _mutated(data: st.DataObject, blob: bytes) -> bytes:
    """blob with up to three byte-range replacements, insertions or cuts."""
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(st.integers(0, len(blob)))
        j = data.draw(st.integers(i, min(len(blob), i + 8)))
        blob = blob[:i] + data.draw(st.binary(max_size=8)) + blob[j:]
    return blob


_token = st.one_of(st.integers(-3, 64).map(str),
                   st.sampled_from(["nan", "inf", "-0", "1e400", "", "x", "9" * 30]),
                   st.text(max_size=6))
# no path separators: a fuzzed data= name must stay inside the test directory
_name = st.text(alphabet=st.characters(blacklist_characters="/\\"), max_size=8)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_volume_raises_only_format_error(tmp_path_factory, data):
    d = tmp_path_factory.mktemp("vol")
    n = data.draw(st.integers(1, 4))
    save_volume(str(d / "v.vol"), make_sphere_phantom(n, 1.0, 1.0))
    lines = {"dims": " ".join(data.draw(st.lists(_token, min_size=2, max_size=4))),
             "spacing": "1 1 1", "origin": "0 0 0", "data": "v.raw",
             "dtype": "int16le"}
    for key in data.draw(st.lists(st.sampled_from(sorted(lines)), max_size=2)):
        lines[key] = data.draw(_name if key == "data" else _token)
    if data.draw(st.booleans()):
        lines["dims"] = f"{n} {n} {n}"
    header = "".join(f"{k}={v}\n" for k, v in lines.items()).encode("utf-8", "replace")
    _write(d / "v.vol", _mutated(data, header))
    _write(d / "v.raw", _mutated(data, (d / "v.raw").read_bytes()))
    try:
        vol = load_volume(str(d / "v.vol"))
    except FormatError:
        return
    assert vol.hu.size == vol.dims[0] * vol.dims[1] * vol.dims[2]


def _image_bytes(data, magics, scale_token):
    w = data.draw(st.integers(-1, 8))
    h = data.draw(st.integers(-1, 8))
    fields = [data.draw(st.sampled_from(magics)),
              data.draw(st.one_of(st.just(str(w)), _token)),
              data.draw(st.one_of(st.just(str(h)), _token)),
              data.draw(scale_token)]
    head = "\n".join(fields).encode("utf-8", "replace") + b"\n"
    body = data.draw(st.binary(min_size=max(w * h * 12 - 4, 0),
                               max_size=max(w * h * 12 + 4, 4)))
    return _mutated(data, head + body)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_pfm_raises_only_format_error(tmp_path_factory, data):
    scale = st.one_of(st.floats().map(repr), st.just("-1.0"), _token)
    path = _write(tmp_path_factory.mktemp("pfm") / "x.pfm",
                  _image_bytes(data, ["PF", "Pf", "P6", ""], scale))
    try:
        img = load_pfm(path)
    except FormatError:
        return
    assert img.ndim == 3 and img.shape[2] in (1, 3) and np.isfinite(img).all()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_ppm_raises_only_format_error(tmp_path_factory, data):
    maxval = st.one_of(st.just("255"), _token)
    path = _write(tmp_path_factory.mktemp("ppm") / "x.ppm",
                  _image_bytes(data, ["P6", "P3", "PF", ""], maxval))
    try:
        img = load_ppm(path)
    except FormatError:
        return
    assert img.ndim == 3 and img.shape[2] == 3
    assert np.all((img >= 0.0) & (img <= 1.0))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_params_raise_only_format_error(tmp_path_factory, data):
    d = data.draw(st.integers(0, 64))
    layers = data.draw(st.one_of(st.just([9 + d, 32, 32, 3]),
                                 st.lists(st.integers(0, 64), max_size=5)))
    seed = data.draw(st.one_of(st.integers(-3, 2 ** 70), _token))
    n = data.draw(st.one_of(st.just(max(_n_params(layers), 0)),
                            st.integers(0, 4000)))
    blob = _params_bytes(layers, d, seed, n)
    path = _write(tmp_path_factory.mktemp("mlp") / "m.params", _mutated(data, blob))
    try:
        mlp = load_mlp(path)
    except FormatError:
        return
    assert np.isfinite(mlp.to_flat()).all()


_number = st.one_of(st.integers(-3, 40), st.floats(), st.text(max_size=3),
                    st.none())
_json_value = st.one_of(_number, st.booleans(), st.integers(2 ** 62, 2 ** 70),
                        st.just(float("inf")))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_camera_json_raises_only_format_error(tmp_path_factory, data):
    doc = _camera_doc()
    for key in data.draw(st.lists(st.sampled_from(sorted(doc)), max_size=3)):
        if data.draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = data.draw(st.one_of(_json_value,
                                           st.lists(_json_value, max_size=4)))
    text = json.dumps(doc).encode()
    if data.draw(st.booleans()):
        text = _mutated(data, text)
    path = _write(tmp_path_factory.mktemp("cam") / "c.json", text)
    try:
        cam = load_camera_json(path)
    except FormatError:
        return
    assert type(cam.width) is int and type(cam.height) is int
    assert cam.width >= 1 and cam.height >= 1
    assert 0.0 < cam.fov_y < np.pi
