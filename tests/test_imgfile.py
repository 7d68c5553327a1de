"""PPM and PFM readers/writers and the gamma transfer curve."""
import numpy as np
import pytest

from splat360 import (ImageFormatError, decode_gamma, encode_gamma, load_pfm,
                      load_ppm, save_pfm, save_ppm)


def test_gamma_endpoints_and_monotone():
    assert encode_gamma(np.array(0.0)) == 0
    assert encode_gamma(np.array(1.0)) == 255
    ramp = encode_gamma(np.linspace(0, 1, 64))
    assert np.all(np.diff(ramp.astype(int)) >= 0)
    # values past the ends clamp
    assert encode_gamma(np.array(1.5)) == 255
    assert encode_gamma(np.array(-0.2)) == 0


def test_gamma_round_trip_through_bytes():
    # byte -> linear -> byte is the identity on all 256 codes
    codes = np.arange(256, dtype=np.uint8)
    assert np.array_equal(encode_gamma(decode_gamma(codes)), codes)


def test_ppm_round_trip_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.random((5, 7, 3))
    p1 = tmp_path / "a.ppm"
    p2 = tmp_path / "b.ppm"
    save_ppm(str(p1), img)
    back = load_ppm(str(p1))
    save_ppm(str(p2), back)
    assert p1.read_bytes() == p2.read_bytes()
    assert back.shape == (5, 7, 3)
    # linear-space quantization step peaks at ~gamma/255 near white
    assert np.max(np.abs(back - img)) < 0.5 * 2.2 / 255.0 + 1e-6


def test_ppm_header_layout(tmp_path):
    p = tmp_path / "c.ppm"
    save_ppm(str(p), np.zeros((2, 3, 3)))
    raw = p.read_bytes()
    assert raw.startswith(b"P6\n3 2\n255\n")
    assert len(raw) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3


def test_ppm_rejects_bad_input(tmp_path):
    with pytest.raises(ImageFormatError):
        save_ppm(str(tmp_path / "x.ppm"), np.zeros((4, 4)))
    with pytest.raises(ImageFormatError):
        save_ppm(str(tmp_path / "x.ppm"), np.full((4, 4, 3), np.nan))


def test_ppm_load_errors(tmp_path):
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(ImageFormatError):
        load_ppm(str(bad))
    short = tmp_path / "short.ppm"
    short.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
    with pytest.raises(ImageFormatError):
        load_ppm(str(short))
    weird = tmp_path / "weird.ppm"
    weird.write_bytes(b"P6\n2 2\n65535\n" + b"\x00" * 24)
    with pytest.raises(ImageFormatError):
        load_ppm(str(weird))
    trunc = tmp_path / "trunc.ppm"
    trunc.write_bytes(b"P6\n2")
    with pytest.raises(ImageFormatError):
        load_ppm(str(trunc))


def test_pfm_rgb_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.standard_normal((6, 4, 3))
    p1 = tmp_path / "a.pfm"
    p2 = tmp_path / "b.pfm"
    save_pfm(str(p1), img)
    back = load_pfm(str(p1))
    assert back.shape == (6, 4, 3)
    # exact at float32 precision, byte identical on rewrite
    assert np.array_equal(back, img.astype(np.float32).astype(np.float64))
    save_pfm(str(p2), back)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().startswith(b"PF\n4 6\n-1.0\n")


def test_pfm_single_channel_magic(tmp_path):
    p = tmp_path / "d.pfm"
    save_pfm(str(p), np.arange(12.0).reshape(3, 4))
    assert p.read_bytes().startswith(b"Pf\n4 3\n-1.0\n")
    back = load_pfm(str(p))
    assert back.shape == (3, 4, 1)
    assert np.array_equal(back[:, :, 0], np.arange(12.0).reshape(3, 4))


def test_pfm_row_order_bottom_up(tmp_path):
    # the first payload row holds the image's bottom row
    img = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
    p = tmp_path / "rows.pfm"
    save_pfm(str(p), img)
    raw = p.read_bytes()
    payload = raw[len(b"Pf\n2 2\n-1.0\n"):]
    first_row = np.frombuffer(payload[:8], dtype="<f4")
    assert np.array_equal(first_row, [3.0, 4.0])
    assert np.array_equal(load_pfm(str(p))[:, :, 0], img[:, :, 0])


def test_pfm_positive_scale_big_endian(tmp_path):
    # scale > 0 marks big-endian payloads; magnitude rescales values
    vals = np.array([[1.5, -2.25]], dtype=">f4")
    p = tmp_path / "be.pfm"
    p.write_bytes(b"Pf\n2 1\n2.0\n" + vals.tobytes())
    back = load_pfm(str(p))
    assert np.array_equal(back[:, :, 0], [[3.0, -4.5]])


def test_pfm_load_errors(tmp_path):
    bad = tmp_path / "bad.pfm"
    bad.write_bytes(b"PX\n2 2\n-1.0\n" + b"\x00" * 32)
    with pytest.raises(ImageFormatError):
        load_pfm(str(bad))
    short = tmp_path / "short.pfm"
    short.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\x00" * 7)
    with pytest.raises(ImageFormatError):
        load_pfm(str(short))
    zscale = tmp_path / "z.pfm"
    zscale.write_bytes(b"Pf\n1 1\n0.0\n" + b"\x00" * 4)
    with pytest.raises(ImageFormatError):
        load_pfm(str(zscale))


def test_pfm_save_refuses_values_its_reader_refuses(tmp_path):
    # NaN was written as is and 1e300 as inf, files load_pfm refuses; the
    # largest float32 is the last value written
    top = np.full((1, 2, 1), np.finfo(np.float32).max, dtype=np.float64)
    save_pfm(str(tmp_path / "top.pfm"), top)
    assert np.array_equal(load_pfm(str(tmp_path / "top.pfm")), top)
    for value in (np.nan, np.inf, -np.inf, 1e300, -1e39):
        img = np.zeros((2, 2, 3))
        img[1, 0, 2] = value
        with pytest.raises(ImageFormatError):
            save_pfm(str(tmp_path / "x.pfm"), img)
        assert not (tmp_path / "x.pfm").exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["top.pfm"]


def test_pfm_rejects_bad_shape(tmp_path):
    with pytest.raises(ImageFormatError):
        save_pfm(str(tmp_path / "x.pfm"), np.zeros((2, 2, 2)))
