"""PPM (P6) and PFM image files.

PPM is the 8-bit export format; linear radiance is gamma-2.2 encoded at write
time and decoded back to linear on read. PFM stores raw float32 little-endian
(scale -1.0, bottom-up rows) and is used for depth, transmittance, line
integrals, and fit targets. Both writers are atomic (temp file + rename) and
round-trip byte-identically.
"""
from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from .errors import ImageFormatError

GAMMA = 2.2


def atomic_write(path: str, payload: bytes) -> None:
    """Write `payload` to `path` through a temp file and a rename, so a failed
    write leaves an existing file untouched and no temp file behind."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def encode_gamma(linear: np.ndarray) -> np.ndarray:
    """Linear [0,1] floats to 8-bit sRGB-like values (pure 2.2 curve)."""
    x = np.clip(linear, 0.0, 1.0)
    return np.rint(x ** (1.0 / GAMMA) * 255.0).astype(np.uint8)


def decode_gamma(byte_img: np.ndarray) -> np.ndarray:
    return (byte_img.astype(np.float64) / 255.0) ** GAMMA


def save_ppm(path: str, linear: np.ndarray) -> None:
    """Write HxWx3 linear floats as binary PPM (P6), gamma encoded."""
    arr = np.asarray(linear, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ImageFormatError("PPM expects an HxWx3 array")
    if not np.isfinite(arr).all():
        raise ImageFormatError("PPM export requires finite values")
    h, w = arr.shape[:2]
    body = encode_gamma(arr).tobytes()
    atomic_write(path, f"P6\n{w} {h}\n255\n".encode("ascii") + body)


def _read_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    n = len(buf)
    while pos < n and buf[pos:pos + 1].isspace():
        pos += 1
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ImageFormatError("truncated header")
    return buf[start:pos], pos


def load_ppm(path: str) -> np.ndarray:
    """Read binary PPM (P6) to linear HxWx3 float64 in [0,1]."""
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as e:
        raise ImageFormatError(f"cannot read image file {path}: {e}") from e
    try:
        magic, pos = _read_token(buf, 0)
        if magic != b"P6":
            raise ImageFormatError(f"bad PPM magic {magic!r} (expected P6)")
        wtok, pos = _read_token(buf, pos)
        htok, pos = _read_token(buf, pos)
        mtok, pos = _read_token(buf, pos)
        w, h, maxval = int(wtok), int(htok), int(mtok)
    except ImageFormatError:
        raise
    except ValueError as e:
        raise ImageFormatError(f"bad PPM header in {path}: {e}") from e
    if w < 1 or h < 1:
        raise ImageFormatError(f"bad PPM dimensions {w}x{h}")
    if maxval != 255:
        raise ImageFormatError(f"unsupported PPM maxval {maxval} (expected 255)")
    pos += 1  # single whitespace byte after maxval
    need = w * h * 3
    body = buf[pos:pos + need]
    if len(body) != need:
        raise ImageFormatError(
            f"PPM payload short: expected {need} bytes, got {len(body)}")
    img = np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3)
    return decode_gamma(img)


def save_pfm(path: str, data: np.ndarray) -> None:
    """Write HxWx1 or HxWx3 floats as little-endian PFM (scale -1.0)."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise ImageFormatError("PFM expects HxWx1 or HxWx3")
    h, w, c = arr.shape
    magic = b"PF" if c == 3 else b"Pf"
    f32 = arr.astype("<f4")
    body = f32[::-1].tobytes()  # PFM rows run bottom to top
    atomic_write(path, magic + f"\n{w} {h}\n-1.0\n".encode("ascii") + body)


def load_pfm(path: str) -> np.ndarray:
    """Read PFM to HxWxC float64, C 1 or 3, row 0 on top.

    Pixels that are not finite after scaling raise ImageFormatError, so the
    result always passes `scene.image_array`.
    """
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as e:
        raise ImageFormatError(f"cannot read image file {path}: {e}") from e
    magic, pos = _read_token(buf, 0)
    if magic == b"PF":
        c = 3
    elif magic == b"Pf":
        c = 1
    else:
        raise ImageFormatError(f"bad PFM magic {magic!r}")
    try:
        wtok, pos = _read_token(buf, pos)
        htok, pos = _read_token(buf, pos)
        stok, pos = _read_token(buf, pos)
        w, h, scale = int(wtok), int(htok), float(stok)
    except ValueError as e:
        raise ImageFormatError(f"bad PFM header in {path}: {e}") from e
    if w < 1 or h < 1:
        raise ImageFormatError(f"bad PFM dimensions {w}x{h}")
    if scale == 0.0 or not math.isfinite(scale):
        raise ImageFormatError(f"PFM scale must be finite and nonzero, got {scale}")
    pos += 1
    need = w * h * c * 4
    body = buf[pos:pos + need]
    if len(body) != need:
        raise ImageFormatError(
            f"PFM payload short: expected {need} bytes, got {len(body)}")
    dt = "<f4" if scale < 0 else ">f4"
    img = np.frombuffer(body, dtype=dt).reshape(h, w, c)[::-1]
    mag = abs(scale)
    if not (np.isfinite(img).all()
            and math.isfinite(float(np.abs(img).max()) * mag)):
        raise ImageFormatError("PFM pixels must be finite after scaling")
    out = img.astype(np.float64)
    if mag != 1.0:
        out = out * mag
    return out
