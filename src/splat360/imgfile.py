"""PPM (P6) and PFM image files, and the writer and readers of every file.

PPM is the 8-bit export format; linear radiance is gamma-2.2 encoded at write
time and decoded back to linear on read. PFM stores raw float32 little-endian
(scale -1.0, bottom-up rows) and is used for depth, transmittance, line
integrals, and fit targets. Both round-trip byte-identically.

Every file this package writes goes through `atomic_write` (temp file +
rename), and each on-disk grammar has one reader here: `read_netpbm` for the
PPM and PFM headers and payloads, `read_header` for `key=value` headers (the
volume header, the fusion head's params file) and `parse_json` for scene
and camera JSON. Each reader raises only its caller's FormatError
subclass, so every loader fails only with FormatError.
"""
from __future__ import annotations

import io
import json
import math
import os
import re
import tempfile

import numpy as np

from .errors import FormatError, ImageFormatError

GAMMA = 2.2
# magic, width, height and a third field, then the one whitespace byte
# before the payload
_NETPBM_HEADER = re.compile(rb"\s*(\S+)\s+(\S+)\s+(\S+)\s+(\S+)\s")


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


def read_file(path: str, error: type[FormatError]) -> bytes:
    """The bytes of the file at `path`; one that cannot be read raises `error`."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in the name
        raise error(f"cannot read {path}: {e}") from e


def read_netpbm(path: str, kind: str, channels: dict[bytes, int], third,
                sample_bytes: int) -> tuple:
    """(third field's value, (height, width, C), payload) of the netpbm file
    at `path`: a magic among `channels`' keys (C is its value), width, height
    and a third field that `third` converts, then one whitespace byte and
    height * width * C samples of `sample_bytes` bytes. Any fault raises
    ImageFormatError naming the format `kind`."""
    buf = read_file(path, ImageFormatError)
    m = _NETPBM_HEADER.match(buf)
    if m is None:
        raise ImageFormatError(f"truncated {kind} header in {path}")
    magic, wtok, htok, ttok = m.groups()
    if magic not in channels:
        raise ImageFormatError(f"bad {kind} magic {magic!r} (expected "
                               + " or ".join(map(repr, channels)) + ")")
    try:
        w, h, value = int(wtok), int(htok), third(ttok)
    except ValueError as e:
        raise ImageFormatError(f"bad {kind} header in {path}: {e}") from e
    if w < 1 or h < 1:
        raise ImageFormatError(f"bad {kind} dimensions {w}x{h}")
    shape = (h, w, channels[magic])
    need = h * w * shape[2] * sample_bytes
    body = buf[m.end():m.end() + need]
    if len(body) != need:
        raise ImageFormatError(
            f"{kind} payload short: expected {need} bytes, got {len(body)}")
    return value, shape, body


def read_header(path: str, keys: tuple, error: type[FormatError],
                payload: bool = False) -> tuple[dict[str, str], bytes]:
    """(key -> value text, the bytes after the header) of the file at `path`,
    whose header holds every key in `keys` once and no other.

    Header lines are UTF-8 `key=value`, key and value stripped of spaces;
    blank and `#` lines are skipped. With `payload`, the header ends at the
    line that completes `keys`; otherwise the whole file is header. Any
    fault raises `error`.
    """
    f = io.BytesIO(read_file(path, error))
    fields: dict[str, str] = {}
    for raw in iter(f.readline, b""):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as e:
            raise error(f"cannot read header of {path}: {e}") from e
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"bad header line (need key=value): {line!r}")
        k, v = (t.strip() for t in line.split("=", 1))
        if k not in keys:
            raise error(f"unknown header key {k!r}")
        if k in fields:
            raise error(f"duplicate header key {k!r}")
        fields[k] = v
        if payload and len(fields) == len(keys):
            break
    for k in keys:
        if k not in fields:
            raise error(f"missing header key {k!r}")
    return fields, f.read()


def parse_json(data: bytes | str, error: type[FormatError], what: str):
    """The JSON value in `data`, UTF-8 if bytes, with the non-finite
    constants NaN and +-Infinity refused. Bytes that are not UTF-8, text
    that is not JSON and nesting too deep for the parser raise `error`,
    its message naming the document `what`."""
    def refuse(name):
        raise error(f"{what}: non-finite JSON constant {name!r} not allowed")

    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text, parse_constant=refuse)
    except (ValueError, RecursionError) as e:
        # ValueError: JSONDecodeError, UnicodeDecodeError, an integer of
        # more digits than int() takes
        raise error(f"{what} is not valid JSON: {e}") from e


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


def load_ppm(path: str) -> np.ndarray:
    """Read binary PPM (P6) to linear HxWx3 float64 in [0,1]."""
    maxval, shape, body = read_netpbm(path, "PPM", {b"P6": 3}, int, 1)
    if maxval != 255:
        raise ImageFormatError(f"unsupported PPM maxval {maxval} (expected 255)")
    return decode_gamma(np.frombuffer(body, dtype=np.uint8).reshape(shape))


def save_pfm(path: str, data: np.ndarray) -> None:
    """Write HxWx1 or HxWx3 floats as little-endian PFM (scale -1.0).

    A value that is not finite as float32 raises ImageFormatError and
    nothing is written: `load_pfm` refuses it.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise ImageFormatError("PFM expects HxWx1 or HxWx3")
    h, w, c = arr.shape
    magic = b"PF" if c == 3 else b"Pf"
    with np.errstate(over="ignore"):  # an overflow is refused just below
        f32 = arr.astype("<f4")
    if not np.isfinite(f32).all():
        raise ImageFormatError("PFM export requires values finite as float32")
    body = f32[::-1].tobytes()  # PFM rows run bottom to top
    atomic_write(path, magic + f"\n{w} {h}\n-1.0\n".encode("ascii") + body)


def load_pfm(path: str) -> np.ndarray:
    """Read PFM to HxWxC float64, C 1 or 3, row 0 on top.

    Pixels that are not finite after scaling raise ImageFormatError, so the
    result always passes `scene.image_array`.
    """
    scale, shape, body = read_netpbm(path, "PFM", {b"PF": 3, b"Pf": 1}, float, 4)
    if scale == 0.0 or not math.isfinite(scale):
        raise ImageFormatError(f"PFM scale must be finite and nonzero, got {scale}")
    dt = "<f4" if scale < 0 else ">f4"
    img = np.frombuffer(body, dtype=dt).reshape(shape)[::-1]
    mag = abs(scale)
    if not (np.isfinite(img).all()
            and math.isfinite(float(np.abs(img).max()) * mag)):
        raise ImageFormatError("PFM pixels must be finite after scaling")
    out = img.astype(np.float64)
    if mag != 1.0:
        out = out * mag
    return out
