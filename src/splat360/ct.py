"""CT volume handling and Beer-Lambert projection (DRR synthesis).

A volume stores Hounsfield units on a regular grid. Attenuation is
mu_water * (1 + HU/1000), clamped at zero at each node; between nodes mu is
the trilinear interpolant of the node values, and the nearest node value
extends across the half-voxel margin beyond the outermost node centers. Where
a cell's 8 corners are all >= -1000 HU this equals interpolating HU first,
since mu is affine in HU there. Outside the box the medium is air (zero
attenuation).

Rays are clipped to the physical voxel box and split at every node plane
they cross. Along each piece mu is a cubic in t, which 2-point Gauss-Legendre
integrates exactly; the intensity is I_0 * exp(-integral). Per-pixel results
depend only on that pixel's ray: each ray's pieces are summed in increasing
t, with elementwise math across rays, so chunking and worker count never
change the output.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import VolumeFormatError
from .imgfile import atomic_write
from .scene import ImageBuffer, Ray, _finite_vec3

# one pool payload per started PIXEL_CHUNK pixels, but at most `workers`
# payloads, so a payload can hold more: a 129^2 DRR on 2 workers sends two,
# of 8320 and 8321 pixels
PIXEL_CHUNK = 4096
RAY_CHUNK = 256  # rays integrated at once: small passes reuse heap memory, not fresh pages
AIR_HU = -1000.0
GAUSS_NODE = 0.5 / math.sqrt(3.0)  # 2-point Gauss-Legendre: midpoint +- this x length


@dataclass
class VoxelVolume:
    """Regular HU grid; `hu` is indexed [z, y, x] (x fastest in memory)."""

    dims: tuple[int, int, int]
    spacing: np.ndarray
    origin: np.ndarray
    hu: np.ndarray

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise VolumeFormatError(f"dims must be 3 positive ints, got {self.dims}")
        self.spacing = np.asarray(self.spacing, dtype=np.float64).reshape(3)
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        if not (self.spacing > 0).all() or not np.isfinite(self.spacing).all():
            raise VolumeFormatError("spacing must be positive and finite")
        if not np.isfinite(self.origin).all():
            raise VolumeFormatError("origin must be finite")
        nx, ny, nz = self.dims
        self.hu = np.asarray(self.hu, dtype=np.float64)
        if self.hu.shape != (nz, ny, nx):
            if self.hu.size == nx * ny * nz:
                self.hu = self.hu.reshape(nz, ny, nx)
            else:
                raise VolumeFormatError(
                    f"hu has {self.hu.size} values, dims need {nx * ny * nz}")
        if not np.isfinite(self.hu).all():
            raise VolumeFormatError("hu values must be finite")
        if (self.hu < -1024.0).any():
            raise VolumeFormatError("hu values must be >= -1024")

    @property
    def box_lo(self) -> np.ndarray:
        """Physical box lower corner: half a voxel below the first node center."""
        return self.origin - 0.5 * self.spacing

    @property
    def box_hi(self) -> np.ndarray:
        d = np.array(self.dims, dtype=np.float64)
        return self.origin + (d - 0.5) * self.spacing

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.box_lo + self.box_hi)


@dataclass
class DrrConfig:
    mu_water: float = 0.02
    i0: float = 1.0
    output: str = "intensity"

    def __post_init__(self):
        if not 0 < self.mu_water < math.inf:
            raise ValueError("mu_water must be > 0 and finite")
        if not 0 < self.i0 < math.inf:
            raise ValueError("i0 must be > 0 and finite")
        if self.output not in ("intensity", "line_integral"):
            raise ValueError("output must be 'intensity' or 'line_integral'")

    def resolved_step(self, vol: VoxelVolume) -> float:
        # Read only by the benchmark's `ct.samples` counter; the benchmark
        # change of ROADMAP item 3 deletes both.
        return float(vol.spacing.min()) / 4.0


@dataclass
class ProjectionGeometry:
    """Cone-beam geometry: point source, pixel grid on a plane.

    Pixel (row, col) center sits at
    detector_center + (col + 0.5 - W/2) * detector_u + (row + 0.5 - H/2) * detector_v,
    so detector_center is the geometric middle of the detector.
    """

    source: np.ndarray
    detector_center: np.ndarray
    detector_u: np.ndarray
    detector_v: np.ndarray
    det_width: int
    det_height: int

    def __post_init__(self):
        for name in ("source", "detector_center", "detector_u", "detector_v"):
            setattr(self, name, _finite_vec3(getattr(self, name), name))
        self.det_width = int(self.det_width)
        self.det_height = int(self.det_height)
        if self.det_width < 1 or self.det_height < 1:
            raise ValueError("detector dimensions must be >= 1")
        u, v = self.detector_u, self.detector_v
        if not abs(float(u @ v)) <= 1e-9:
            raise ValueError("detector_u and detector_v must be orthogonal")
        if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
            raise ValueError("detector axes must be nonzero")
        n = np.cross(u, v)
        n = n / np.linalg.norm(n)
        if not abs(float((self.source - self.detector_center) @ n)) >= 1e-9:
            raise ValueError("source lies on the detector plane")

    def pixel_positions(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        a = cols + 0.5 - self.det_width / 2.0
        b = rows + 0.5 - self.det_height / 2.0
        return (self.detector_center[None, :]
                + a[:, None] * self.detector_u[None, :]
                + b[:, None] * self.detector_v[None, :])


def hu_to_mu(h, mu_water: float):
    """Attenuation coefficient (1/mm) from Hounsfield units; clamped at 0."""
    if not mu_water > 0:
        raise ValueError("mu_water must be > 0")
    return np.maximum(mu_water * (1.0 + np.asarray(h, dtype=np.float64) / 1000.0), 0.0)


def _clip_to_box(vol: VoxelVolume, origins: np.ndarray, dirs: np.ndarray):
    """Slab-clip rays against the physical box; (t_enter, t_exit), miss -> t_exit <= t_enter."""
    lo = vol.box_lo
    hi = vol.box_hi
    t0 = np.zeros(origins.shape[0])
    t1 = np.full(origins.shape[0], np.inf)
    for ax in range(3):
        o = origins[:, ax]
        d = dirs[:, ax]
        with np.errstate(divide="ignore"):
            inv = 1.0 / d
        ta = (lo[ax] - o) * inv
        tb = (hi[ax] - o) * inv
        near = np.minimum(ta, tb)
        far = np.maximum(ta, tb)
        par = d == 0.0
        slab_in = (o >= lo[ax]) & (o <= hi[ax])
        near = np.where(par, np.where(slab_in, -np.inf, np.inf), near)
        far = np.where(par, np.where(slab_in, np.inf, -np.inf), far)
        t0 = np.maximum(t0, near)
        t1 = np.minimum(t1, far)
    return t0, t1


def _mu_field(vol: VoxelVolume, mu_water: float):
    """(node attenuations mu [z, y, x], cells whose 8 corners all have mu 0).

    Cell (z, y, x) spans nodes i..min(i + 1, n - 1) on each axis; mu is
    clamped at the nodes, so the trilinear field between them is exactly 0
    in an all-air cell."""
    mu = hu_to_mu(vol.hu, mu_water)
    air = mu == 0.0
    air[:-1] &= air[1:]
    air[:, :-1] &= air[:, 1:]
    air[:, :, :-1] &= air[:, :, 1:]
    return mu, air


def _line_integrals(vol: VoxelVolume, field, origins: np.ndarray,
                    dirs: np.ndarray) -> np.ndarray:
    """Exact line integrals of the node-clamped trilinear mu for [N,3] rays.

    Each ray's slab-clipped interval splits where it crosses a node plane
    u_a = k; inside one piece mu is a product of three affine factors, a
    cubic in t, which 2-point Gauss-Legendre integrates exactly. Pieces in
    all-air cells add exactly 0 and are skipped. `np.bincount` then sums
    each ray's pieces in increasing t, so a ray's value never depends on
    the other rays passed with it. `field` is `_mu_field(vol, mu_water)`.
    """
    mu, air = field
    li = np.zeros(origins.shape[0])
    t0, t1 = _clip_to_box(vol, origins, dirs)
    hit = np.flatnonzero(t1 > t0)
    if hit.size == 0:
        return li
    ta, tb = t0[hit, None], t1[hit, None]
    # node coordinates u = a + t * b, one [R, 1] column per axis
    a = ((origins[hit] - vol.origin) / vol.spacing).T[:, :, None]
    b = (dirs[hit] / vol.spacing).T[:, :, None]
    top = np.array(vol.dims, dtype=np.float64) - 1.0
    cuts = [ta, tb]
    for ax in range(3):
        ua, ub = a[ax] + ta * b[ax], a[ax] + tb * b[ax]
        lo = np.maximum(np.floor(np.minimum(ua, ub)) + 1.0, 0.0)
        count = np.minimum(np.ceil(np.maximum(ua, ub)) - 1.0, top[ax]) - lo + 1.0
        j = np.arange(max(int(count.max()), 0), dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (lo + j - a[ax]) / b[ax]
        keep = (j < count) & (t > ta) & (t < tb)
        cuts.append(np.where(keep, t, tb))  # padding: empty pieces
    cuts = np.sort(np.concatenate(cuts, axis=1), axis=1)
    length = cuts[:, 1:] - cuts[:, :-1]
    tm = cuts[:, :-1] + 0.5 * length
    # each piece's cell from its midpoint; a margin piece (u_mid outside
    # (0, n - 1) on an axis) takes i1 = i0 there, so its fraction is unused
    nx, ny, _ = vol.dims
    strides = (1, nx, nx * ny)
    cell = np.zeros(length.shape, dtype=np.int64)
    mid, corner = [], []
    for ax in range(3):
        u = a[ax] + tm * b[ax]
        i = np.floor(np.clip(u, 0.0, top[ax]))
        cell += i.astype(np.int64) * strides[ax]
        mid.append(u)
        corner.append(i)
    piece = (length > 0.0) & ~air.ravel()[cell]
    ray = np.repeat(np.arange(hit.size), np.count_nonzero(piece, axis=1))
    length, cell = length[piece], cell[piece]
    frac, step = [], []  # per axis: fractions at both Gauss nodes, i1 - i0 stride
    for ax in range(3):
        u, i = mid[ax][piece], corner[ax][piece]
        f, half = u - i, GAUSS_NODE * length * b[ax, ray, 0]
        frac.append((f - half, f + half))
        step.append(np.where((u > 0.0) & (u < top[ax]), strides[ax], 0))
    m = mu.ravel()
    sx, sy, sz = step
    c000 = m[cell]
    c100 = m[cell + sx]
    c010 = m[cell + sy]
    c110 = m[cell + sx + sy]
    cz = cell + sz
    c001 = m[cz]
    c101 = m[cz + sx]
    c011 = m[cz + sy]
    c111 = m[cz + sx + sy]
    seg = np.zeros(ray.size)  # mu at both Gauss nodes, summed
    for fx, fy, fz in zip(*frac):
        c00 = c000 + (c100 - c000) * fx
        c10 = c010 + (c110 - c010) * fx
        c01 = c001 + (c101 - c001) * fx
        c11 = c011 + (c111 - c011) * fx
        c0 = c00 + (c10 - c00) * fy
        c1 = c01 + (c11 - c01) * fy
        seg += c0 + (c1 - c0) * fz
    # a Gauss node that rounding puts a hair outside its cell can read mu
    # just below 0 (seen on rays along node lines)
    np.maximum(seg, 0.0, out=seg)
    li[hit] = np.bincount(ray, 0.5 * length * seg, minlength=hit.size)
    return li


def beer_lambert_ray(vol: VoxelVolume, r: Ray, cfg: DrrConfig | None = None):
    """(intensity, line_integral) for one ray; a miss returns (I_0, 0)."""
    cfg = cfg if cfg is not None else DrrConfig()
    li = float(_line_integrals(vol, _mu_field(vol, cfg.mu_water),
                               r.origin.reshape(1, 3), r.dir.reshape(1, 3))[0])
    return cfg.i0 * math.exp(-li), li


def render_drr(vol: VoxelVolume, geom: ProjectionGeometry,
               cfg: DrrConfig | None = None, workers: int = 1) -> ImageBuffer:
    """Project the volume onto the detector, one ray per pixel center.

    Pixels split into payloads as `render`'s blocks do, a PIXEL_CHUNK a unit."""
    from .renderer import _pool_for, _spans  # the one fork pool
    cfg = cfg if cfg is not None else DrrConfig()
    H, W = geom.det_height, geom.det_width
    payloads = [(vol, geom, cfg, lo, hi)
                for lo, hi in _spans(H * W, workers, PIXEL_CHUNK)]
    parts = (_pool_for(len(payloads)).map(_drr_span, payloads)
             if len(payloads) > 1 else [_drr_span(payloads[0])])
    return ImageBuffer(np.concatenate(parts).reshape(H, W, 1))


def _drr_pixels(vol, geom, cfg, field, rows, cols):
    pix = geom.pixel_positions(rows, cols)
    d = pix - geom.source
    n = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2)
    d = d / n[:, None]
    origins = np.broadcast_to(geom.source, d.shape)
    li = _line_integrals(vol, field, origins, d)
    if cfg.output == "intensity":
        return cfg.i0 * np.exp(-li)
    return li


def _drr_span(payload):
    """Pixels [lo, hi) in flat row-major order, fixed-size chunks."""
    # pickled dataclasses arrive as built, without re-running validation
    vol, geom, cfg, lo, hi = payload
    field = _mu_field(vol, cfg.mu_water)
    out = np.empty(hi - lo)
    for a in range(lo, hi, RAY_CHUNK):
        b = min(a + RAY_CHUNK, hi)
        idx = np.arange(a, b, dtype=np.float64)
        rows, cols = np.divmod(idx, float(geom.det_width))
        out[a - lo:b - lo] = _drr_pixels(vol, geom, cfg, field, rows, cols)
    return out


# ---------------------------------------------------------------------------
# volume file I/O: text header + raw int16 little-endian, x fastest

_HEADER_KEYS = ("dims", "spacing", "origin", "data", "dtype")


def save_volume(header_path: str, vol: VoxelVolume, raw_name: str | None = None) -> None:
    base = os.path.basename(header_path)
    stem = base.rsplit(".", 1)[0] if "." in base else base
    raw_name = raw_name or stem + ".raw"
    nx, ny, nz = vol.dims
    hu = np.rint(vol.hu).astype("<i2")
    raw_path = os.path.join(os.path.dirname(os.path.abspath(header_path)), raw_name)
    atomic_write(raw_path, hu.tobytes())  # [z,y,x] C-order == x fastest
    sp = vol.spacing
    og = vol.origin
    text = (f"dims={nx} {ny} {nz}\n"
            f"spacing={sp[0]:.17g} {sp[1]:.17g} {sp[2]:.17g}\n"
            f"origin={og[0]:.17g} {og[1]:.17g} {og[2]:.17g}\n"
            f"data={raw_name}\n"
            f"dtype=int16le\n")
    atomic_write(header_path, text.encode("utf-8"))


def read_volume_header(header_path: str) -> tuple[dict[str, str], str]:
    """(key -> value text of every header field, path of the raw payload).

    Keys and values are stripped of surrounding spaces; `#` lines and blank
    lines are skipped. Raises VolumeFormatError on an unreadable header, an
    unknown, duplicate or missing key.
    """
    try:
        with open(header_path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise VolumeFormatError(f"cannot read header {header_path}: {e}") from e
    kv: dict[str, str] = {}
    for ln in lines:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise VolumeFormatError(f"bad header line (need key=value): {ln!r}")
        k, v = ln.split("=", 1)
        k = k.strip()
        if k not in _HEADER_KEYS:
            raise VolumeFormatError(f"unknown header key {k!r}")
        if k in kv:
            raise VolumeFormatError(f"duplicate header key {k!r}")
        kv[k] = v.strip()
    for k in _HEADER_KEYS:
        if k not in kv:
            raise VolumeFormatError(f"missing header key {k!r}")
    return kv, os.path.join(os.path.dirname(os.path.abspath(header_path)), kv["data"])


def load_volume(header_path: str) -> VoxelVolume:
    kv, raw_path = read_volume_header(header_path)
    if kv["dtype"] != "int16le":
        raise VolumeFormatError(f"unsupported dtype {kv['dtype']!r} (expected int16le)")
    try:
        dims = tuple(int(t) for t in kv["dims"].split())
        spacing = np.array([float(t) for t in kv["spacing"].split()])
        origin = np.array([float(t) for t in kv["origin"].split()])
    except ValueError as e:
        raise VolumeFormatError(f"bad header value: {e}") from e
    if len(dims) != 3 or spacing.size != 3 or origin.size != 3:
        raise VolumeFormatError("dims/spacing/origin must each have 3 entries")
    try:
        with open(raw_path, "rb") as f:
            raw = f.read()
    except (OSError, ValueError) as e:  # ValueError: NUL byte in the name
        raise VolumeFormatError(f"cannot read raw file {raw_path}: {e}") from e
    expected = 2 * dims[0] * dims[1] * dims[2]
    if len(raw) != expected:
        raise VolumeFormatError(
            f"raw file {kv['data']}: expected {expected} bytes, got {len(raw)}")
    hu = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    return VoxelVolume(dims, spacing, origin, hu)


# ---------------------------------------------------------------------------
# analytic phantoms used by tests and bundled assets

def make_uniform_volume(dims, spacing, origin, hu_value: float) -> VoxelVolume:
    nx, ny, nz = dims
    return VoxelVolume(dims, spacing, origin,
                       np.full((nz, ny, nx), float(hu_value)))


def make_sphere_phantom(n: int, spacing_mm: float, radius_mm: float,
                        hu_inside: float = 0.0) -> VoxelVolume:
    """Sphere of `hu_inside` in air, centered in an n^3 grid.

    Voxel values ramp linearly from air to `hu_inside` across one voxel at
    the surface. Along a central ray on a node line (odd n, along a grid
    axis) the attenuation profile is then piecewise linear with its kinks
    at nodes: the integral over the ramp equals half ramp width on each
    side, so the central line integral is exactly mu * 2R. Other central
    rays only come close (1.1% low along the body diagonal of a 17^3 grid).
    """
    sp = np.full(3, float(spacing_mm))
    origin = -0.5 * (n - 1) * sp  # grid centered on the world origin
    ax = np.arange(n) * spacing_mm + origin[0]
    X = ax[None, None, :]
    Y = ax[None, :, None]
    Z = ax[:, None, None]
    d = np.sqrt(X * X + Y * Y + Z * Z)
    coverage = np.clip((radius_mm - d) / spacing_mm + 0.5, 0.0, 1.0)
    hu = AIR_HU + (hu_inside - AIR_HU) * coverage
    return VoxelVolume((n, n, n), sp, origin, hu)
