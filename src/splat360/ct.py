"""CT volume handling and Beer-Lambert projection (DRR synthesis).

A volume stores Hounsfield units on a regular grid; attenuation is
mu_water * (1 + HU/1000), clamped at zero. Rays are clipped to the physical
voxel box (half a voxel beyond the outermost node centers), integrated with
the midpoint rule on equal steps, and attenuated as I_0 * exp(-integral).
Outside the box the medium is air (HU -1000, zero attenuation).

Per-pixel results depend only on that pixel's ray: integration runs as a
sequential scan over step index with elementwise math across pixels, so
chunking and worker count never change the output.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import VolumeFormatError
from .scene import ImageBuffer, ImageKind, Ray

PIXEL_CHUNK = 4096
AIR_HU = -1000.0


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
    step_mm: float | None = None  # None resolves to min(spacing)/4
    output: str = "intensity"

    def __post_init__(self):
        if not self.mu_water > 0:
            raise ValueError("mu_water must be > 0")
        if not self.i0 > 0:
            raise ValueError("i0 must be > 0")
        if self.step_mm is not None and not self.step_mm > 0:
            raise ValueError("step_mm must be > 0")
        if self.output not in ("intensity", "line_integral"):
            raise ValueError("output must be 'intensity' or 'line_integral'")

    def resolved_step(self, vol: VoxelVolume) -> float:
        return self.step_mm if self.step_mm is not None else float(vol.spacing.min()) / 4.0


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
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64).reshape(3))
        self.det_width = int(self.det_width)
        self.det_height = int(self.det_height)
        if self.det_width < 1 or self.det_height < 1:
            raise ValueError("detector dimensions must be >= 1")
        u, v = self.detector_u, self.detector_v
        if abs(float(u @ v)) > 1e-9:
            raise ValueError("detector_u and detector_v must be orthogonal")
        if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
            raise ValueError("detector axes must be nonzero")
        n = np.cross(u, v)
        n = n / np.linalg.norm(n)
        if abs(float((self.source - self.detector_center) @ n)) < 1e-9:
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


def _sample_hu_grid(vol: VoxelVolume, pts: np.ndarray) -> np.ndarray:
    """Trilinear HU sampling at [N,3] world points; outside the box -> air.

    Inside the half-voxel margin beyond the outer node centers the nearest
    node value extends constantly, so the field is continuous up to the box
    boundary.
    """
    nx, ny, nz = vol.dims
    u = (pts - vol.origin) / vol.spacing
    dimv = np.array([nx, ny, nz], dtype=np.float64)
    inside = ((u >= -0.5) & (u <= dimv - 0.5)).all(axis=1)
    uc = np.clip(u, 0.0, dimv - 1.0)
    i0 = np.minimum(np.floor(uc), dimv - 1.0).astype(np.int64)
    hi = (np.array([nx, ny, nz]) - 1)
    i1 = np.minimum(i0 + 1, hi)
    f = uc - i0
    x0, y0, z0 = i0[:, 0], i0[:, 1], i0[:, 2]
    x1, y1, z1 = i1[:, 0], i1[:, 1], i1[:, 2]
    fx, fy, fz = f[:, 0], f[:, 1], f[:, 2]
    h = vol.hu
    c000 = h[z0, y0, x0]
    c100 = h[z0, y0, x1]
    c010 = h[z0, y1, x0]
    c110 = h[z0, y1, x1]
    c001 = h[z1, y0, x0]
    c101 = h[z1, y0, x1]
    c011 = h[z1, y1, x0]
    c111 = h[z1, y1, x1]
    c00 = c000 + (c100 - c000) * fx
    c10 = c010 + (c110 - c010) * fx
    c01 = c001 + (c101 - c001) * fx
    c11 = c011 + (c111 - c011) * fx
    c0 = c00 + (c10 - c00) * fy
    c1 = c01 + (c11 - c01) * fy
    out = c0 + (c1 - c0) * fz
    return np.where(inside, out, AIR_HU)


def sample_hu(vol: VoxelVolume, x) -> float:
    x = np.asarray(x, dtype=np.float64).reshape(1, 3)
    return float(_sample_hu_grid(vol, x)[0])


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


def _line_integrals(vol: VoxelVolume, origins: np.ndarray, dirs: np.ndarray,
                    cfg: DrrConfig) -> np.ndarray:
    """Midpoint-rule attenuation line integrals for [N,3] rays."""
    N = origins.shape[0]
    step = cfg.resolved_step(vol)
    t0, t1 = _clip_to_box(vol, origins, dirs)
    length = np.maximum(t1 - t0, 0.0)
    nsteps = np.zeros(N, dtype=np.int64)
    hit = length > 0.0
    nsteps[hit] = np.ceil(length[hit] / step).astype(np.int64)
    dt = np.zeros(N)
    np.divide(length, nsteps, out=dt, where=nsteps > 0)
    li = np.zeros(N)
    kmax = int(nsteps.max()) if N else 0
    for k in range(kmax):
        act = k < nsteps
        tk = t0[act] + (k + 0.5) * dt[act]
        pts = origins[act] + tk[:, None] * dirs[act]
        mu = hu_to_mu(_sample_hu_grid(vol, pts), cfg.mu_water)
        li[act] += mu * dt[act]
    return li


def beer_lambert_ray(vol: VoxelVolume, r: Ray, cfg: DrrConfig | None = None):
    """(intensity, line_integral) for one ray; a miss returns (I_0, 0)."""
    cfg = cfg if cfg is not None else DrrConfig()
    li = float(_line_integrals(vol, r.origin.reshape(1, 3), r.dir.reshape(1, 3), cfg)[0])
    return cfg.i0 * math.exp(-li), li


def render_drr(vol: VoxelVolume, geom: ProjectionGeometry,
               cfg: DrrConfig | None = None, workers: int = 1) -> ImageBuffer:
    """Project the volume onto the detector, one ray per pixel center."""
    cfg = cfg if cfg is not None else DrrConfig()
    if workers < 1:
        raise ValueError("workers must be >= 1")
    H, W = geom.det_height, geom.det_width
    out = np.empty(H * W)
    import multiprocessing
    use_pool = (workers > 1 and H * W > PIXEL_CHUNK
                and "fork" in multiprocessing.get_all_start_methods())
    if use_pool:
        from .renderer import _pool_for  # shared fork pool
        splits = np.linspace(0, H * W, min(workers, H * W) + 1).astype(np.int64)
        payloads = [(vol, geom, cfg, int(splits[i]), int(splits[i + 1]))
                    for i in range(len(splits) - 1) if splits[i] < splits[i + 1]]
        parts = _pool_for(workers).map(_drr_chunk_worker, payloads)
        for payload, part in zip(payloads, parts):
            out[payload[-2]:payload[-1]] = part
    else:
        out[:] = _drr_span(vol, geom, cfg, 0, H * W)
    data = out.reshape(H, W, 1)
    if cfg.output == "intensity":
        return ImageBuffer(data, ImageKind.TRANSMITTANCE)
    return ImageBuffer(data, ImageKind.LINE_INTEGRAL)


def _drr_pixels(vol, geom, cfg, rows, cols):
    pix = geom.pixel_positions(rows, cols)
    d = pix - geom.source
    n = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2)
    d = d / n[:, None]
    origins = np.broadcast_to(geom.source, d.shape)
    li = _line_integrals(vol, origins, d, cfg)
    if cfg.output == "intensity":
        return cfg.i0 * np.exp(-li)
    return li


def _drr_span(vol, geom, cfg, lo, hi):
    """Pixels [lo, hi) in flat row-major order, fixed-size chunks."""
    out = np.empty(hi - lo)
    for a in range(lo, hi, PIXEL_CHUNK):
        b = min(a + PIXEL_CHUNK, hi)
        idx = np.arange(a, b, dtype=np.float64)
        rows, cols = np.divmod(idx, float(geom.det_width))
        out[a - lo:b - lo] = _drr_pixels(vol, geom, cfg, rows, cols)
    return out


def _drr_chunk_worker(payload):
    # the pickled dataclasses arrive as built, without re-running validation
    return _drr_span(*payload)


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
    with open(raw_path, "wb") as f:
        f.write(hu.tobytes())  # [z,y,x] C-order == x fastest
    sp = vol.spacing
    og = vol.origin
    text = (f"dims={nx} {ny} {nz}\n"
            f"spacing={sp[0]:.17g} {sp[1]:.17g} {sp[2]:.17g}\n"
            f"origin={og[0]:.17g} {og[1]:.17g} {og[2]:.17g}\n"
            f"data={raw_name}\n"
            f"dtype=int16le\n")
    with open(header_path, "w", encoding="utf-8") as f:
        f.write(text)


def load_volume(header_path: str) -> VoxelVolume:
    try:
        with open(header_path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
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
    raw_path = os.path.join(os.path.dirname(os.path.abspath(header_path)), kv["data"])
    try:
        with open(raw_path, "rb") as f:
            raw = f.read()
    except OSError as e:
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
    the surface, which makes the attenuation profile along any central ray
    piecewise linear: the integral over the ramp equals half ramp width on
    each side, so the central line integral is exactly mu * 2R.
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
