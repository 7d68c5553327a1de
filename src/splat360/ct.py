"""CT volume handling and Beer-Lambert projection (DRR synthesis).

A volume stores Hounsfield units on a regular grid. Attenuation is
mu_water * (1 + HU/1000), clamped at zero at each node; between nodes mu is
the trilinear interpolant of the node values, and the nearest node value
extends across the half-voxel margin beyond the outermost node centers. Where
a cell's 8 corners are all >= -1000 HU this equals interpolating HU first,
since mu is affine in HU there. Outside the box the medium is air (zero
attenuation).

Rays are clipped to the physical voxel box, then to the box of non-air cells
(empty-space skipping), and split at every node plane they cross. The
non-air box is bounded by node planes, and a ray is clipped at the very t of
its cut at that plane, so the clip drops only pieces in all-air cells, which
add exactly 0, and leaves the others bit for bit (`_line_integrals` names
the one exception, on rays along node planes); rays that miss the non-air
box do no piece work. Along each piece mu is a cubic in t, which 2-point
Gauss-Legendre integrates exactly; the intensity is I_0 * exp(-integral).
Per-pixel results depend only on that pixel's ray: each ray's pieces are
summed in increasing t, with elementwise math across rays, so chunking and
worker count never change the output.

`_piece_sums` integrates RAY_CHUNK rays at a time over three ever smaller
sets of pieces. Padded slots: every ray of the chunk holds as many cuts per
axis as its most crossed ray, and the cut generation, the sort and the
piece lengths run over all of them. Pieces of positive length: each one's
midpoint, node coordinates and cell, and the air test. Live pieces, those
outside all-air cells: the Gauss-node fractions, the corner gathers and the
trilinear sums. On a 64^3 sphere projected to 129^2 pixels the three sets
hold about 1.06 M, 0.64 M and 0.36 M pieces.

A volume is frozen, so its attenuation field (`_mu_field`: node mu, the
all-air cell mask and the non-air span) cannot go stale. `_FIELDS` keeps
each live volume's field per mu_water: `render_drr` builds it on a volume's
first projection at that mu_water, in the calling process, and a weakref
finalizer drops it when the volume dies. Each field costs 9 bytes per voxel
(a float64 mu and a bool air flag) while the volume lives. Pool workers fork
after the field is built and read the volume and the field from the memory
they forked with, so a payload carries only the volume's id (its `_FIELDS`
key), the geometry, the config and a pixel span: about 0.5 KB pickled.
"""
from __future__ import annotations

import math
import os
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import VolumeFormatError
from .imgfile import atomic_write, read_file, read_header
from .renderer import _POOL, _pool_for, _shutdown_pools, _spans  # the one fork pool
from .scene import ImageBuffer, _finite_vec3, _integer

# one pool payload per started PIXEL_CHUNK pixels, but at most `workers`
# payloads, so a payload can hold more: a 129^2 DRR on 2 workers sends two,
# of 8320 and 8321 pixels
PIXEL_CHUNK = 4096
# rays that reach the non-air box, integrated at once: small passes reuse
# heap memory, not fresh pages
RAY_CHUNK = 256
AIR_HU = -1000.0
GAUSS_NODE = 0.5 / math.sqrt(3.0)  # 2-point Gauss-Legendre: midpoint +- this x length


@dataclass(frozen=True, eq=False)
class VoxelVolume:
    """Regular HU grid; `hu` is indexed [z, y, x] (x fastest in memory).

    The constructor copies `spacing`, `origin` and `hu` into read-only
    float64 arrays, and assigning a field raises, so a volume never changes
    once built. The attenuation field `render_drr` builds on its first
    projection at a mu_water (9 bytes per voxel) is therefore kept, in
    `_FIELDS`, until the volume dies (module docstring)."""

    dims: tuple[int, int, int]
    spacing: np.ndarray
    origin: np.ndarray
    hu: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise VolumeFormatError(f"dims must be 3 positive ints, got {dims}")
        spacing = np.array(self.spacing, dtype=np.float64).reshape(3)
        origin = np.array(self.origin, dtype=np.float64).reshape(3)
        if not (spacing > 0).all() or not np.isfinite(spacing).all():
            raise VolumeFormatError("spacing must be positive and finite")
        if not np.isfinite(origin).all():
            raise VolumeFormatError("origin must be finite")
        nx, ny, nz = dims
        hu = np.asarray(self.hu, dtype=np.float64)
        if hu.size != nx * ny * nz:
            raise VolumeFormatError(
                f"hu has {hu.size} values, dims need {nx * ny * nz}")
        hu = hu.reshape(nz, ny, nx).copy()
        if not np.isfinite(hu).all():
            raise VolumeFormatError("hu values must be finite")
        if (hu < -1024.0).any():
            raise VolumeFormatError("hu values must be >= -1024")
        for a in (spacing, origin, hu):
            a.flags.writeable = False
        for name, value in (("dims", dims), ("spacing", spacing),
                            ("origin", origin), ("hu", hu)):
            object.__setattr__(self, name, value)

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
        for name in ("mu_water", "i0"):
            value = getattr(self, name)
            if isinstance(value, bool):  # True would pass as 1.0
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be > 0 and finite")
        if self.output not in ("intensity", "line_integral"):
            raise ValueError("output must be 'intensity' or 'line_integral'")

    def resolved_step(self, vol: VoxelVolume) -> float:
        # Read only by the benchmark's `ct.samples` counter; the benchmark
        # change of ROADMAP item 1 deletes both.
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
        self.det_width = _integer(self.det_width, "det_width")
        self.det_height = _integer(self.det_height, "det_height")
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
    """(node attenuations mu [z, y, x], cells whose 8 corners all have mu 0,
    per axis x, y, z the span [L, U) of node coordinates outside which every
    cell is air).

    Cell (z, y, x) spans nodes i..min(i + 1, n - 1) on each axis; mu is
    clamped at the nodes, so the trilinear field between them is exactly 0
    in an all-air cell. Along an axis cell i holds node coordinates [i, i + 1),
    except that cell 0 also holds the half-voxel margin below node 0 and cell
    n - 1 only the margin above node n - 1; so L is -inf when cell 0 is
    occupied and U is +inf when cell n - 1 is. An all-air volume has the
    empty span [+inf, -inf) on every axis. Both arrays are read-only."""
    mu = hu_to_mu(vol.hu, mu_water)
    air = mu == 0.0
    air[:-1] &= air[1:]
    air[:, :-1] &= air[:, 1:]
    air[:, :, :-1] &= air[:, :, 1:]
    mu.flags.writeable = air.flags.writeable = False
    span = []
    for ax in range(3):  # x, y, z are array axes 2, 1, 0
        n = air.shape[2 - ax]
        others = tuple(k for k in range(3) if k != 2 - ax)
        cells = np.flatnonzero(~air.all(axis=others))
        if cells.size == 0:
            span.append((np.inf, -np.inf))
        else:
            span.append((float(cells[0]) if cells[0] > 0 else -np.inf,
                         float(cells[-1] + 1) if cells[-1] < n - 1 else np.inf))
    return mu, air, span


# id(volume) -> (weak reference to the volume, {mu_water: (its `_mu_field`,
# `_ForkPool.started` when that field was built)}); see the module docstring
_FIELDS: dict = {}


def _field_of(vol: VoxelVolume, mu_water: float) -> tuple:
    """(`_mu_field(vol, mu_water)`, the fork pool's count of started
    executors when it was built). The field is built on the pair's first
    call and kept until vol dies."""
    entry = _FIELDS.get(id(vol))
    if entry is None:
        entry = _FIELDS[id(vol)] = (weakref.ref(vol), {})
        weakref.finalize(vol, _FIELDS.pop, id(vol), None)
    fields = entry[1]
    if mu_water not in fields:
        fields[mu_water] = (_mu_field(vol, mu_water), _POOL.started)
    return fields[mu_water]


def _line_integrals(vol: VoxelVolume, field, origins: np.ndarray,
                    dirs: np.ndarray) -> np.ndarray:
    """Exact line integrals of the node-clamped trilinear mu for [N,3] rays.

    Every ray is clipped to the physical box, then to the span [L, U) of
    non-air cells on each axis (`_mu_field`), in node coordinates
    u = a + t * b. A finite bound k is a node plane. Where the box chord's
    end coordinates lie on both sides of it, the unclipped ray cuts there,
    and the clip uses that cut's expression, t = (k - a) / b, so the new end
    equals the cut bit for bit; the planes cut between the new ends stay
    those of the box chord (`planes`), so every piece inside the span keeps
    its bits, and the pieces beyond it lie in all-air cells, which add
    exactly 0. A chord wholly on the air side of a bound misses, and reads
    +0.0, as it did with no live piece. (Only a piece a few ulps long just
    beyond a bound, on a ray along a node plane, can have its midpoint round
    into the span; mu there is within rounding of 0.) The rays that remain
    are integrated RAY_CHUNK at a time.
    """
    mu, air, span = field
    li = np.zeros(origins.shape[0])
    t0, t1 = _clip_to_box(vol, origins, dirs)
    a = ((origins - vol.origin) / vol.spacing).T
    b = (dirs / vol.spacing).T
    with np.errstate(invalid="ignore"):  # rays that miss the box
        ua, ub = a + t0 * b, a + t1 * b
    umin, umax = np.minimum(ua, ub), np.maximum(ua, ub)
    top = np.array(vol.dims, dtype=np.float64)[:, None] - 1.0
    # the node planes each box chord crosses
    planes = np.stack([np.maximum(np.floor(umin) + 1.0, 0.0),
                       np.minimum(np.ceil(umax) - 1.0, top)])
    miss = np.zeros(li.shape, dtype=bool)
    for ax, (lo, hi) in enumerate(span):
        miss |= (umax[ax] < lo) | (umin[ax] >= hi)
        # a bound the chord does not cross clips nothing
        lo = np.where((umin[ax] < lo) & (lo < umax[ax]), lo, -np.inf)
        hi = np.where((umin[ax] < hi) & (hi < umax[ax]), hi, np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            ta, tb = (lo - a[ax]) / b[ax], (hi - a[ax]) / b[ax]
        t0 = np.maximum(t0, np.minimum(ta, tb))
        t1 = np.minimum(t1, np.maximum(ta, tb))
    hit = np.flatnonzero((t1 > t0) & ~miss)
    for c in range(0, hit.size, RAY_CHUNK):
        rays = hit[c:c + RAY_CHUNK]
        li[rays] = _piece_sums(vol, mu, air, a[:, rays, None], b[:, rays, None],
                               t0[rays, None], t1[rays, None],
                               planes[:, :, rays, None])
    return li


def _piece_sums(vol, mu, air, a, b, ta, tb, planes):
    """Integrals over [ta, tb] of R rays u = a + t * b (a, b: [3, R, 1]).

    Each interval splits where it crosses a node plane u_a = k of those in
    `planes` ([first, last] per axis and ray); inside one piece mu is a
    product of three affine factors, a cubic in t, which 2-point
    Gauss-Legendre integrates exactly. Pieces in all-air cells add exactly 0
    and are skipped. `np.bincount` then sums each ray's pieces in increasing
    t, so a ray's value never depends on the other rays passed with it.

    Each stage runs on the smallest of three sets of pieces that it needs:
    - padded slots: every ray holds, per axis, as many cuts as the chunk's
      most crossed ray. Its slots past its last plane repeat that plane,
      and a cut outside (ta, tb) moves onto the nearer end, so every extra
      slot makes a piece of length 0. The cut generation, the sort and the
      piece lengths run here.
    - pieces of positive length: their midpoints, node coordinates u and
      cells, and the air test.
    - live pieces, those not in an all-air cell: the fractions at the Gauss
      nodes, the corner gathers and the trilinear sums.
    """
    R = ta.shape[0]
    top = np.array(vol.dims, dtype=np.float64) - 1.0
    nx, ny, _ = vol.dims
    strides = (1, nx, nx * ny)
    # planes between the ends, with one of slack at each for u rounded at a
    # clipped end, and none the box chord does not cross
    ua, ub = a + ta * b, a + tb * b
    first = np.maximum(np.floor(np.minimum(ua, ub)), planes[0])
    last = np.minimum(np.ceil(np.maximum(ua, ub)), planes[1])
    width = np.maximum((last - first).max(axis=(1, 2)) + 1.0, 0.0).astype(np.int64)
    last[last < first] = np.nan  # no plane: every cut is NaN, so lands on ta
    cuts = [ta, tb]
    with np.errstate(divide="ignore", invalid="ignore"):
        for ax in range(3):
            # past `last` a ray repeats its last plane; fmax and fmin put a
            # cut outside (ta, tb), or NaN, onto an end
            t = np.minimum(first[ax] + np.arange(width[ax], dtype=np.float64),
                           last[ax])
            t -= a[ax]
            t /= b[ax]
            np.fmax(t, ta, out=t)
            np.fmin(t, tb, out=t)
            cuts.append(t)
    cuts = np.concatenate(cuts, axis=1)
    cuts.sort(axis=1)
    # the pieces of positive length, from the flat cuts; the difference
    # across the end of a row is no piece
    S = cuts.shape[1]
    flat = cuts.ravel()
    length = flat[1:] - flat[:-1]
    pos = np.empty(flat.size, dtype=bool)
    np.greater(length, 0.0, out=pos[:-1])
    pos[S - 1::S] = False
    per_ray = np.count_nonzero(pos.reshape(R, S), axis=1)
    pos = pos[:-1]
    length, tm = length[pos], flat[:-1][pos]
    tm += 0.5 * length
    # each piece's node coordinates, and its cell from them: the float sum
    # of whole node indices times strides is exact
    u, bp = [], []
    cell = np.zeros(length.size)
    for ax in range(3):
        bp.append(np.repeat(b[ax, :, 0], per_ray))
        u.append(tm * bp[ax])
        u[ax] += np.repeat(a[ax, :, 0], per_ray)
        node = np.maximum(u[ax], 0.0)
        np.minimum(node, top[ax], out=node)
        np.floor(node, out=node)
        if strides[ax] != 1:
            node *= strides[ax]
        cell += node
    cell = cell.astype(np.int64)
    live = np.flatnonzero(~air.ravel()[cell])
    ray = np.repeat(np.arange(R), per_ray)[live]
    cell, length = cell[live], length[live]
    # per axis: fractions at both Gauss nodes, i1 - i0 stride; a margin
    # piece (u_mid outside (0, n - 1) on an axis) takes i1 = i0 there, so
    # its fraction is unused
    gl = GAUSS_NODE * length
    frac, step = [], []
    for ax in range(3):
        ul = u[ax][live]
        f = np.maximum(ul, 0.0)
        np.minimum(f, top[ax], out=f)
        np.floor(f, out=f)
        np.subtract(ul, f, out=f)
        half = gl * bp[ax][live]
        frac.append((f - half, f + half))
        step.append(np.where((ul > 0.0) & (ul < top[ax]), strides[ax], 0))
    m = mu.ravel()
    sx, sy, sz = step
    c000 = m[cell]
    c010 = m[cell + sy]
    cz = cell + sz
    c001 = m[cz]
    c011 = m[cz + sy]
    # the x differences, which both Gauss nodes share
    d00 = m[cell + sx] - c000
    d10 = m[cell + sx + sy] - c010
    d01 = m[cz + sx] - c001
    d11 = m[cz + sx + sy] - c011
    seg = np.zeros(ray.size)  # mu at both Gauss nodes, summed
    c00, c10, c01, c11 = (np.empty(ray.size) for _ in range(4))
    for fx, fy, fz in zip(*frac):
        np.multiply(d00, fx, out=c00)
        c00 += c000
        np.multiply(d10, fx, out=c10)
        c10 += c010
        np.multiply(d01, fx, out=c01)
        c01 += c001
        np.multiply(d11, fx, out=c11)
        c11 += c011
        # c0 = c00 + (c10 - c00) * fy, into c10, and c1 into c11
        c10 -= c00
        c10 *= fy
        c10 += c00
        c11 -= c01
        c11 *= fy
        c11 += c01
        # mu = c0 + (c1 - c0) * fz, into c11
        c11 -= c10
        c11 *= fz
        c11 += c10
        seg += c11
    # a Gauss node that rounding puts a hair outside its cell can read mu
    # just below 0 (seen on rays along node lines)
    np.maximum(seg, 0.0, out=seg)
    return np.bincount(ray, 0.5 * length * seg, minlength=R)


def render_drr(vol: VoxelVolume, geom: ProjectionGeometry,
               cfg: DrrConfig | None = None, workers: int = 1) -> ImageBuffer:
    """Project the volume onto the detector, one ray per pixel center.

    Pixels split into payloads as `render`'s blocks do, a PIXEL_CHUNK a unit.
    The volume's attenuation field for cfg.mu_water (9 bytes per voxel) is
    built here, in this process, on the volume's first projection at that
    mu_water, and kept in `_FIELDS` until the volume dies (module
    docstring). A payload carries the volume's id, the geometry, the config
    and its pixel span, never the volume: each pool worker reads the volume
    and its field from the memory it forked with. Workers that forked before
    the field was built are stopped first, so the map runs on workers forked
    after it."""
    cfg = cfg if cfg is not None else DrrConfig()
    H, W = geom.det_height, geom.det_width
    _, born = _field_of(vol, cfg.mu_water)
    payloads = [(id(vol), geom, cfg, lo, hi)
                for lo, hi in _spans(H * W, workers, PIXEL_CHUNK)]
    if len(payloads) == 1:
        parts = [_drr_span(payloads[0])]
    else:
        if _POOL.started <= born:  # the running workers lack the field
            _shutdown_pools()
        parts = _pool_for(len(payloads)).map(_drr_span, payloads)
    return ImageBuffer(np.concatenate(parts).reshape(H, W, 1))


def _drr_span(payload):
    """Pixels [lo, hi) in flat row-major order of the volume whose id is
    `key`; the volume and its field are read from `_FIELDS`."""
    # pickled dataclasses arrive as built, without re-running validation
    key, geom, cfg, lo, hi = payload
    ref, fields = _FIELDS[key]
    vol, (field, _) = ref(), fields[cfg.mu_water]
    rows, cols = np.divmod(np.arange(lo, hi, dtype=np.float64), float(geom.det_width))
    d = geom.pixel_positions(rows, cols) - geom.source
    n = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2)
    d = d / n[:, None]
    li = _line_integrals(vol, field, np.broadcast_to(geom.source, d.shape), d)
    if cfg.output == "intensity":
        return cfg.i0 * np.exp(-li)
    return li


# ---------------------------------------------------------------------------
# volume file I/O: text header + raw int16 little-endian, x fastest

_HEADER_KEYS = ("dims", "spacing", "origin", "data", "dtype")


def save_volume(header_path: str, vol: VoxelVolume, raw_name: str | None = None) -> None:
    """Write `vol` as a header and an int16 raw file beside it. HU that
    round outside int16 raise VolumeFormatError before either is written."""
    base = os.path.basename(header_path)
    stem = base.rsplit(".", 1)[0] if "." in base else base
    raw_name = raw_name or stem + ".raw"
    nx, ny, nz = vol.dims
    hu = np.rint(vol.hu)  # >= -1024, as every VoxelVolume's
    if hu.max() > np.iinfo("<i2").max:
        # astype would wrap it, and the file would load as other values
        raise VolumeFormatError(
            f"hu values above {np.iinfo('<i2').max} do not fit the int16 "
            f"raw file, got {hu.max():g}")
    hu = hu.astype("<i2")
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

    Raises VolumeFormatError on an unreadable header, an unknown, duplicate
    or missing key (`imgfile.read_header`).
    """
    kv, _ = read_header(header_path, _HEADER_KEYS, VolumeFormatError)
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
    raw = read_file(raw_path, VolumeFormatError)
    expected = 2 * dims[0] * dims[1] * dims[2]
    if len(raw) != expected:
        raise VolumeFormatError(
            f"raw file {kv['data']}: expected {expected} bytes, got {len(raw)}")
    hu = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    return VoxelVolume(dims, spacing, origin, hu)


# ---------------------------------------------------------------------------
# analytic phantoms used by tests and bundled assets

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
