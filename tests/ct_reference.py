"""A readable reference for the DRR line integrals of `splat360.ct`.

It keeps the piece integration in its plain form: every axis's cuts padded
to the chunk's largest plane count, one sort of all of them, and each piece's
midpoint, cell, air test, fractions and trilinear corners computed over the
padded slots and then compressed. `splat360.ct._line_integrals` computes the
same pieces in fewer passes, and must give the same bits on every ray; the
tests compare the two byte for byte. Only the box clip, `_clip_to_box`, is
shared with the module it checks.
"""
from __future__ import annotations

import math

import numpy as np

from splat360.ct import _clip_to_box

RAY_CHUNK = 256
GAUSS_NODE = 0.5 / math.sqrt(3.0)  # 2-point Gauss-Legendre: midpoint +- this x length


def line_integrals(vol, field, origins: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Exact line integrals of the node-clamped trilinear mu for [N,3] rays:
    each ray clipped to the box, then to the non-air span of `field`
    (`splat360.ct._mu_field`), then integrated RAY_CHUNK rays at a time."""
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
        li[rays] = piece_sums(vol, mu, air, a[:, rays, None], b[:, rays, None],
                              t0[rays, None], t1[rays, None],
                              planes[:, :, rays, None])
    return li


def piece_sums(vol, mu, air, a, b, ta, tb, planes):
    """Integrals over [ta, tb] of R rays u = a + t * b (a, b: [3, R, 1]),
    split at the node planes in `planes` ([first, last] per axis and ray);
    2-point Gauss-Legendre on each piece, pieces in all-air cells skipped,
    and each ray's pieces summed by `np.bincount` in increasing t."""
    R = ta.shape[0]
    top = np.array(vol.dims, dtype=np.float64) - 1.0
    cuts = [ta, tb]
    for ax in range(3):
        # planes between the ends, with one of slack at each for u rounded
        # at a clipped end, and none the box chord does not cross
        ua, ub = a[ax] + ta * b[ax], a[ax] + tb * b[ax]
        lo = np.maximum(np.floor(np.minimum(ua, ub)), planes[0, ax])
        count = np.minimum(np.ceil(np.maximum(ua, ub)), planes[1, ax]) - lo + 1.0
        j = np.arange(max(int(count.max()), 0), dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (lo + j - a[ax]) / b[ax]
        keep = (j < count) & (t > ta) & (t < tb)
        cuts.append(np.where(keep, t, tb))  # padding: empty pieces
    cuts = np.sort(np.concatenate(cuts, axis=1), axis=1)
    length = cuts[:, 1:] - cuts[:, :-1]
    tm = cuts[:, :-1] + 0.5 * length
    # each piece's cell from its midpoint; clipped u >= 0, so the int cast
    # is floor
    nx, ny, _ = vol.dims
    strides = (1, nx, nx * ny)
    cell = np.zeros(length.shape, dtype=np.int64)
    for ax in range(3):
        cell += np.clip(a[ax] + tm * b[ax], 0.0, top[ax]).astype(np.int64) * strides[ax]
    piece = (length > 0.0) & ~air.ravel()[cell]
    per_ray = np.count_nonzero(piece, axis=1)
    ray = np.repeat(np.arange(R), per_ray)
    length, cell, tm = length[piece], cell[piece], tm[piece]
    ap = np.repeat(a[:, :, 0], per_ray, axis=1)  # the ray terms of each piece
    bp = np.repeat(b[:, :, 0], per_ray, axis=1)
    # per axis: fractions at both Gauss nodes, i1 - i0 stride; a margin
    # piece (u_mid outside (0, n - 1) on an axis) takes i1 = i0 there, so
    # its fraction is unused
    frac, step = [], []
    for ax in range(3):
        u = ap[ax] + tm * bp[ax]
        f, half = u - np.floor(np.clip(u, 0.0, top[ax])), GAUSS_NODE * length * bp[ax]
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
    return np.bincount(ray, 0.5 * length * seg, minlength=R)
