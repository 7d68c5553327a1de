"""Front-to-back compositing of Gaussian splats with direction-disentangled radiance.

Per-ray model: each primitive contributes at its closest approach along the
ray (in the Mahalanobis metric), with weight w = alpha * exp(-q/2) where q is
the squared Mahalanobis distance at that point; it contributes nothing where
q > CUTOFF_SIGMA^2 or that point lies before the near plane. Contributions are
t-sorted and alpha-composited front to back: color = sum_i T_i w_i c_i +
T_final * background with T_{i+1} = T_i (1 - w_i) and c_i = l_iso + f_i *
l_aniso, and a ray stops once T falls below TERMINATION_EPSILON. The factor
f = (1 - g^2) / (s * sqrt(s)), s = 1 + g^2 - 2 g (dir . normal), is the
Henyey-Greenstein lobe normalized so f = 1 when g = 0.

Bit-determinism: every color-producing path (image tiles, with or without
the fusion head; ray batches; single rays and their sample lists; the fit's
patch forward pass) runs the one kernel `_composite` itself, not a copy of
it. A full image, physical or fused, comes only from `render`'s tile loop.
Each ray composites only its own live splats, kept in splat order and then
stably t-sorted, so ties break by splat index and a ray's result does not
depend on which other rays, or which culled or dead splats, share its call:
a dead entry could only have added a factor of 1.0 to the transmittance
product and an exact zero to the sums. Per-pixel reductions use sequential scans
(np.cumsum / np.cumprod), so results are independent of tile size, worker
count and batching. Matrix products and pairwise sums are deliberately
avoided in per-pixel math.
"""
from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPrimitiveError
from .fusion import MlpParams, embed_camera, fuse_forward_batch, fusion_input
from .scene import CUTOFF_SIGMA, Camera, ImageBuffer, ImageKind, Ray, Scene

FINE_TILE = 16
COARSE_TILE = 64
# a ray stops once its transmittance falls below this
TERMINATION_EPSILON = 1e-3


@dataclass
class RenderConfig:
    """The two ablation toggles of the radiance model.

    disentangle=False folds l_aniso into l_iso (f pinned to 1);
    anisotropy_enabled=False drops the anisotropic term entirely (f pinned
    to 0). When both are off, anisotropy_enabled wins: there is no
    anisotropic radiance to fold. The cutoff and the termination threshold
    are constants (CUTOFF_SIGMA, TERMINATION_EPSILON), so the cone cull and
    the kernel cannot disagree.
    """

    disentangle: bool = True
    anisotropy_enabled: bool = True


@dataclass
class RaySample:
    index: int
    t: float
    weight: float
    transmittance_before: float


def phase(dir, normal, g: float) -> float:
    """Henyey-Greenstein phase value for cos(theta) = dir . normal.

    Positive everywhere and integrates to 1 over the unit sphere.
    """
    if not -1.0 < g < 1.0:
        raise ValueError("g must be in (-1, 1)")
    d = np.asarray(dir, dtype=np.float64)
    n = np.asarray(normal, dtype=np.float64)
    cos = d[0] * n[0] + d[1] * n[1] + d[2] * n[2]
    s = (1.0 + g * g) - (2.0 * g) * cos
    return (1.0 - g * g) / (4.0 * math.pi * (s * math.sqrt(s)))


def _origin_terms(scene: Scene, origin: np.ndarray):
    """Per-gaussian quantities that depend only on the ray origin.

    Every kernel path starts here, so this is where splats with a singular
    covariance are refused.
    """
    if scene.singular.any():
        raise InvalidPrimitiveError(
            f"gaussian {np.argmax(scene.singular)}: singular covariance "
            "(eigenvalue < 1e-12)")
    d0 = scene.mu[:, 0] - origin[0]
    d1 = scene.mu[:, 1] - origin[1]
    d2 = scene.mu[:, 2] - origin[2]
    inv = scene.cov_inv
    v0 = inv[:, 0, 0] * d0 + inv[:, 0, 1] * d1 + inv[:, 0, 2] * d2
    v1 = inv[:, 0, 1] * d0 + inv[:, 1, 1] * d1 + inv[:, 1, 2] * d2
    v2 = inv[:, 0, 2] * d0 + inv[:, 1, 2] * d1 + inv[:, 2, 2] * d2
    cg = np.maximum(d0 * v0 + d1 * v1 + d2 * v2, 0.0)
    dist = np.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
    return v0, v1, v2, cg, dist


def _ray_geometry(scene, v0, v1, v2, cg, dx, dy, dz, sub):
    """t of peak weight and squared Mahalanobis distance there.

    dx/dy/dz are [P] ray direction components (one shared origin), sub indexes
    the gaussians under consideration. Returns [P, len(sub)] arrays. Buffers
    are reused aggressively; the expression grouping (and therefore every bit
    of the result) matches the reference forms
        tn  = dx*v0 + dy*v1 + dz*v2
        den = i00 dx^2 + i11 dy^2 + i22 dz^2 + 2 (i01 dx dy + i02 dx dz + i12 dy dz)
        ts  = tn / den,  q = max(cg - tn*ts, 0)
    """
    inv = scene.cov_inv
    dxc = dx[:, None]
    dyc = dy[:, None]
    dzc = dz[:, None]
    tn = dxc * v0[sub]
    tmp = dyc * v1[sub]
    tn += tmp
    np.multiply(dzc, v2[sub], out=tmp)
    tn += tmp
    pair = dxc * dxc
    den = inv[sub, 0, 0] * pair
    np.multiply(dyc, dyc, out=pair)
    np.multiply(inv[sub, 1, 1], pair, out=tmp)
    den += tmp
    np.multiply(dzc, dzc, out=pair)
    np.multiply(inv[sub, 2, 2], pair, out=tmp)
    den += tmp
    np.multiply(dxc, dyc, out=pair)
    cross = inv[sub, 0, 1] * pair
    np.multiply(dxc, dzc, out=pair)
    np.multiply(inv[sub, 0, 2], pair, out=tmp)
    cross += tmp
    np.multiply(dyc, dzc, out=pair)
    np.multiply(inv[sub, 1, 2], pair, out=tmp)
    cross += tmp
    cross *= 2.0
    den += cross
    np.divide(tn, den, out=den)
    ts = den
    np.multiply(tn, ts, out=tn)
    np.subtract(cg[sub], tn, out=tn)
    np.maximum(tn, 0.0, out=tn)
    return ts, tn


def _phase_factor(scene, dx, dy, dz, sub, keep_cos=False):
    """Normalized anisotropy factor f = 4*pi*phase, elementwise over [P, sub].

    `sub` indexes the gaussians: [K] shared by every ray, or [P, K], one
    row per ray. Grouping matches s = (1 + g^2) - (2 g) cos,
    f = (1 - g^2) / (s sqrt(s)). Returns (f, cos), cos being None unless
    keep_cos (it is reused in place).
    """
    cos = dx[:, None] * scene.normal[sub, 0]
    tmp = dy[:, None] * scene.normal[sub, 1]
    cos += tmp
    np.multiply(dz[:, None], scene.normal[sub, 2], out=tmp)
    cos += tmp
    gk = scene.g[sub]
    g2 = gk * gk
    s = np.multiply(2.0 * gk, cos, out=None if keep_cos else cos)
    np.subtract(1.0 + g2, s, out=s)
    np.sqrt(s, out=tmp)
    np.multiply(s, tmp, out=tmp)
    np.divide(1.0 - g2, tmp, out=tmp)
    return tmp, (cos if keep_cos else None)


@dataclass
class _Tape:
    """What one `_composite` call leaves for a backward pass or a sample list.

    Every [P, K] array is indexed by slot: row p holds ray p's live entries
    in t order, a splat in at most one slot. K is the largest live count of
    any ray, cut after the last slot any ray's termination lets contribute;
    the slots past a ray's own count are padding with w = tw = 0. `color`,
    `iso` and `aniso` are per-channel triples. `f`/`cos` are None unless
    disentangled, `iso`/`aniso` None without fused streams (`aniso` also
    without anisotropy). When no splat reaches any ray, every field but
    `final_T` is empty (K = 0).
    """

    idx: np.ndarray        # splat index of each slot
    ts: np.ndarray         # t of peak weight
    color: tuple           # l_iso + f * l_aniso
    k: np.ndarray          # exp(-q/2)
    w: np.ndarray          # alpha * k, 0 on padding
    Tb: np.ndarray         # transmittance before the slot, before masking
    tw: np.ndarray         # (Tb >= eps) * Tb * w
    final_T: np.ndarray    # [P]
    f: np.ndarray | None
    cos: np.ndarray | None
    iso: tuple | None
    aniso: tuple | None


def _composite(scene, cfg: RenderConfig, near: float, geometry, sub, dx, dy, dz,
               fused_streams=False, tape=False):
    """Shared compositing kernel over P rays with one origin.

    `geometry` is the (ts, q) pair of the caller's `_ray_geometry` call for
    the gaussians `sub` along dx/dy/dz. Each ray keeps only its live entries
    (within the cutoff, past `near`), in splat order, then t-sorts them;
    every later step runs on [P, L], L being the largest live count of any
    ray, with the ranks past a ray's own count as padding of weight 0.
    Returns (color [P,3], depth [P], final_T [P]), then, when
    fused_streams, the separately accumulated isotropic / anisotropic sums
    [P,3] each, then, when tape, a `_Tape`.
    """
    # callers pass the pair as a temporary, so this is its only reference and
    # the full-width arrays are freed once the live entries are gathered (a
    # star-unpacked call would keep them alive in its argument tuple)
    ts, q = geometry
    del geometry
    P = dx.shape[0]
    bg = scene.background
    live = q <= CUTOFF_SIGMA * CUTOFF_SIGMA
    live &= ts >= near
    count = np.count_nonzero(live, axis=1)
    L = int(count.max(initial=0))
    if L == 0:
        color = np.broadcast_to(bg, (P, 3)).copy()
        out = (color, np.zeros(P), np.ones(P))
        if fused_streams:
            out += (np.zeros((P, 3)), np.zeros((P, 3)))
        if tape:
            e = np.zeros((P, 0))
            out += (_Tape(idx=np.zeros((P, 0), dtype=np.intp), ts=e,
                          color=(e, e, e), k=e, w=e, Tb=e, tw=e, final_T=out[2],
                          f=e, cos=e, iso=(e, e, e), aniso=(e, e, e)),)
        return out
    # each ray's live columns first, in splat order, then t-sorted with the
    # padding (key +inf) last: a stable sort keeps splat order among ties,
    # and dropping dead entries drops only factors of 1.0 from the cumprod
    # and exact zeros from every sum, so no output bit depends on it
    pos = np.argsort(~live, axis=1, kind="stable")[:, :L]
    del live
    pad = np.arange(L) >= count[:, None]
    key = np.take_along_axis(ts, pos, axis=1)
    key[pad] = np.inf
    order = np.take_along_axis(pos, np.argsort(key, axis=1, kind="stable"), axis=1)
    del pos, key
    ts = np.take_along_axis(ts, order, axis=1)
    q = np.take_along_axis(q, order, axis=1)
    idx = sub[order]
    del order
    # w = alpha * exp(-q/2), built in place in q
    np.multiply(q, -0.5, out=q)
    np.exp(q, out=q)
    k = q.copy() if tape else None
    w = np.multiply(scene.alpha[idx], q, out=q)
    w[pad] = 0.0
    C = np.cumprod(1.0 - w, axis=1)
    eps = TERMINATION_EPSILON
    terminated = C < eps
    anyterm = terminated.any(axis=1)
    first = np.argmax(terminated, axis=1)
    final_T = np.where(anyterm, C[np.arange(P), first], C[:, -1])
    # ranks past every ray's termination or live count contribute nothing
    kmax = int(np.max(np.where(anyterm, first + 1, count)))
    w, ts, idx = w[:, :kmax], ts[:, :kmax], idx[:, :kmax]
    Tb = np.empty((P, kmax))
    Tb[:, 0] = 1.0
    Tb[:, 1:] = C[:, :kmax - 1]
    del C, terminated
    # tw = (Tb >= eps) * Tb * w, built in place in Tb unless the tape keeps
    # Tb (exact +0.0 masking)
    keep = Tb >= eps
    tw = np.multiply(Tb, w, out=None if tape else Tb)
    np.multiply(tw, keep, out=tw)

    f = cos = None
    if cfg.anisotropy_enabled:
        if cfg.disentangle:
            f, cos = _phase_factor(scene, dx, dy, dz, idx, keep_cos=tape)
            a0 = f * scene.l_aniso[idx, 0]
            a1 = f * scene.l_aniso[idx, 1]
            a2 = f * scene.l_aniso[idx, 2]
        else:
            a0, a1, a2 = (scene.l_aniso[idx, i] for i in range(3))
        c0 = scene.l_iso[idx, 0] + a0
        c1 = scene.l_iso[idx, 1] + a1
        c2 = scene.l_iso[idx, 2] + a2
    else:
        a0 = a1 = a2 = None
        c0, c1, c2 = (scene.l_iso[idx, i] for i in range(3))

    # row 0 of `stack` is tw, each later row tw * (per-sample value); the
    # column loop below runs the same front-to-back sequential sum as a
    # per-quantity cumsum would, leaving the totals in `tot`
    values = [c0, c1, c2, ts]
    if fused_streams:
        values += [scene.l_iso[idx, i] for i in range(3)]
        values += [a0, a1, a2] if a0 is not None else []
    stack = np.empty((11 if fused_streams else 5, P, kmax))
    stack[0] = tw
    for row, v in enumerate(values, 1):
        np.multiply(tw, v, out=stack[row])
    stack[len(values) + 1:] = 0.0
    tot = stack[:, :, 0].copy()
    for j in range(1, kmax):
        np.add(tot, stack[:, :, j], out=tot)
    color = np.empty((P, 3))
    color[:, 0] = tot[1] + final_T * bg[0]
    color[:, 1] = tot[2] + final_T * bg[1]
    color[:, 2] = tot[3] + final_T * bg[2]
    depth = np.zeros(P)
    np.divide(tot[4], tot[0], out=depth, where=tot[0] > 0)
    out = (color, depth, final_T)
    if fused_streams:
        out += (np.ascontiguousarray(tot[5:8].T), np.ascontiguousarray(tot[8:11].T))
    if tape:
        out += (_Tape(idx=idx, ts=ts, color=(c0, c1, c2), k=k[:, :kmax], w=w,
                      Tb=Tb, tw=tw, final_T=final_T, f=f, cos=cos,
                      iso=tuple(values[4:7]) or None,
                      aniso=tuple(values[7:]) or None),)
    return out


def composite_ray(scene: Scene, r: Ray, cfg: RenderConfig | None = None,
                  near: float = 0.0):
    """Composite one ray: (color 3-vector, depth, final transmittance, samples).

    Runs the same kernel as `render`, so a pixel rendered through its center
    matches this bitwise. `samples` lists the contributing primitives front to
    back with the transmittance seen by each.
    """
    cfg = cfg if cfg is not None else RenderConfig()
    v0, v1, v2, cg, _ = _origin_terms(scene, r.origin)
    dx = np.array([r.dir[0]])
    dy = np.array([r.dir[1]])
    dz = np.array([r.dir[2]])
    sub = np.arange(scene.alpha.size)
    color, depth, final_T, tape = _composite(
        scene, cfg, near, _ray_geometry(scene, v0, v1, v2, cg, dx, dy, dz, sub),
        sub, dx, dy, dz, tape=True)
    # one ray: every slot is live and sees transmittance >= epsilon
    samples = [RaySample(int(i), float(t), float(w), float(T))
               for i, t, w, T in zip(tape.idx[0], tape.ts[0], tape.w[0], tape.Tb[0])]
    return color[0], float(depth[0]), float(final_T[0]), samples


def _cone_cull(scene, origin, dist, cd, gamma, sub):
    """Indices in `sub` whose cull-radius ball can meet a ray in the cone.

    Conservative: a primitive contributes weight only where the ray passes
    within CUTOFF_SIGMA standard deviations of its center, so inside that
    ball, and every such ray lies within `gamma` of the cone axis once the
    ball's angular radius is subtracted.
    """
    d0 = scene.mu[sub, 0] - origin[0]
    d1 = scene.mu[sub, 1] - origin[1]
    d2 = scene.mu[sub, 2] - origin[2]
    ds = dist[sub]
    rad = scene.cull_radius[sub]
    inside = ds <= rad
    cos = np.ones(sub.size)
    np.divide(d0 * cd[0] + d1 * cd[1] + d2 * cd[2], ds, out=cos, where=ds > 0)
    ang = np.arccos(np.clip(cos, -1.0, 1.0))
    halfap = np.arcsin(np.clip(np.divide(rad, np.maximum(ds, 1e-300)), 0.0, 1.0))
    return sub[(ang - halfap <= gamma) | inside]


def _cone_of(dxb, dyb, dzb):
    """Axis (unit 3-vector) and half-angle of the cone containing given dirs."""
    ax = float(np.mean(dxb))
    ay = float(np.mean(dyb))
    az = float(np.mean(dzb))
    n = math.sqrt(ax * ax + ay * ay + az * az)
    if n == 0.0:
        return np.array([0.0, 0.0, 1.0]), math.pi
    ax, ay, az = ax / n, ay / n, az / n
    cosg = float(np.min(dxb * ax + dyb * ay + dzb * az))
    return np.array([ax, ay, az]), math.acos(min(max(cosg, -1.0), 1.0))


def _render_coarse_block(scene, cam, cfg, ot, head, r0, r1, c0, c1):
    """Render one coarse block; two-level cone culling, fine-tile kernel calls.

    `head` is None for physical color, else (MlpParams, embedding vector): the
    fusion head then runs once over the block's per-pixel streams (its rows
    are independent) and its output replaces the color.
    """
    rows = np.arange(r0, r1, dtype=np.float64)
    cols = np.arange(c0, c1, dtype=np.float64)
    dxb, dyb, dzb = cam.pixel_dirs(rows[:, None], cols[None, :])
    Hb, Wb = dxb.shape
    color = np.empty((Hb, Wb, 3))
    depth = np.empty((Hb, Wb, 1))
    trans = np.empty((Hb, Wb, 1))
    if head is not None:
        iso, aniso = np.empty((Hb, Wb, 3)), np.empty((Hb, Wb, 3))
    if scene.alpha.size:
        cd, gamma = _cone_of(dxb, dyb, dzb)
        sub1 = _cone_cull(scene, cam.position, ot[4], cd, gamma,
                          np.arange(scene.alpha.size))
    else:
        sub1 = np.arange(0)
    for fr in range(0, Hb, FINE_TILE):
        fr1 = min(fr + FINE_TILE, Hb)
        for fc in range(0, Wb, FINE_TILE):
            fc1 = min(fc + FINE_TILE, Wb)
            dxt = dxb[fr:fr1, fc:fc1]
            dyt = dyb[fr:fr1, fc:fc1]
            dzt = dzb[fr:fr1, fc:fc1]
            if sub1.size:
                cd, gamma = _cone_of(dxt, dyt, dzt)
                sub2 = _cone_cull(scene, cam.position, ot[4], cd, gamma, sub1)
            else:
                sub2 = sub1
            sh = dxt.shape
            dx, dy, dz = dxt.ravel(), dyt.ravel(), dzt.ravel()
            col, dep, fT, *streams = _composite(
                scene, cfg, cam.near,
                _ray_geometry(scene, *ot[:4], dx, dy, dz, sub2), sub2, dx, dy, dz,
                fused_streams=head is not None)
            if head is None:
                color[fr:fr1, fc:fc1] = col.reshape(sh + (3,))
            else:
                iso[fr:fr1, fc:fc1] = streams[0].reshape(sh + (3,))
                aniso[fr:fr1, fc:fc1] = streams[1].reshape(sh + (3,))
            depth[fr:fr1, fc:fc1, 0] = dep.reshape(sh)
            trans[fr:fr1, fc:fc1, 0] = fT.reshape(sh)
    if head is not None:
        mlp, e_vec = head
        dirs = np.stack([dxb, dyb, dzb], axis=-1)
        color = fuse_forward_batch(fusion_input(iso, aniso, e_vec, dirs),
                                   mlp).reshape(Hb, Wb, 3)
    return color, depth, trans


def _coarse_blocks(height: int, width: int):
    return [(r, min(r + COARSE_TILE, height), c, min(c + COARSE_TILE, width))
            for r in range(0, height, COARSE_TILE)
            for c in range(0, width, COARSE_TILE)]


def _worker_render(payload):
    scene, cam, cfg, ot, head, blocks = payload
    return [_render_coarse_block(scene, cam, cfg, ot, head, *block)
            for block in blocks]


def _spans(n: int, workers: int, unit: int = 1) -> list:
    """[lo, hi) runs covering range(n), one per payload: at most one per
    `unit` items and at most `workers`, and one where fork is unavailable."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    fork = "fork" in multiprocessing.get_all_start_methods()
    k = min(workers, -(-n // unit)) if fork else 1
    edges = np.linspace(0, n, k + 1).astype(np.int64).tolist()
    return list(zip(edges, edges[1:]))


class _ForkPool:
    """Forked workers behind a blocking `map` that returns a list."""

    size, executor = 0, None

    def map(self, fn, payloads) -> list:
        for rerun in (False, True):
            self.executor = self.executor or ProcessPoolExecutor(
                self.size, mp_context=multiprocessing.get_context("fork"))
            try:
                return list(self.executor.map(fn, payloads))
            except BrokenProcessPool:
                self.executor.shutdown()
                self.executor = None
                if rerun:
                    raise


_POOL = _ForkPool()


def _pool_for(size: int) -> _ForkPool:
    """The one fork pool, with as many workers as the largest map so far had
    payloads (`size`). A worker that dies breaks the map, which then reruns
    once on fresh workers: every payload's output is deterministic. A second
    death raises BrokenProcessPool. Workers fork on the first map and live
    until `_shutdown_pools` or interpreter exit."""
    if size > _POOL.size:
        _shutdown_pools()
        _POOL.size = size
    return _POOL


def _shutdown_pools() -> None:
    """Stop and join the pool's workers; the next `_pool_for` starts afresh."""
    if _POOL.executor is not None:
        _POOL.executor.shutdown()
    _POOL.size, _POOL.executor = 0, None


def render(scene: Scene, cam: Camera, cfg: RenderConfig | None = None,
           workers: int = 1, mlp: MlpParams | None = None):
    """Render color, depth, and transmittance images through pixel centers.

    With `mlp`, color is the fusion head's output for each pixel's isotropic
    and anisotropic sums, ray direction and the frame's camera embedding;
    depth and transmittance stay physical. Output is bitwise independent of
    `workers`: the coarse tile blocks split into at most `workers` runs, one
    payload each with the scene pickled in. One payload renders in this
    process; more go to `_pool_for`'s fork pool, one worker per payload.
    """
    cfg = cfg if cfg is not None else RenderConfig()
    H, W = cam.height, cam.width
    blocks = _coarse_blocks(H, W)
    ot = _origin_terms(scene, cam.position)
    head = (None if mlp is None else
            (mlp, embed_camera(cam, scene.center, scene.radius, mlp.d).vec))
    payloads = [(scene, cam, cfg, ot, head, blocks[lo:hi])
                for lo, hi in _spans(len(blocks), workers)]
    outs = (_pool_for(len(payloads)).map(_worker_render, payloads)
            if len(payloads) > 1 else [_worker_render(payloads[0])])
    results = [blk for out in outs for blk in out]
    color = np.empty((H, W, 3))
    depth = np.empty((H, W, 1))
    trans = np.empty((H, W, 1))
    for (r0, r1, c0, c1), (cb, db, tb) in zip(blocks, results):
        color[r0:r1, c0:c1] = cb
        depth[r0:r1, c0:c1] = db
        trans[r0:r1, c0:c1] = tb
    return (ImageBuffer(color, ImageKind.RADIANCE),
            ImageBuffer(depth, ImageKind.DEPTH),
            ImageBuffer(trans, ImageKind.TRANSMITTANCE))


def render_rays(scene: Scene, origin, dirs, cfg: RenderConfig | None = None,
                near: float = 0.0, fused_streams: bool = False):
    """Composite a batch of rays sharing one origin.

    dirs is [P,3] of unit vectors. Returns (color [P,3], depth [P], final_T [P])
    and, when fused_streams, the isotropic and phase-weighted anisotropic sums
    accumulated separately (the inputs the fusion head consumes).
    """
    cfg = cfg if cfg is not None else RenderConfig()
    origin = np.asarray(origin, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    if dirs.ndim != 2 or dirs.shape[1] != 3:
        raise ValueError("dirs must be [P,3]")
    v0, v1, v2, cg, _ = _origin_terms(scene, origin)
    dx, dy, dz = (np.ascontiguousarray(dirs[:, i]) for i in range(3))
    sub = np.arange(scene.alpha.size)
    return _composite(scene, cfg, near,
                      _ray_geometry(scene, v0, v1, v2, cg, dx, dy, dz, sub),
                      sub, dx, dy, dz, fused_streams=fused_streams)
