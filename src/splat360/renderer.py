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

Bit-determinism: every color-producing path (image blocks, with or without
the fusion head, and the fit's patches) runs the one kernel `_composite`
itself, not a copy of it. A full image, physical or fused, comes only from
`_render_blocks`, one kernel call per `_PairSet` of a COARSE_TILE block of
the view (`_view_grids`, the one description of the blocks), each block's
images carrying their set's first row and column, and `_view_images`, which
places them there. The ray x splat pairs come from `_pairs`, which
enumerates a pixel grid's pairs from each splat's screen-space cutoff conic
(`_conics`, built once per camera), a superset of the live pairs, splat
after splat; `_live_pairs` keeps the live ones and orders them with one
in-place sort of int64 keys whose low bits carry each pair's index
(`_ray_order`, which takes splat order from that enumeration order), and
`_composite` lays them out and composites them. `_pair_sets` runs the
first two for each grid and keeps the result, with the grid's ray
directions, as a `_PairSet`, in one layout whoever uses it. `render`
builds one per block and composites it at once; `_render_sets` composites
a view from the sets of its blocks that a caller passes, kept or built as
asked for, and `_patch_forward` a patch from its slices of one or more sets
(`_patch_pairs`), returning the kernel's `_Tape` for `_patch_backward`. A
patch pixel matches the full image's bit for bit, and its gradients those
of one call over every pair.
Each ray composites only its own live splats, ordered by t and then by
splat index, so a ray's result does not depend on which other rays, or
which dead pairs, share its call: a dead entry could only have added a
factor of 1.0 to the transmittance product and an exact zero to the sums.
The kernel lays each ray's live slots out once, rank-major (`_Tape`):
rank j of every ray that has one is one contiguous run, and a running
product or sum along the rays is a loop over ranks that multiplies or adds
each ray's terms in front-to-back order, exactly as a sequential
np.cumprod / np.cumsum along the ray would, with no padding. The slots
past a ray's stop stay in the layout with weight 0 and add -0.0, which
leaves any sum as it is. So results are independent of block size, worker
count and batching. Matrix products and pairwise sums
are deliberately avoided in per-pixel math.

The kernel's working set: a call over N live slots holds a handful of [N]
float64 arrays at a time, and it is written to keep that handful small,
since on a 2-vCPU machine a call whose arrays outgrow the cache costs more
than the arithmetic a larger working set saves. `_phase_factor` gathers
one ray direction component at a time into a reused buffer. Each slot's
color, t and fused streams are built in their own rows of the stack that
`_ray_totals` sums, and tw then multiplies each row in place
(`_stack_values`); with a tape, a value the tape keeps gets an array of its
own first and its row takes tw * value from it, so taped and untaped calls
run one section and give the same bits. An untaped call drops Tb, w, the
slot order and `ray` before it allocates the stack, and `_ray_totals` sums
in the stack's own rank-0 run. Under tracemalloc, an untaped call over a
block of a scene built like the `render` benchmark workload's (about 22k
live slots) peaks at a median of 77.7 bytes per live slot over 16 blocks
(4 frames of the seed-2029 scene `test_kernel_working_set_per_live_slot`
builds), 133.5 with fused streams.
"""
from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPrimitiveError
from .fusion import (MlpParams, embed_camera, fuse_backward_batch,
                     fuse_forward_batch, fusion_input)
from .scene import CUTOFF_SIGMA, Camera, ImageBuffer, Scene

# Pairs are enumerated and composited per COARSE_TILE block, one kernel
# call each; the blocks are also the unit of work split among workers.
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
    are constants (CUTOFF_SIGMA, TERMINATION_EPSILON), so the pair
    enumeration and the kernel cannot disagree.
    """

    disentangle: bool = True
    anisotropy_enabled: bool = True


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
    return v0, v1, v2, cg


def _ray_geometry(scene, v0, v1, v2, cg, dx, dy, dz, sub):
    """t of peak weight and squared Mahalanobis distance there, per pair.

    Pair n is gaussian sub[n] along the ray direction (dx[n], dy[n], dz[n]),
    all rays sharing one origin; returns two arrays shaped like sub. Buffers
    are reused aggressively; the expression grouping (and therefore every bit
    of the result) matches the reference forms
        tn  = dx*v0 + dy*v1 + dz*v2
        den = i00 dx^2 + i11 dy^2 + i22 dz^2 + 2 (i01 dx dy + i02 dx dz + i12 dy dz)
        ts  = tn / den,  q = max(cg - tn*ts, 0)
    """
    inv = scene.cov_inv
    tn = dx * v0[sub]
    tmp = dy * v1[sub]
    tn += tmp
    np.multiply(dz, v2[sub], out=tmp)
    tn += tmp
    pair = dx * dx
    den = inv[:, 0, 0][sub] * pair
    np.multiply(dy, dy, out=pair)
    np.multiply(inv[:, 1, 1][sub], pair, out=tmp)
    den += tmp
    np.multiply(dz, dz, out=pair)
    np.multiply(inv[:, 2, 2][sub], pair, out=tmp)
    den += tmp
    np.multiply(dx, dy, out=pair)
    cross = inv[:, 0, 1][sub] * pair
    np.multiply(dx, dz, out=pair)
    np.multiply(inv[:, 0, 2][sub], pair, out=tmp)
    cross += tmp
    np.multiply(dy, dz, out=pair)
    np.multiply(inv[:, 1, 2][sub], pair, out=tmp)
    cross += tmp
    cross *= 2.0
    den += cross
    np.divide(tn, den, out=den)
    ts = den
    np.multiply(tn, ts, out=tn)
    np.subtract(cg[sub], tn, out=tn)
    np.maximum(tn, 0.0, out=tn)
    return ts, tn


def _phase_factor(scene, dx, dy, dz, ray, sub, keep_cos=False):
    """Normalized anisotropy factor f = 4*pi*phase, elementwise over slots.

    Slot n is gaussian sub[n] seen along ray ray[n], whose direction is
    (dx, dy, dz)[ray[n]]. Grouping matches cos = dx nx + dy ny + dz nz,
    s = (1 + g^2) - (2 g) cos, f = (1 - g^2) / (s sqrt(s)). Returns (f, cos),
    cos being None unless keep_cos. The direction components are gathered
    one at a time, the second and third into one buffer that later holds
    s sqrt(s) and then f; without keep_cos, s is built in cos's buffer. So
    a call holds about four slot arrays at once (see the module docstring
    on the kernel's working set).
    """
    # mode="clip" lets np.take write straight into `out`; "raise" would
    # buffer it. Every index is in range, so the two give the same result.
    cos = np.take(dx, ray, mode="clip")
    cos *= scene.normal[:, 0][sub]
    d = np.take(dy, ray, mode="clip")
    d *= scene.normal[:, 1][sub]
    cos += d
    np.take(dz, ray, out=d, mode="clip")
    d *= scene.normal[:, 2][sub]
    cos += d
    gk = scene.g[sub]
    g2 = gk * gk
    gk *= 2.0
    s = np.multiply(gk, cos, out=None if keep_cos else cos)
    del gk
    np.subtract(1.0 + g2, s, out=s)
    np.sqrt(s, out=d)
    np.multiply(s, d, out=d)
    np.subtract(1.0, g2, out=g2)
    np.divide(g2, d, out=d)
    return d, (cos if keep_cos else None)


@dataclass
class _Tape:
    """What one `_composite` call leaves for a backward pass.

    Every [N] array is indexed by slot, one slot per live pair: each ray's
    live pairs in t order, a splat in at most one slot of a ray. Ray r's
    first n[r] slots are the ones it composites, up to and including the one
    where its transmittance falls below TERMINATION_EPSILON; the slots past
    that stop have w = tw = 0.0 (their Tb < TERMINATION_EPSILON), so they
    add nothing to any sum. The layout is rank-major: rank j (each ray's
    (j+1)-th slot) is the run offsets[j]:offsets[j+1], its rays ordered by
    live count, largest first and stably, so the rays holding a rank j slot
    are a prefix of the rays holding a rank j-1 one. `ray` is each slot's
    ray, `count` each ray's number of slots, and `by_ray` lists the slots
    ray after ray, each ray's in rank order.
    `color`, `iso` and `aniso` are per-channel triples. `f`/`cos` are None
    unless disentangled with anisotropy, `iso`/`aniso` None without fused
    streams (`aniso` also without anisotropy), whether or not any splat
    reaches a ray. When none does, every slot array is empty (N = 0).

    It also carries the scene, the rays' direction components and, from
    `_patch_forward`, their origin and the fusion head's cache (None without
    the head). `_patch_backward` reads every field but n; `_tape_key` reads
    n, Tb, by_ray, idx and which of the head's hidden units each ray fires.
    """

    idx: np.ndarray        # splat index of each slot
    ts: np.ndarray         # t of peak weight
    color: tuple           # l_iso + f * l_aniso
    k: np.ndarray          # exp(-q/2)
    w: np.ndarray          # alpha * k, 0 past the ray's stop
    Tb: np.ndarray         # transmittance before the slot
    tw: np.ndarray         # Tb * w
    final_T: np.ndarray    # [P]
    f: np.ndarray | None
    cos: np.ndarray | None
    iso: tuple | None
    aniso: tuple | None
    ray: np.ndarray        # ray of each slot
    offsets: list          # rank j is slots offsets[j]:offsets[j+1]
    by_ray: np.ndarray     # the slots in ray-major order
    count: np.ndarray      # [P] slots of each ray
    n: np.ndarray          # [P] slots each ray composites
    scene: Scene
    dirs: tuple            # (dx, dy, dz), each [P]
    origin: np.ndarray | None = None
    cache: tuple | None = None


def _ray_order(ray, sub, ts, P: int):
    """The order that puts pairs ray after ray, each ray's by t and then by
    splat index, as np.lexsort((sub, ts, ray)) does. Two preconditions: every
    t is >= 0 (-0.0 included), as a live pair's t, past a near plane >= 0,
    is; and the pairs are splat-major (sub non-decreasing in enumeration
    order), as `_pairs` emits them and a compress keeps them.

    One in-place sort of int64 keys, the value packed into the key: with
    rb = max(bit_length(P - 1), 1) and ib = max(bit_length(N - 1), 1) for N
    pairs, a pair's key holds its ray in the top rb bits (62 down to
    63 - rb), then t's float64 bit pattern (t + 0.0 turns -0.0 into +0.0)
    minus the call's smallest pattern, shifted right only as far as the
    span needs to fit 63 - rb - ib bits, then the pair's enumeration index
    in the low ib bits, which the sorted keys give back as the order.
    Non-negative doubles order as their bit patterns do, so pairs whose ray
    and t fields differ sort as lexsort would. Neighbours whose fields agree
    stay in enumeration order, which is splat order, so they too match
    lexsort unless their exact t fall; t is gathered only at such ties, and
    only the rays that hold a fall are re-sorted, by lexsort. The fields
    fit while rb + ib <= 63. On a 64^2 block of the `render` benchmark
    workload (about 22k live pairs, 2-vCPU VM, numpy 2.4 on AVX-512) this
    takes about 0.36 ms, half of it in the sort, and re-sorts no ray.
    """
    n = ts.size
    if not n:
        return np.empty(0, dtype=np.intp)
    rb = max((P - 1).bit_length(), 1)
    ib = max((n - 1).bit_length(), 1)
    key = (ts + 0.0).view(np.int64)
    key -= key.min()
    key >>= max(int(key.max()).bit_length() - (63 - rb - ib), 0)
    key <<= ib
    key |= ray << (63 - rb)
    key |= np.arange(n)
    key.sort()
    low = (1 << ib) - 1
    tie = np.flatnonzero((key[1:] ^ key[:-1]) <= low)
    key &= low
    fall = tie[ts[key[tie + 1]] < ts[key[tie]]]
    if fall.size:
        rays = np.unique(ray[key[fall]])
        count = np.bincount(ray, minlength=P)
        pos = _runs((np.cumsum(count) - count)[rays], count[rays])
        seg = key[pos]
        key[pos] = seg[np.lexsort((sub[seg], ts[seg], ray[seg]))]
    return key


def _rank_major(ray, rank, n):
    """(slot of each pair, rank offsets, ray order) in the rank-major layout
    of rays holding n[r] pairs each, pair i being rank rank[i] of ray ray[i].
    The ray order lists the rays by count, largest first and stably: rank j
    holds its first offsets[j+1] - offsets[j]."""
    L = int(n.max(initial=0))
    by_n = np.argsort((L - n).astype(np.min_scalar_type(L)), kind="stable")
    pos = np.empty_like(by_n)
    pos[by_n] = np.arange(n.size)
    # rank j is held by the rays with more than j pairs
    width = n.size - np.cumsum(np.bincount(n, minlength=L + 1))[:L]
    offsets = np.zeros(L + 1, dtype=np.intp)
    np.cumsum(width, out=offsets[1:])
    return offsets[rank] + pos[ray], offsets.tolist(), by_n


def _scan_ranks(op, a, offsets) -> None:
    """In place along the last axis of a rank-major `a`, each slot becomes
    op(its ray's previous slot, itself): np.multiply gives the running
    product along each ray, np.add the running sum, the same operations in
    the same order as np.cumprod / np.cumsum along a row."""
    for j in range(1, len(offsets) - 1):
        prev, lo, hi = offsets[j - 1], offsets[j], offsets[j + 1]
        op(a[..., prev:prev + hi - lo], a[..., lo:hi], out=a[..., lo:hi])


def _ray_totals(a, offsets, rays):
    """Each ray's sum over its slots of a rank-major `a` (along its last
    axis), +0.0 for a ray with no slot; `rays` is `_rank_major`'s ray order.

    Rank j's run is added into the running sums of rank 0's run, rank after
    rank: the additions `_scan_ranks(np.add, ...)` makes, in the same order,
    so the bits of its running sum at each ray's last slot. The sums are
    made in rank 0's run of `a` itself, which the call consumes; the slots
    past it are left as they are.
    """
    width = offsets[1] if len(offsets) > 1 else 0
    acc = a[..., :width]
    for j in range(1, len(offsets) - 1):
        lo, hi = offsets[j], offsets[j + 1]
        acc[..., :hi - lo] += a[..., lo:hi]
    out = np.zeros(a.shape[:-1] + (rays.size,))
    out[..., rays[:width]] = acc
    return out


def _live_pairs(ray, sub, geometry, near: float, P: int):
    """The live pairs among (ray, sub) and their ray-major order: the front
    end of every kernel call over P rays.

    Pair n is gaussian sub[n] on ray ray[n], a ray meeting a gaussian at
    most once, and `geometry` is the (ts, q) pair of the caller's
    `_ray_geometry` call for the pairs. A pair is live within the cutoff and
    past `near`. Returns (sub, ts, q, order, count) over the live pairs, in
    their enumeration order: `order` lists them ray after ray, each ray's by
    t and then by splat index, and count[r] is ray r's live count. The
    pairs must come splat-major, as `_pairs` enumerates them: the compress
    keeps that order, and `_ray_order`'s one sort reads splat order from it
    where two pairs of a ray share its key's t field. When every pair is
    live, the returned sub, ts and q are the arrays passed in, not copies of
    them. `_composite` takes the tuple as it is.
    """
    # callers pass the pair as a temporary, so this is its only reference and
    # the arrays over every pair are freed once the live ones are gathered (a
    # star-unpacked call would keep them alive in its argument tuple); when
    # every pair is live nothing is gathered, and the arrays are kept
    ts, q = geometry
    del geometry
    live = q <= CUTOFF_SIGMA * CUTOFF_SIGMA
    live &= ts >= near
    if not live.all():
        ray, sub, ts, q = ray[live], sub[live], ts[live], q[live]
    del live
    return (sub, ts, q, _ray_order(ray, sub, ts, P),
            np.bincount(ray, minlength=P))


def _stack_values(scene, cfg: RenderConfig, idx, ts, f, stack, tape: bool):
    """Fill rows 1: of `_composite`'s stack, whose row 0 holds tw, with tw
    times each slot's value: its color (rows 1-3) and t (row 4) and, in an
    11-row stack, its iso and aniso streams (rows 5-7 and 8-10, zero without
    anisotropy). Slot n is splat idx[n], `f` its phase factor or None.

    Each value is built in its own row, which then takes tw * value in
    place, so the section holds no slot array beside the stack but one
    gather. With `tape` a value the tape keeps is built in an array of its
    own, and its row takes tw * value from it; returns those values, in row
    order, or None without `tape`. Either way every row has the same bits.
    """
    tw = stack[0]

    def at(row):
        return None if tape else stack[row]

    def gather(col, row):
        # mode="clip" as in `_phase_factor`
        return np.take(col, idx, out=at(row), mode="clip")

    fused = stack.shape[0] == 11
    iso = [gather(scene.l_iso[:, i], 5 + i) for i in range(3)] if fused else []
    aniso = []
    if cfg.anisotropy_enabled:
        aniso = [gather(scene.l_aniso[:, i], (8 if fused else 1) + i)
                 for i in range(3)]
        if f is not None:
            for a in aniso:
                np.multiply(f, a, out=a)
        color = [np.add(iso[i] if fused else scene.l_iso[:, i][idx], aniso[i],
                        out=at(1 + i)) for i in range(3)]
    else:
        color = [gather(scene.l_iso[:, i], 1 + i) for i in range(3)]
    values = color + [ts] + (iso + aniso if fused else [])
    for row, v in enumerate(values, 1):
        np.multiply(tw, v, out=stack[row])
    stack[len(values) + 1:] = 0.0
    return values if tape else None


def _composite(scene, cfg: RenderConfig, live, dx, dy, dz,
               fused_streams=False, tape=False):
    """Shared compositing kernel over P rays with one origin, the direction
    of ray r being (dx[r], dy[r], dz[r]).

    `live` is (sub, ts, q, order, count) as `_live_pairs` returns it:
    live pairs of splat sub[i] at ts[i] and squared Mahalanobis distance
    q[i], of which order[count[:r].sum():][:count[r]] are ray r's in front
    to back order. Each ray stops at the first pair whose transmittance
    falls below TERMINATION_EPSILON. The live pairs are laid out once,
    rank-major as `_Tape` describes, in one gather through `order`, so no
    ray carries padding: the transmittance is a running product over ranks,
    the slots past each ray's stop get w = 0, and each ray's front-to-back
    totals are sums over ranks (`_ray_totals`) in which those slots add
    -0.0, which leaves every sum as it is. Returns (color [P,3], depth [P],
    final_T [P]), then, when fused_streams, the separately accumulated
    isotropic / anisotropic sums [P,3] each, then, when tape, a `_Tape`.
    """
    sub, ts, q, order, count = live
    del live
    P = dx.shape[0]
    bg = scene.background
    by_t = np.repeat(np.arange(P), count)
    start = np.cumsum(count) - count
    slot, offsets, rays = _rank_major(
        by_t, np.arange(by_t.size) - start[by_t], count)
    src = np.empty_like(order)
    src[slot] = order
    ray = np.empty_like(by_t)
    ray[slot] = by_t
    del order, by_t
    idx, ts, q = sub[src], ts[src], q[src]
    del src, sub
    # w = alpha * exp(-q/2), built in place in q
    np.multiply(q, -0.5, out=q)
    np.exp(q, out=q)
    k = q.copy() if tape else None
    w = np.multiply(scene.alpha[idx], q, out=q)
    del q
    # transmittance before each slot, the running product of 1 - w over the
    # ray's earlier slots: the multiplications of np.cumprod along the ray
    omw = 1.0 - w
    Tb = np.ones(w.size)
    for j in range(1, len(offsets) - 1):
        prev, lo, hi = offsets[j - 1], offsets[j], offsets[j + 1]
        np.multiply(Tb[prev:prev + hi - lo], omw[prev:prev + hi - lo],
                    out=Tb[lo:hi])
    # the transmittance never rises along a ray, so the slots whose Tb is
    # below eps are the ones past the first pair that took it there
    dead = np.flatnonzero(Tb < TERMINATION_EPSILON)
    n = count - np.bincount(ray[dead], minlength=P)
    hit = np.flatnonzero(n)
    last = slot[start[hit] + n[hit] - 1]
    final_T = np.ones(P)
    final_T[hit] = Tb[last] * omw[last]
    del omw, start, hit, last
    w[dead] = 0.0
    tw = Tb * w
    if not tape:
        del Tb, w, slot

    f = cos = None
    if cfg.anisotropy_enabled and cfg.disentangle:
        f, cos = _phase_factor(scene, dx, dy, dz, ray, idx, keep_cos=tape)
    if not tape:
        del ray

    # row 0 of `stack` is tw, each later row tw * (per-slot value), -0.0
    # past each ray's stop (0 * value is +0.0 or -0.0, and only -0.0 leaves a
    # sum of -0.0 terms as it is)
    stack = np.empty((11 if fused_streams else 5, idx.size))
    stack[0] = tw
    if not tape:
        del tw
    values = _stack_values(scene, cfg, idx, ts, f, stack, tape)
    stack[:, dead] = -0.0
    tot = _ray_totals(stack, offsets, rays)
    del stack
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
        out += (_Tape(idx=idx, ts=ts, color=tuple(values[:3]), k=k, w=w, Tb=Tb,
                      tw=tw, final_T=final_T, f=f, cos=cos,
                      iso=tuple(values[4:7]) or None,
                      aniso=tuple(values[7:]) or None, ray=ray,
                      offsets=offsets, by_ray=slot, count=count, n=n,
                      scene=scene, dirs=(dx, dy, dz)),)
    return out


def _conics(scene, cam, ot):
    """The per-splat terms of `_pairs`' cutoff conics in cam's pixel plane:
    ((pp, pf, pu, ff, fu, uu), bounded, d2, vc, vh, front), computed once
    per camera and shared by every pixel grid `_pairs` enumerates for it.

    `ot` is `_origin_terms` at cam.position. The kernel's test
    q <= CUTOFF_SIGMA^2 does not change when the ray direction is scaled, so
    for `Camera.pixel_dirs`' direction before it normalises,
    d = F + u p + v U (F forward, p = a right, U = t up), a pair can be live
    only where d^T M d <= 0, M = (cg - CUTOFF_SIGMA^2) Sigma^-1 - b b^T with
    b = (v0, v1, v2): a conic in (u, v), whose six coefficients pp = p^T M p,
    pf = p^T M F, ... are the first term. On row v it is the quadratic
    pp u^2 + 2 B u + C <= 0, B = p^T M (F + v U),
    C = (F + v U)^T M (F + v U), whose discriminant B^2 - pp C is itself a
    quadratic in v, d2 being its discriminant and vc +- vh its roots.

    The conic is grown by a margin, so that it holds every pair whose q the
    kernel rounds to within the cutoff: M's cg - CUTOFF_SIGMA^2 is lowered
    to k = cg - CUTOFF_SIGMA^2 (1 + 1e-6) - 64 eps |Sigma^-1|_1 |mu - o|^2,
    eps the float64 machine epsilon and o the camera position. The
    kernel's q = max(cg - tn ts, 0) is the difference of two terms of about
    cg, and its tn and den sum products of Sigma^-1's entries that cancel,
    so its absolute error grows with cg times the splat's anisotropy; the
    conic's own coefficients cancel the same way. |Sigma^-1|_1 |mu - o|^2
    (the sum of the entries' magnitudes times the squared distance) bounds
    that scale: it is at least cg and, for a thin splat, about the squared
    distance in its thinnest sigma. The relative 1e-6 leaves room for the
    rounding of the roots and of the pixel coordinates. A conic that is not a bounded
    ellipse (pp <= 0, a row discriminant whose v^2 term is >= 0, or an
    origin inside the ellipsoid) is not `bounded`; a bounded one on the
    nappe behind the camera (b . d < 0 at its centre, i.e. the ellipsoid
    lies wholly behind the camera plane) is not `front`; pp is 1.0 where a
    conic is not bounded.
    """
    v0, v1, v2, cg = ot
    t = math.tan(0.5 * cam.fov_y)
    axes = np.stack([(cam.width / cam.height * t) * cam.right, cam.forward,
                     t * cam.up])
    bd = np.stack([v0, v1, v2], axis=1) @ axes.T     # b . p, b . F, b . U
    off = scene.mu - cam.position
    scale = np.abs(scene.cov_inv).sum(axis=(1, 2)) * (off * off).sum(axis=1)
    k = (cg - CUTOFF_SIGMA * CUTOFF_SIGMA * (1.0 + 1e-6)
         - 64.0 * np.finfo(np.float64).eps * scale)
    m = (k[:, None, None] * (axes @ scene.cov_inv @ axes.T)
         - bd[:, :, None] * bd[:, None, :])
    pp, pf, pu = m[:, 0, 0], m[:, 0, 1], m[:, 0, 2]
    ff, fu, uu = m[:, 1, 1], m[:, 1, 2], m[:, 2, 2]
    # the row discriminant B^2 - pp C = a2 v^2 + 2 b2 v + (pf^2 - pp ff)
    a2 = pu * pu - pp * uu
    b2 = pf * pu - pp * fu
    bounded = (k > 0.0) & (pp > 0.0) & (a2 < 0.0)
    a2 = np.where(bounded, a2, -1.0)
    pp = np.where(bounded, pp, 1.0)
    d2 = b2 * b2 - a2 * (pf * pf - pp * ff)
    vc = b2 / -a2                                  # the ellipse's centre
    vh = np.sqrt(np.maximum(d2, 0.0)) / -a2
    uc = (pf + vc * pu) / -pp
    front = bd[:, 1] + uc * bd[:, 0] + vc * bd[:, 2] >= 0.0
    return (pp, pf, pu, ff, fu, uu), bounded, d2, vc, vh, front


def _runs(first: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The indices first[k]:first[k] + n[k], run after run."""
    return np.arange(n.sum()) + np.repeat(first - (np.cumsum(n) - n), n)


def _pairs(conics, cam, rows, cols):
    """(ray, sub): the ray x splat pairs of the pixel grid rows x cols (runs
    of consecutive pixel indices) that can be live, splat-major, each
    splat's rays ascending, ray = i * cols.size + j for rows[i], cols[j].

    `conics` is `_conics` for cam. The roots of each splat's conic bound
    its rows and each of its rows' columns, and a pixel is enumerated when
    its centre lies within both. The kernel's q and near-plane test still
    decide what is live, so the enumeration only has to hold every live
    pair; the margin by which `_conics` grows each conic sees to that, and
    the intervals are not widened. A splat whose conic is not
    bounded gets every pixel; a bounded one behind the camera, or with no
    real row (d2 < 0), gets none.
    """
    (pp, pf, pu, ff, fu, uu), bounded, d2, vc, vh, front = conics
    H, W, R, C = cam.height, cam.width, rows.size, cols.size

    def first_last(lo, hi, n):
        # grid indices [first, last] of the pixels whose centres lie in the
        # fractional index range [lo, hi]
        first = np.ceil(np.clip(lo, -1.0, n))
        last = np.floor(np.clip(hi, -1.0, n))
        return (np.maximum(first, 0.0).astype(np.intp),
                np.minimum(last, n - 1.0).astype(np.intp))

    # v = 1 - (row + 0.5) / H * 2, so the row index falls as v rises
    r_lo, r_hi = first_last((1.0 - (vc + vh)) * (H / 2.0) - 0.5 - rows[0],
                            (1.0 - (vc - vh)) * (H / 2.0) - 0.5 - rows[0], R)
    r_lo[~bounded] = 0
    r_hi[~bounded] = R - 1
    r_hi[bounded & ((d2 < 0.0) | ~front)] = -1
    nrow = np.maximum(r_hi - r_lo + 1, 0)
    # one segment per (splat, row)
    g = np.repeat(np.arange(bounded.size), nrow)
    i = _runs(r_lo, nrow)
    v = 1.0 - (rows[i] + 0.5) / H * 2.0
    bv = pf[g] + v * pu[g]
    disc = bv * bv - pp[g] * (ff[g] + v * (2.0 * fu[g] + v * uu[g]))
    uc = bv / -pp[g]
    uh = np.sqrt(np.maximum(disc, 0.0)) / pp[g]
    # u = (col + 0.5) / W * 2 - 1
    c_lo, c_hi = first_last((uc - uh + 1.0) * (W / 2.0) - 0.5 - cols[0],
                            (uc + uh + 1.0) * (W / 2.0) - 0.5 - cols[0], C)
    full = ~bounded[g]
    c_lo[full] = 0
    c_hi[full] = C - 1
    c_hi[~full & (disc < 0.0)] = -1
    n = np.maximum(c_hi - c_lo + 1, 0)
    sub = np.repeat(g, n)
    return _runs(i * C + c_lo, n), sub


@dataclass
class _PairSet:
    """The live ray x splat pairs of a pixel grid of one camera, for one
    scene geometry: what the kernel reads of each pair (splat index, t of
    peak weight, squared Mahalanobis distance q there), in the order `_pairs`
    enumerated them, and `order`, which lists them ray-major: the pixels row
    after row, each pixel's pairs one run in t order and then by splat
    index. This is `_live_pairs`'s tuple as the kernel takes it. start and
    count give each pixel's run in the ray-major listing, and `dirs` the
    unit direction of each pixel's ray (`Camera.pixel_dirs`, elementwise, so
    any window of it has the bits of the window's own call). A set depends
    on the scene's geometry only, so one built for a scene composites any
    appearance of it: `_render_blocks` composites a set's whole grid,
    `_patch_pairs` any window of one or more sets."""

    sub: np.ndarray     # splat of each pair
    ts: np.ndarray
    q: np.ndarray
    order: np.ndarray
    start: np.ndarray   # [R, C]
    count: np.ndarray   # [R, C]
    dirs: tuple         # (dx, dy, dz), each [R, C]
    r0: int             # the grid's first row and column
    c0: int


def _pair_sets(scene, cam, grids, geometry=None):
    """An iterator over the `_PairSet` of each pixel grid (rows, cols) in
    `grids`, both runs of consecutive pixel indices: the pairs `_pairs`
    enumerates for it from the camera's `_conics`, built here once for all
    the grids, kept where live and put in order by the kernel's own front
    end (`_live_pairs`). Each set is built when it is asked for, so a
    caller that composites each before the next holds one at a time. A
    set holds about 32 bytes per live pair and 40 per pixel.
    `geometry`, by default this module's `_ray_geometry`, is the one the
    caller looks up, so a fit's pair work shows at the fit's own import.
    """
    geometry = _ray_geometry if geometry is None else geometry
    ot = _origin_terms(scene, cam.position)
    conics = _conics(scene, cam, ot)

    def build(rows, cols):
        dirs = cam.pixel_dirs(rows[:, None], cols[None, :])
        dx, dy, dz = (a.ravel() for a in dirs)
        ray, sub = _pairs(conics, cam, rows, cols)
        sub, ts, q, order, count = _live_pairs(
            ray, sub, geometry(scene, *ot, dx[ray], dy[ray], dz[ray], sub),
            cam.near, dx.size)
        start = np.cumsum(count) - count
        shape = (rows.size, cols.size)
        return _PairSet(sub=sub, ts=ts, q=q, order=order,
                        start=start.reshape(shape), count=count.reshape(shape),
                        dirs=dirs, r0=int(rows[0]), c0=int(cols[0]))

    return (build(rows, cols) for rows, cols in grids)


def _patch_pairs(sets: list[_PairSet], rows: np.ndarray, cols: np.ndarray):
    """`_composite`'s live tuple for the pixel grid rows x cols, and its
    rays' directions (dx, dy, dz), from `_PairSet`s whose grids tile a
    region holding it; the sets that do not meet it are skipped.

    A set's pairs of the grid are runs of its ray-major listing, one along
    each row of their overlap, and its directions there are a window of its
    `dirs`. From one set, the tuple indexes that set's arrays, so the kernel
    gathers each pair once. From several, each set's pairs are gathered,
    set after set, and the tuple's order indexes that concatenation.
    """
    R, C = rows.size, cols.size
    r0, c0 = int(rows[0]), int(cols[0])
    count = np.empty((R, C), dtype=np.intp)
    dirs = np.empty((3, R, C))
    pieces = []
    for ps in sets:
        gr, gc = ps.count.shape
        i0, i1 = max(r0, ps.r0), min(r0 + R, ps.r0 + gr)
        j0, j1 = max(c0, ps.c0), min(c0 + C, ps.c0 + gc)
        if i0 >= i1 or j0 >= j1:
            continue
        win = np.s_[i0 - ps.r0:i1 - ps.r0, j0 - ps.c0:j1 - ps.c0]
        at = np.s_[i0 - r0:i1 - r0, j0 - c0:j1 - c0]
        count[at] = ps.count[win]
        for d, grid_d in zip(dirs, ps.dirs):
            d[at] = grid_d[win]
        runs = _runs(ps.start[win][:, 0], count[at].sum(axis=1))
        pieces.append((ps, ps.order[runs], at))
    dirs = tuple(dirs.reshape(3, -1))
    if len(pieces) == 1:
        ps, order, _ = pieces[0]
        return (ps.sub, ps.ts, ps.q, order, count.ravel()), dirs
    # a pixel's run starts at its piece's offset in the concatenation plus
    # the run's place in the piece, which is ray-major over the overlap
    first = np.empty((R, C), dtype=np.intp)
    n = 0
    for _, ix, at in pieces:
        cnt = count[at]
        first[at] = n + (np.cumsum(cnt) - cnt.ravel()).reshape(cnt.shape)
        n += ix.size
    sub, ts, q = (np.concatenate([getattr(ps, a)[ix] for ps, ix, _ in pieces])
                  for a in ("sub", "ts", "q"))
    return (sub, ts, q, _runs(first.ravel(), count.ravel()), count.ravel()), dirs


def _patch_forward(scene: Scene, cam: Camera, rcfg: RenderConfig,
                   sets: list[_PairSet], rows: np.ndarray, cols: np.ndarray,
                   mlp: MlpParams | None, e_vec: np.ndarray | None):
    """Colors [P,3] for the pixel grid rows x cols, rays in row-major order,
    and the kernel's `_Tape`, with cam's position and the fusion cache in it,
    for `_patch_backward`.

    `sets` are `_PairSet`s built for this scene's geometry whose grids tile
    a region holding the patch: the view's blocks, or the patch's own. The
    patch takes its pixels' runs and ray directions from them
    (`_patch_pairs`) and runs the kernel once over them, then the
    fusion head once over the whole patch.
    Each ray composites only its own live pairs in their order, so the
    colors match a render bitwise whatever grids the pairs came from.
    """
    live, (dx, dy, dz) = _patch_pairs(sets, rows, cols)
    colors, _, _, *streams = _composite(
        scene, rcfg, live, dx, dy, dz, fused_streams=mlp is not None, tape=True)
    cache = None
    if mlp is not None:
        colors, cache = fuse_forward_batch(
            fusion_input(streams[0], streams[1], e_vec, np.stack([dx, dy, dz], axis=1)),
            mlp, want_cache=True)
    streams[-1].origin, streams[-1].cache = cam.position, cache
    return colors, streams[-1]


def _patch_backward(tp: _Tape, rcfg: RenderConfig, gpix: np.ndarray,
                    mlp: MlpParams | None, geometry: bool = False) -> dict:
    """Gradients of the patch loss, keyed by the `Scene` attribute each
    differentiates: "alpha" [G], "l_iso" [G,3], "l_aniso" [G,3] and "g" [G];
    with `geometry` also "mu" [G,3] and "cov_inv" [G,3,3] (Sigma^-1); with an
    MLP also "head", an MlpParams of its weights' gradients.

    Each per-slot product is added into its splat's entry (a scatter-add
    over the tape's splat indices). The tape's slots are each ray's live
    entries, a splat in at most one slot of a ray, the ones past the ray's
    termination with weight 0, so every product there is zero. They are put
    in ray-major order before every sum, so each sum runs over the same terms
    in the same ray order as a dense pass over every splat, less that pass's
    exact zeros for the splats not live on the ray (not enumerated, past the
    cutoff or before the near plane). np.bincount's sums start at +0.0,
    which a zero term never changes, so the gradients depend neither on the
    enumeration nor on the tape's layout. The running sum along each ray
    runs rank by rank over the tape's layout, as the kernel's own do, and
    each ray's total is read from it at the ray's last slot: the additions
    `_ray_totals` would make, in the same order. A zero past a ray's stop
    can turn its total from -0.0 to +0.0, but only where every term is
    zero, and the tail is +0.0 either way. The pixel gradient is gathered at
    the slots once per channel, and every per-slot product reuses it.

    The loss sees geometry only through w = alpha exp(-q/2), as sort order
    and liveness are piecewise constant. q = min over t of r^T Sigma^-1 r,
    with r = mu - o - t d, is reached at the tape's t, so dq/dmu = 2 Sigma^-1 r
    and dq/dSigma^-1 = r r^T (envelope theorem); "cov_inv" is the symmetric
    sum of the latter, each entry once, and a caller that fits the covariance
    through its own parameters applies their chain rule to it.
    """
    scene = tp.scene
    P, G = gpix.shape[0], scene.alpha.size
    ray = tp.ray
    out = {}
    # the pixel gradient at each slot, gathered once per channel: gi of the
    # isotropic color or stream, ga of the anisotropic one
    if mlp is not None:
        out["head"], dX = fuse_backward_batch(tp.cache, mlp, gpix)
        gi = [dX[:, ch][ray] for ch in range(3)]
        dotc = gi[0] * tp.iso[0] + gi[1] * tp.iso[1] + gi[2] * tp.iso[2]
        if rcfg.anisotropy_enabled:
            ga = [dX[:, 3 + ch][ray] for ch in range(3)]
            dotc = dotc + (ga[0] * tp.aniso[0] + ga[1] * tp.aniso[1]
                           + ga[2] * tp.aniso[2])
        tail_bg = np.zeros(P)
    else:
        gi = ga = [gpix[:, ch][ray] for ch in range(3)]
        dotc = gi[0] * tp.color[0] + gi[1] * tp.color[1] + gi[2] * tp.color[2]
        bg = scene.background
        tail_bg = ((gpix[:, 0] * bg[0] + gpix[:, 1] * bg[1]
                    + gpix[:, 2] * bg[2]) * tp.final_T)

    pref = dotc * tp.tw                       # per slot, then its running sum
    _scan_ranks(np.add, pref, tp.offsets)
    # each ray's total is its running sum at its last slot
    hit = np.flatnonzero(tp.count)
    total = np.zeros(P)
    total[hit] = pref[tp.by_ray[np.cumsum(tp.count)[hit] - 1]]
    tail = total[ray] - pref + tail_bg[ray]   # strictly-later terms + background
    dw_s = np.where(tp.tw > 0.0,
                    dotc * tp.Tb - tail / np.maximum(1.0 - tp.w, 1e-300), 0.0)
    idx = tp.idx[tp.by_ray]

    def ray_sum(slot_values):
        return np.bincount(idx, slot_values[tp.by_ray], minlength=G)

    dalpha = ray_sum(dw_s * tp.k)
    # color slot grads: d c / d l_iso = 1; d c / d l_aniso = f; d c / d g via f
    dli = np.empty((G, 3))
    dla = np.zeros((G, 3))
    for ch in range(3):
        dli[:, ch] = ray_sum(tp.tw * gi[ch])
    if rcfg.anisotropy_enabled:
        for ch in range(3):
            twa = tp.tw * ga[ch]
            dla[:, ch] = ray_sum(twa if tp.f is None else twa * tp.f)
    dg = np.zeros(G)
    if rcfg.anisotropy_enabled and rcfg.disentangle:
        la = [scene.l_aniso[:, ch][tp.idx] for ch in range(3)]
        la_dot = ga[0] * la[0] + ga[1] * la[1] + ga[2] * la[2]
        cosg = tp.cos
        gk = scene.g[tp.idx]
        s = (1.0 + gk * gk) - (2.0 * gk) * cosg
        sq = np.sqrt(s)
        dfdg = (-2.0 * gk) / (s * sq) - 3.0 * (1.0 - gk * gk) * (gk - cosg) / (s * s * sq)
        dg = ray_sum(tp.tw * la_dot * dfdg)
    out.update(alpha=dalpha, l_iso=dli, l_aniso=dla, g=dg)
    if geometry:
        gq = dw_s * (-0.5 * tp.w)            # dL/dq per slot
        r = [(scene.mu[:, c][tp.idx] - tp.origin[c]) - tp.ts * tp.dirs[c][ray]
             for c in range(3)]
        gr = [gq * rc for rc in r]
        sr = [ray_sum(v) for v in gr]
        inv = scene.cov_inv
        out["mu"] = np.stack([2.0 * (inv[:, c, 0] * sr[0] + inv[:, c, 1] * sr[1]
                                     + inv[:, c, 2] * sr[2]) for c in range(3)], axis=1)
        dinv = out["cov_inv"] = np.empty((G, 3, 3))
        for a in range(3):
            for b in range(a, 3):
                dinv[:, a, b] = dinv[:, b, a] = ray_sum(gr[a] * r[b])
    return out


def _tape_key(tp: _Tape) -> tuple:
    """Each ray's t-ordered composited splats, ray after ray with each ray's
    count `n`, and with the fusion head the hidden units each ray fires: the
    patch loss is smooth only while this stays the same, in geometry for the
    former and in any parameter for the latter, the head's ReLU kinks. The
    tape's slots past a ray's stop are the ones whose Tb is below
    TERMINATION_EPSILON."""
    kept = tp.by_ray[tp.Tb[tp.by_ray] >= TERMINATION_EPSILON]
    key = (tp.n.tobytes(), tp.idx[kept].tobytes())
    if tp.cache is not None:
        _, z1, _, z2, _, _ = tp.cache
        key += (np.packbits(z1 > 0.0).tobytes(), np.packbits(z2 > 0.0).tobytes())
    return key


def _render_blocks(scene, cam, cfg, mlp, sets) -> list:
    """(r0, c0, color, depth, transmittance) of each of cam's `_PairSet`s,
    in turn: the images of the set's whole grid, from one kernel call over
    its pairs, and where they start in the view.

    With `mlp` the fusion head runs once over each grid's per-pixel streams
    (its rows are independent), with cam's embedding, and its output
    replaces the color. The kernel gets a set's pairs as their only
    reference, unless the caller keeps the set, so it frees those of a set
    built as it is asked for (`render`'s, a fit's unkept views') as it goes:
    held through the call, they made a `render` frame about 4% slower.
    """
    e_vec = (None if mlp is None else
             embed_camera(cam, scene.center, scene.radius, mlp.d))
    out = []
    for ps in sets:
        dx, dy, dz = (a.ravel() for a in ps.dirs)
        r0, c0, shape = ps.r0, ps.c0, ps.count.shape
        # popped into the call, so no name here holds the pairs meanwhile
        live = [(ps.sub, ps.ts, ps.q, ps.order, ps.count.ravel())]
        del ps
        color, depth, trans, *streams = _composite(
            scene, cfg, live.pop(), dx, dy, dz, fused_streams=mlp is not None)
        if mlp is not None:
            color = fuse_forward_batch(
                fusion_input(*streams, e_vec, np.stack([dx, dy, dz], axis=1)), mlp)
        out.append((r0, c0, color.reshape(shape + (3,)),
                    depth.reshape(shape + (1,)), trans.reshape(shape + (1,))))
    return out


def _view_grids(cam) -> list:
    """The (rows, cols) pixel grid of each COARSE_TILE x COARSE_TILE block
    of cam's view, row-major: the grids whose sets `render` composites, and
    `_render_sets` takes."""
    return [(np.arange(r, min(r + COARSE_TILE, cam.height), dtype=np.float64),
             np.arange(c, min(c + COARSE_TILE, cam.width), dtype=np.float64))
            for r in range(0, cam.height, COARSE_TILE)
            for c in range(0, cam.width, COARSE_TILE)]


def _worker_render(payload):
    """`_render_blocks` over cam's `_view_grids` lo to hi."""
    scene, cam, cfg, mlp, lo, hi = payload
    return _render_blocks(scene, cam, cfg, mlp,
                          _pair_sets(scene, cam, _view_grids(cam)[lo:hi]))


def _view_images(cam, blocks):
    """The color, depth and transmittance ImageBuffers of cam's view, each
    `_render_blocks` block placed where it starts."""
    images = tuple(np.empty((cam.height, cam.width, c)) for c in (3, 1, 1))
    for r0, c0, *block in blocks:
        h, w = block[1].shape[:2]
        for image, b in zip(images, block):
            image[r0:r0 + h, c0:c0 + w] = b
    return tuple(map(ImageBuffer, images))


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
            if self.executor is None:
                self.executor = ProcessPoolExecutor(
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
    payloads = [(scene, cam, cfg, mlp, lo, hi)
                for lo, hi in _spans(len(_view_grids(cam)), workers)]
    outs = (_pool_for(len(payloads)).map(_worker_render, payloads)
            if len(payloads) > 1 else [_worker_render(payloads[0])])
    return _view_images(cam, [blk for out in outs for blk in out])


def _render_sets(scene: Scene, cam: Camera, cfg: RenderConfig, mlp, sets):
    """`render(scene, cam, cfg, mlp=mlp)`'s images, bit for bit, composited
    from `sets`: the `_PairSet`s of cam's `_view_grids`, built for scene's
    geometry, an appearance-only fit's kept sets or `_pair_sets`' iterator."""
    return _view_images(cam, _render_blocks(scene, cam, cfg, mlp, sets))
