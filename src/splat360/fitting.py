"""Desk-scale fitting of splat appearance (and optionally geometry) with Adam.

Each iteration renders one square pixel patch (rays_per_step rays) of a
round-robin target view, computes the composite loss (MSE + SSIM with an
adaptive window), and backpropagates analytically through the compositing
kernel to the appearance parameters: alpha via logit, l_iso via logit,
l_aniso via inverse softplus, g via atanh, so constraints hold by
construction. The backward pass reads the kernel's tape and scatter-adds
each per-slot product into its splat's gradient. Geometry (mu, covariance
log-eigenvalues; rotation fixed) moves only under optimize_geometry, by the
same backward pass, with the fusion head's camera embedding held fixed. Patch
centers are drawn from depth-gradient anchors mixed 50/50 (ANCHOR_MIX) with
uniform positions unless the no_anchoring ablation is set.

The patch forward pass runs the renderer's kernel once over the ray x
splat pairs the renderer's `_pairs` enumerates for the patch, as `render`
does per tile; the full-image evaluations (every full_eval_every iterations
and the final per-view report) call `render`, with the fusion head when an
MLP is fitted.
So a fit initialized at the scene that produced its targets measures a loss
of exactly zero and no parameter moves.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .anchors import (AnchorSet, depth_gradient, sample_anchor_indices,
                      select_anchors)
from .errors import NumericFailure
from .fusion import (MlpParams, _sigmoid, embed_camera, fuse_backward_batch,
                     fuse_forward_batch, fusion_input)
from .metrics import psnr, ssim, ssim_with_grad
from .renderer import (RenderConfig, _composite, _origin_terms, _pairs,
                       _ray_geometry, render)
from .scene import Camera, ImageBuffer, ImageKind, Scene

ABLATIONS = ("no_anchoring", "no_disentangle", "no_dual_branch", "no_anisotropy")
BOUNDARY_NUDGE = 1e-7
APPEARANCE_PER_GAUSSIAN = 8  # logit(alpha), logit(l_iso) x3, softplus^-1(l_aniso) x3, atanh(g)
GEOMETRY_PER_GAUSSIAN = 6    # mu x3, covariance log-eigenvalues x3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
ANCHOR_MIX = 0.5             # share of patches centered on an anchor


@dataclass
class FitConfig:
    lr: float = 0.0002
    lr_halve_every: int = 50000
    iters: int = 100
    lambda_mse: float = 1.0
    lambda_ssim: float = 0.2
    optimize_geometry: bool = False
    ablation: frozenset = frozenset()
    seed: int = 0
    rays_per_step: int = 4096
    full_eval_every: int = 100
    target_dtype: str = "float64"

    def __post_init__(self):
        self.ablation = frozenset(self.ablation)
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be > 0 and finite")
        if not (0 <= self.lambda_mse < math.inf and 0 <= self.lambda_ssim < math.inf):
            raise ValueError("loss weights must be >= 0 and finite")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.lr_halve_every < 1:
            raise ValueError("lr_halve_every must be >= 1")
        if self.rays_per_step < 1:
            raise ValueError("rays_per_step must be >= 1")
        bad = self.ablation - set(ABLATIONS)
        if bad:
            raise ValueError(f"unknown ablation flags {sorted(bad)}; "
                             f"known: {list(ABLATIONS)}")
        if self.target_dtype not in ("float64", "float32"):
            raise ValueError("target_dtype must be 'float64' or 'float32'")


@dataclass
class FitReport:
    iterations: int
    seconds: float
    trace: list
    full_evals: list
    per_view: list
    final_loss: float


def _pred_for_loss(arr: np.ndarray, cfg: FitConfig) -> np.ndarray:
    # targets decoded from 32-bit image files are compared in that precision,
    # so a fit started at the scene that produced them measures exactly zero
    if cfg.target_dtype == "float32":
        return arr.astype(np.float32).astype(np.float64)
    return arr


def composite_loss(pred, target, lambda_mse: float = 1.0,
                   lambda_ssim: float = 0.2, want_grad: bool = True):
    """(lambda_mse * MSE + lambda_ssim * (1 - SSIM), analytic pixel gradient).

    The gradient is None when want_grad is False; the loss bits are the same
    either way. The SSIM window shrinks to fit small images, so patch losses
    stay well defined.
    """
    p = pred.data if isinstance(pred, ImageBuffer) else np.asarray(pred, dtype=np.float64)
    t = target.data if isinstance(target, ImageBuffer) else np.asarray(target, dtype=np.float64)
    if p.ndim == 2:
        p = p[:, :, None]
    if t.ndim == 2:
        t = t[:, :, None]
    if p.shape != t.shape:
        raise ValueError(f"image shape mismatch: {p.shape} vs {t.shape}")
    if not (np.isfinite(p).all() and np.isfinite(t).all()):
        raise ValueError("loss inputs must be finite")
    diff = p - t
    loss = lambda_mse * float(np.mean(diff * diff))
    grad = (2.0 * lambda_mse / diff.size) * diff if want_grad else None
    if lambda_ssim != 0.0:
        s, ds = ssim_with_grad(p, t, want_grad)
        loss += lambda_ssim * (1.0 - s)
        if want_grad:
            grad = grad - lambda_ssim * ds
    return loss, (ImageBuffer(grad, ImageKind.RADIANCE) if want_grad else None)


def adam_step(params: np.ndarray, grads: np.ndarray, state, cfg: FitConfig):
    """One Adam update; state is (m, v, t) and lr halves every lr_halve_every."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape:
        raise ValueError("params and grads must have equal length")
    m, v, t = state
    if m is None:
        m = np.zeros_like(params)
        v = np.zeros_like(params)
    t2 = t + 1
    lr_eff = cfg.lr * 0.5 ** ((t2 - 1) // cfg.lr_halve_every)
    m2 = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grads
    v2 = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grads * grads
    mhat = m2 / (1.0 - ADAM_BETA1 ** t2)
    vhat = v2 / (1.0 - ADAM_BETA2 ** t2)
    new = params - lr_eff * mhat / (np.sqrt(vhat) + ADAM_EPSILON)
    return new, (m2, v2, t2)


# ---------------------------------------------------------------------------
# constrained reparameterization

def _logit(p: np.ndarray) -> np.ndarray:
    q = np.clip(p, BOUNDARY_NUDGE, 1.0 - BOUNDARY_NUDGE)
    return np.log(q) - np.log1p(-q)

def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)

def _inv_softplus(y: np.ndarray) -> np.ndarray:
    y = np.maximum(y, BOUNDARY_NUDGE)
    small = y < 20.0
    out = np.where(small, np.log(np.expm1(np.where(small, y, 1.0))),
                   y + np.log1p(-np.exp(-y)))
    return out

def _atanh(g: np.ndarray) -> np.ndarray:
    return np.arctanh(np.clip(g, -1.0 + BOUNDARY_NUDGE, 1.0 - BOUNDARY_NUDGE))

def _tanh_open(x: np.ndarray) -> np.ndarray:
    # tanh saturates to +-1.0 in floating point around |x| ~ 19; pull those
    # back inside the open interval the parameter contract requires
    gv = np.tanh(x)
    lim = 1.0 - 1e-12
    return np.clip(gv, -lim, lim)

def _sigmoid_open(x: np.ndarray) -> np.ndarray:
    # sigmoid is strictly inside (0,1) for finite inputs but rounds to the
    # endpoints past |x| ~ 37 / 745; pull saturated values back inside
    return np.clip(_sigmoid(x), 1e-300, 1.0 - 1e-12)


def _appearance_theta(scene: Scene) -> np.ndarray:
    """Unconstrained appearance parameters, flat [G*8]."""
    cols = [_logit(scene.alpha)[:, None], _logit(scene.l_iso),
            _inv_softplus(scene.l_aniso), _atanh(scene.g)[:, None]]
    return np.concatenate(cols, axis=1).ravel()


def _appearance_of(theta: np.ndarray) -> np.ndarray:
    """[G, 8] constrained appearance: alpha, l_iso x3, l_aniso x3, g."""
    th = theta.reshape(-1, APPEARANCE_PER_GAUSSIAN)
    return np.concatenate([_sigmoid_open(th[:, :1]), _sigmoid(th[:, 1:4]),
                           _softplus(th[:, 4:7]), _tanh_open(th[:, 7:])], axis=1)


def _appearance_chain(theta: np.ndarray) -> np.ndarray:
    """d(constrained)/d(theta) for each slot, flat [G*8]."""
    th = theta.reshape(-1, APPEARANCE_PER_GAUSSIAN)
    a = _sigmoid(th[:, 0])
    li = _sigmoid(th[:, 1:4])
    sp = _sigmoid(th[:, 4:7])          # d softplus / dx = sigmoid(x)
    gv = np.tanh(th[:, 7])
    out = np.empty(th.shape)
    out[:, 0] = a * (1.0 - a)
    out[:, 1:4] = li * (1.0 - li)
    out[:, 4:7] = sp
    out[:, 7] = 1.0 - gv * gv
    return out.ravel()


class _Geometry:
    """mu and covariance log-eigenvalues s, cov = R diag(exp(2 s)) R^T; the
    eigenvector frames R (`rot`) of the starting scene are held fixed."""

    def __init__(self, scene: Scene):
        self.mu = scene.mu
        self.sym_cov = 0.5 * (scene.cov + np.transpose(scene.cov, (0, 2, 1)))
        eigval, eigvec = np.linalg.eigh(self.sym_cov)
        self.rot = eigvec                       # [G,3,3], columns are axes
        self.log_eig = 0.5 * np.log(eigval)     # sigma in log space

    def pack(self) -> np.ndarray:
        return np.concatenate([self.mu, self.log_eig], axis=1).ravel()

    def unpack(self, theta: np.ndarray):
        G = self.mu.shape[0]
        th = theta.reshape(G, GEOMETRY_PER_GAUSSIAN)
        mu = th[:, 0:3]
        lam = np.exp(2.0 * th[:, 3:6])
        cov = np.einsum("gij,gj,gkj->gik", self.rot, lam, self.rot)
        cov = 0.5 * (cov + np.transpose(cov, (0, 2, 1)))
        return mu, cov


# ---------------------------------------------------------------------------
# patch forward/backward through the compositing kernel

def _patch_forward(scene: Scene, cam: Camera, rcfg: RenderConfig,
                   rows: np.ndarray, cols: np.ndarray,
                   mlp: MlpParams | None, e_vec: np.ndarray | None,
                   tape: bool = False):
    """Colors [P,3] for the pixel grid rows x cols, rays in row-major order,
    and with `tape` the work `_patch_backward` reads (else None): the
    kernel's tape, the fusion cache, and the rays' origin and direction
    components.

    Runs the renderer's kernel once over the pairs `_pairs` enumerates for
    the patch, then the fusion head once over the whole patch. The
    enumeration only ever leaves out pairs that are not live, so the colors
    match a render bitwise.
    """
    dx, dy, dz = (a.ravel() for a in cam.pixel_dirs(rows[:, None], cols[None, :]))
    ot = _origin_terms(scene, cam.position)
    ray, sub = _pairs(scene, cam, ot, rows, cols)
    colors, _, _, *out = _composite(
        scene, rcfg, cam.near,
        _ray_geometry(scene, *ot, dx[ray], dy[ray], dz[ray], sub),
        ray, sub, dx, dy, dz, fused_streams=mlp is not None, tape=tape)
    cache = None
    if mlp is not None:
        colors, cache = fuse_forward_batch(
            fusion_input(out[0], out[1], e_vec, np.stack([dx, dy, dz], axis=1)),
            mlp, want_cache=True)
    return colors, ((scene, out[-1], cache, cam.position, (dx, dy, dz))
                    if tape else None)


def _dot3(g: np.ndarray, vals) -> np.ndarray:
    """Per-slot sum over channels of g[:, ch] * vals[ch]."""
    return g[:, 0, None] * vals[0] + g[:, 1, None] * vals[1] + g[:, 2, None] * vals[2]


def _patch_backward(work, rcfg: RenderConfig, gpix: np.ndarray,
                    mlp: MlpParams | None, geometry=None):
    """Gradients of the patch loss w.r.t. constrained appearance, geometry
    and the MLP.

    Each per-slot product is added into its splat's entry (a scatter-add
    over the tape's splat indices, rays in order). A ray's slots are its live
    entries, then zero-weight padding, a splat in at most one slot, so each
    sum runs over the same terms in the same ray order as a dense pass over
    every splat, less that pass's exact zeros for the splats not live on the
    ray (not enumerated, past the cutoff or before the near plane) and plus
    the padding's exact zeros. A zero term leaves a sum's bits unchanged, so
    the gradients depend neither on the enumeration nor on the tape's width.

    `geometry` is None or `_Geometry`'s (rot [G,3,3], log_eig s [G,3]). The
    loss sees geometry only through w = alpha exp(-q/2), as sort order and
    liveness are piecewise constant. q = min over t of r^T Sigma^-1 r, with
    r = mu - o - t d, is reached at the tape's t, so dq/dmu = 2 Sigma^-1 r and
    dq/ds_j = -2 exp(-2 s_j) (R_j . r)^2 (envelope theorem).
    Returns (dalpha [G], dl_iso [G,3], dl_aniso [G,3], dg [G], mlp_grads),
    with dgeo [G,6] (mu, then s) before mlp_grads when `geometry` is given.
    """
    scene, tp, cache, origin, dirs = work
    P, G = gpix.shape[0], scene.alpha.size
    idx = tp.idx.ravel()
    mlp_grads = None
    if mlp is not None:
        mlp_grads, dX = fuse_backward_batch(cache, mlp, gpix)
        gi = dX[:, 0:3]
        ga = dX[:, 3:6]
        dotc = _dot3(gi, tp.iso)
        if rcfg.anisotropy_enabled:
            dotc = dotc + _dot3(ga, tp.aniso)
        tail_bg = np.zeros(P)
    else:
        gi = ga = gpix
        dotc = _dot3(gpix, tp.color)
        bg = scene.background
        tail_bg = ((gpix[:, 0] * bg[0] + gpix[:, 1] * bg[1]
                    + gpix[:, 2] * bg[2]) * tp.final_T)

    contrib = dotc * tp.tw                    # per sorted slot
    pref = np.cumsum(contrib, axis=1)
    tail = pref[:, -1:] - pref + tail_bg[:, None]  # strictly-later terms + background
    dw_s = np.where(tp.tw > 0.0,
                    dotc * tp.Tb - tail / np.maximum(1.0 - tp.w, 1e-300), 0.0)

    def ray_sum(slot_values):
        return np.bincount(idx, slot_values.ravel(), minlength=G)

    dalpha = ray_sum(dw_s * tp.k)
    # color slot grads: d c / d l_iso = 1; d c / d l_aniso = f; d c / d g via f
    dli = np.empty((G, 3))
    dla = np.zeros((G, 3))
    for ch in range(3):
        dli[:, ch] = ray_sum(tp.tw * gi[:, ch, None])
    if rcfg.anisotropy_enabled:
        for ch in range(3):
            twa = tp.tw * ga[:, ch, None]
            dla[:, ch] = ray_sum(twa if tp.f is None else twa * tp.f)
    dg = np.zeros(G)
    if rcfg.anisotropy_enabled and rcfg.disentangle:
        la_dot = _dot3(ga, [scene.l_aniso[tp.idx, ch] for ch in range(3)])
        cosg = tp.cos
        gk = scene.g[tp.idx]
        s = (1.0 + gk * gk) - (2.0 * gk) * cosg
        sq = np.sqrt(s)
        dfdg = (-2.0 * gk) / (s * sq) - 3.0 * (1.0 - gk * gk) * (gk - cosg) / (s * s * sq)
        dg = ray_sum(tp.tw * la_dot * dfdg)
    out = (dalpha, dli, dla, dg)
    if geometry is not None:
        rot, log_eig = geometry
        gq = dw_s * (-0.5 * tp.w)            # dL/dq per slot
        r = [(scene.mu[tp.idx, c] - origin[c]) - tp.ts * dirs[c][:, None]
             for c in range(3)]
        gr = [gq * rc for rc in r]
        sr = [ray_sum(v) for v in gr]
        m = {(a, b): ray_sum(gr[a] * r[b]) for a in range(3) for b in range(a, 3)}
        inv = scene.cov_inv
        dmu = [2.0 * (inv[:, c, 0] * sr[0] + inv[:, c, 1] * sr[1]
                      + inv[:, c, 2] * sr[2]) for c in range(3)]
        dlog = [-2.0 * np.exp(-2.0 * log_eig[:, j])
                * sum(rot[:, a, j] * rot[:, b, j] * m[min(a, b), max(a, b)]
                      for a in range(3) for b in range(3)) for j in range(3)]
        out += (np.stack(dmu + dlog, axis=1),)
    return out + (mlp_grads,)


def _patch_origin(rng: np.random.Generator, H: int, W: int, ph: int, pw: int,
                  anchors: AnchorSet | None, mix: float):
    """Top-left corner of the next training patch."""
    if anchors is not None and anchors.anchors and rng.random() < mix:
        a = anchors.anchors[sample_anchor_indices(anchors, 1, rng)[0]]
        crow, ccol = a.row, a.col
    else:
        crow = int(rng.integers(0, H))
        ccol = int(rng.integers(0, W))
    r0 = min(max(crow - ph // 2, 0), H - ph)
    c0 = min(max(ccol - pw // 2, 0), W - pw)
    return r0, c0


def _view_losses(scene, cams, targets_arr, rcfg, cfg, mlp):
    """(composite loss, compared image) of each view's full render."""
    out = []
    for cam, tgt in zip(cams, targets_arr):
        img, _, _ = render(scene, cam, rcfg, workers=1, mlp=mlp)
        pred = _pred_for_loss(img.data, cfg)
        loss, _ = composite_loss(pred, tgt, cfg.lambda_mse, cfg.lambda_ssim,
                                 want_grad=False)
        out.append((loss, pred))
    return out


def fit_scene(scene: Scene, targets, cfg: FitConfig,
              mlp: MlpParams | None = None):
    """Fit appearance (and optionally geometry / MLP) to target images.

    targets: list of (Camera, ImageBuffer or HxWx3 array). Returns
    (fitted scene, fitted MlpParams or None, FitReport). Raises NumericFailure
    (with .report carrying progress so far) if the loss turns non-finite.
    """
    if not targets:
        raise ValueError("need at least one target view")
    rcfg = RenderConfig(disentangle="no_disentangle" not in cfg.ablation,
                        anisotropy_enabled="no_anisotropy" not in cfg.ablation)
    use_mlp = mlp is not None and "no_dual_branch" not in cfg.ablation
    live_mlp = mlp if use_mlp else None

    cams: list[Camera] = []
    targets_arr: list[np.ndarray] = []
    for cam, img in targets:
        arr = img.data if isinstance(img, ImageBuffer) else np.asarray(img, dtype=np.float64)
        if arr.shape != (cam.height, cam.width, 3):
            raise ValueError(
                f"target shape {arr.shape} does not match camera "
                f"{cam.height}x{cam.width}x3")
        cams.append(cam)
        targets_arr.append(arr)

    theta_app = _appearance_theta(scene)
    cur_app = np.concatenate([scene.alpha[:, None], scene.l_iso, scene.l_aniso,
                              scene.g[:, None]], axis=1)
    geo = _Geometry(scene) if cfg.optimize_geometry else None
    theta_geo = geo.pack() if geo is not None else np.zeros(0)
    cur_mu = scene.mu
    cur_cov = geo.sym_cov if geo is not None else scene.cov
    theta_mlp = live_mlp.to_flat() if live_mlp is not None else np.zeros(0)
    n_app, n_geo = theta_app.size, theta_geo.size
    theta = np.concatenate([theta_app, theta_geo, theta_mlp])

    anchor_sets: list[AnchorSet | None]
    if "no_anchoring" in cfg.ablation:
        anchor_sets = [None] * len(cams)
    else:
        anchor_sets = []
        for cam in cams:
            _, depth, _ = render(scene, cam, rcfg, workers=1)
            anchor_sets.append(select_anchors(depth_gradient(depth)))

    side = int(math.isqrt(cfg.rays_per_step))
    rng = np.random.default_rng(cfg.seed)
    state = (None, None, 0)
    trace: list[float] = []
    full_evals: list = []
    cur_scene = scene
    t_start = time.perf_counter()

    def make_report(final_loss=float("nan"), per_view=None):
        return FitReport(iterations=len(trace),
                         seconds=time.perf_counter() - t_start,
                         trace=list(trace), full_evals=list(full_evals),
                         per_view=per_view or [], final_loss=final_loss)

    for it in range(1, cfg.iters + 1):
        view = (it - 1) % len(cams)
        cam = cams[view]
        H, W = cam.height, cam.width
        ph, pw = min(side, H), min(side, W)
        r0, c0 = _patch_origin(rng, H, W, ph, pw, anchor_sets[view],
                               ANCHOR_MIX)
        rows = np.arange(r0, r0 + ph, dtype=np.float64)
        cols = np.arange(c0, c0 + pw, dtype=np.float64)
        # the embedding normalizes by the current scene's bounds, which move
        # with the geometry
        e_vec = (None if live_mlp is None else
                 embed_camera(cam, cur_scene.center, cur_scene.radius,
                              live_mlp.d))
        colors, work = _patch_forward(cur_scene, cam, rcfg, rows, cols,
                                      live_mlp, e_vec, tape=True)
        pred = _pred_for_loss(colors.reshape(ph, pw, 3), cfg)
        tgt = targets_arr[view][r0:r0 + ph, c0:c0 + pw]
        loss, gimg = composite_loss(pred, tgt, cfg.lambda_mse, cfg.lambda_ssim)
        if not math.isfinite(loss):
            err = NumericFailure(f"non-finite loss at iteration {it}")
            err.report = make_report()
            raise err
        trace.append(loss)
        gpix = gimg.data.reshape(ph * pw, 3)

        geometry = None if geo is None else (
            geo.rot, theta[n_app:n_app + n_geo].reshape(-1, GEOMETRY_PER_GAUSSIAN)[:, 3:])
        dalpha, dli, dla, dg, *dgeo, mlp_g = _patch_backward(
            work, rcfg, gpix, live_mlp, geometry)
        gapp = np.concatenate([dalpha[:, None], dli, dla, dg[:, None]],
                              axis=1).ravel()
        gapp = gapp * _appearance_chain(theta[:n_app])
        parts = [gapp] + [d.ravel() for d in dgeo]
        if live_mlp is not None:
            parts.append(mlp_g.to_flat())
        grad_flat = np.concatenate(parts) if len(parts) > 1 else parts[0]
        theta_new, state = adam_step(theta, grad_flat, state, cfg)
        moved = theta_new[:n_app] != theta[:n_app]
        cur_app = np.where(moved.reshape(cur_app.shape),
                           _appearance_of(theta_new[:n_app]), cur_app)
        if geo is not None:
            gmoved = (theta_new[n_app:n_app + n_geo]
                      != theta[n_app:n_app + n_geo]).reshape(-1, GEOMETRY_PER_GAUSSIAN)
            nmu, ncov = geo.unpack(theta_new[n_app:n_app + n_geo])
            cur_mu = np.where(gmoved[:, 0:3], nmu, cur_mu)
            cur_cov = np.where(gmoved[:, 3:6].any(axis=1)[:, None, None],
                               ncov, cur_cov)
        if live_mlp is not None:
            live_mlp = live_mlp.with_flat(theta_new[n_app + n_geo:])
        theta = theta_new
        cur_scene = Scene(mu=cur_mu, cov=cur_cov, alpha=cur_app[:, 0],
                          l_iso=cur_app[:, 1:4], l_aniso=cur_app[:, 4:7],
                          normal=scene.normal, g=cur_app[:, 7],
                          background=scene.background)

        if cfg.full_eval_every and (it % cfg.full_eval_every == 0):
            losses = _view_losses(cur_scene, cams, targets_arr, rcfg, cfg,
                                  live_mlp)
            full_evals.append([it, sum(loss for loss, _ in losses) / len(cams)])

    views = _view_losses(cur_scene, cams, targets_arr, rcfg, cfg, live_mlp)
    per_view = [{"view": i, "psnr": psnr(pred, tgt), "ssim": ssim(pred, tgt)}
                for i, ((_, pred), tgt) in enumerate(zip(views, targets_arr))]
    report = make_report(final_loss=float(np.mean([loss for loss, _ in views])),
                         per_view=per_view)
    return cur_scene, live_mlp, report
