"""Desk-scale fitting of splat appearance (and optionally geometry) with Adam.

Each iteration renders one square pixel patch (rays_per_step rays) of a
round-robin target view, computes the composite loss (MSE + SSIM with an
adaptive window), and backpropagates analytically through the compositing
kernel to the appearance parameters: alpha via logit, l_iso via logit,
l_aniso via inverse softplus, g via atanh, so constraints hold by
construction. Geometry (mu, covariance log-eigenvalues; rotation fixed) moves
only under optimize_geometry, by central finite differences. Patch centers
are drawn from depth-gradient anchors mixed 50/50 with uniform positions
unless the no_anchoring ablation is set.

The patch forward pass runs the same arithmetic as the renderer's kernel, so
a fit initialized at the scene that produced its targets measures a loss of
exactly zero and no parameter moves.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .anchors import (DEFAULT_BETA, DEFAULT_K, DEFAULT_SUPPRESSION_RADIUS,
                      AnchorSet, depth_gradient, select_anchors)
from .errors import NumericFailure
from .fusion import (MlpParams, _sigmoid, embed_camera, fuse_backward_batch,
                     fuse_forward_batch)
from .metrics import SsimConfig, psnr, ssim, ssim_with_grad
from .renderer import (RenderConfig, _composite, _origin_terms, _ray_geometry,
                       render)
from .scene import Camera, ImageBuffer, ImageKind, Scene

ABLATIONS = ("no_anchoring", "no_disentangle", "no_dual_branch", "no_anisotropy")
BOUNDARY_NUDGE = 1e-7
APPEARANCE_PER_GAUSSIAN = 8  # logit(alpha), logit(l_iso) x3, softplus^-1(l_aniso) x3, atanh(g)
GEOMETRY_PER_GAUSSIAN = 6    # mu x3, covariance log-eigenvalues x3


@dataclass
class FitConfig:
    lr: float = 0.0002
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon_adam: float = 1e-8
    lr_halve_every: int = 50000
    iters: int = 100
    lambda_mse: float = 1.0
    lambda_ssim: float = 0.2
    optimize_geometry: bool = False
    ablation: frozenset = frozenset()
    seed: int = 0
    rays_per_step: int = 4096
    full_eval_every: int = 100
    anchor_k: int = DEFAULT_K
    anchor_suppression: float = DEFAULT_SUPPRESSION_RADIUS
    anchor_beta: float = DEFAULT_BETA
    anchor_mix: float = 0.5
    geometry_fd_step: float = 1e-5
    target_dtype: str = "float64"

    def __post_init__(self):
        self.ablation = frozenset(self.ablation)
        if not self.lr > 0:
            raise ValueError("lr must be > 0")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("beta1 and beta2 must be in (0,1)")
        if self.lambda_mse < 0 or self.lambda_ssim < 0:
            raise ValueError("loss weights must be >= 0")
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
        if not 0.0 <= self.anchor_mix <= 1.0:
            raise ValueError("anchor_mix must be in [0,1]")
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

    def to_dict(self) -> dict:
        return {"iterations": self.iterations, "seconds": self.seconds,
                "trace": self.trace, "full_evals": self.full_evals,
                "per_view": self.per_view, "final_loss": self.final_loss}


def _pred_for_loss(arr: np.ndarray, cfg: FitConfig) -> np.ndarray:
    # targets decoded from 32-bit image files are compared in that precision,
    # so a fit started at the scene that produced them measures exactly zero
    if cfg.target_dtype == "float32":
        return arr.astype(np.float32).astype(np.float64)
    return arr


def composite_loss(pred, target, lambda_mse: float = 1.0,
                   lambda_ssim: float = 0.2):
    """lambda_mse * MSE + lambda_ssim * (1 - SSIM); analytic pixel gradient.

    The SSIM window shrinks to fit small images (largest odd size <= min(11,
    H, W), sigma fixed at 1.5) so patch losses stay well defined.
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
    grad = (2.0 * lambda_mse / diff.size) * diff
    if lambda_ssim != 0.0:
        win = min(11, p.shape[0], p.shape[1])
        if win % 2 == 0:
            win -= 1
        s, ds = ssim_with_grad(p, t, SsimConfig(window_size=win))
        loss += lambda_ssim * (1.0 - s)
        grad = grad - lambda_ssim * ds
    return loss, ImageBuffer(grad, ImageKind.RADIANCE)


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
    m2 = cfg.beta1 * m + (1.0 - cfg.beta1) * grads
    v2 = cfg.beta2 * v + (1.0 - cfg.beta2) * grads * grads
    mhat = m2 / (1.0 - cfg.beta1 ** t2)
    vhat = v2 / (1.0 - cfg.beta2 ** t2)
    new = params - lr_eff * mhat / (np.sqrt(vhat) + cfg.epsilon_adam)
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


def _appearance_of(theta: np.ndarray):
    """(alpha, l_iso, l_aniso, g) in constrained space."""
    th = theta.reshape(-1, APPEARANCE_PER_GAUSSIAN)
    return (_sigmoid_open(th[:, 0]), _sigmoid(th[:, 1:4]),
            _softplus(th[:, 4:7]), _tanh_open(th[:, 7]))


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
    """mu and covariance log-eigenvalues; eigenvector frames held fixed."""

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

class _PatchWork:
    """Forward pass state for one pixel patch, kept for the backward pass."""
    __slots__ = ("scene", "la", "order", "w_s", "tw", "Tb", "final_T", "k_grid",
                 "live", "f", "cosg", "dx", "dy", "dz", "c_sorted",
                 "iso_sorted", "aniso_sorted", "color", "iso", "aniso",
                 "mlp_cache", "P", "G")


def _patch_forward(scene: Scene, cam: Camera, rcfg: RenderConfig,
                   rows: np.ndarray, cols: np.ndarray,
                   mlp: MlpParams | None, e_vec: np.ndarray | None):
    """Color for the pixel grid rows x cols plus everything backward needs.

    Identical arithmetic to the renderer's kernel over the full gaussian set
    (culling only ever removes zero-weight entries, so results match bitwise).
    """
    dxb, dyb, dzb = cam.pixel_dirs(rows[:, None], cols[None, :])
    dx, dy, dz = dxb.ravel(), dyb.ravel(), dzb.ravel()
    P = dx.size
    G = scene.alpha.size
    st = _PatchWork()
    st.scene, st.P, st.G = scene, P, G
    st.dx, st.dy, st.dz = dx, dy, dz
    ot = _origin_terms(scene, cam.position)
    v0, v1, v2, cg, _ = ot
    sub = np.arange(G)
    ts, q = _ray_geometry(scene, v0, v1, v2, cg, dx, dy, dz, sub)
    cutoff2 = rcfg.cutoff_sigma * rcfg.cutoff_sigma
    live = (q <= cutoff2) & (ts >= cam.near)
    k_grid = np.exp(-0.5 * q)
    w = np.where(live, scene.alpha * k_grid, 0.0)
    st.live, st.k_grid = live, k_grid
    # [3, G] copies: each channel row is contiguous for the dense [P, G] math
    li, la, nr = (np.ascontiguousarray(a.T)
                  for a in (scene.l_iso, scene.l_aniso, scene.normal))
    g = scene.g
    st.la = la

    if rcfg.anisotropy_enabled:
        if rcfg.disentangle:
            cosg = dx[:, None] * nr[0] + dy[:, None] * nr[1] + dz[:, None] * nr[2]
            s = (1.0 + g * g) - (2.0 * g) * cosg
            f = (1.0 - g * g) / (s * np.sqrt(s))
            st.cosg = cosg
        else:
            f = np.ones((P, G))
            st.cosg = None
        a0 = f * la[0]
        a1 = f * la[1]
        a2 = f * la[2]
        st.f = f
        c0 = li[0] + a0
        c1 = li[1] + a1
        c2 = li[2] + a2
    else:
        st.f = None
        st.cosg = None
        a0 = a1 = a2 = None
        c0, c1, c2 = li

    order = np.argsort(ts, axis=1, kind="stable")
    w_s = np.take_along_axis(w, order, 1)
    C = np.cumprod(1.0 - w_s, axis=1)
    eps = rcfg.termination_epsilon
    terminated = C < eps
    anyterm = terminated.any(axis=1)
    first = np.argmax(terminated, axis=1)
    final_T = np.where(anyterm, C[np.arange(P), first], C[:, -1])
    Tb = np.empty((P, G))
    Tb[:, 0] = 1.0
    Tb[:, 1:] = C[:, :G - 1]
    tw = np.where(Tb >= eps, Tb * w_s, 0.0)
    st.order, st.w_s, st.Tb, st.tw, st.final_T = order, w_s, Tb, tw, final_T

    def srt(values):
        if values.ndim == 1:
            values = np.broadcast_to(values, (P, G))
        return np.take_along_axis(values, order, 1)

    cs = (srt(c0), srt(c1), srt(c2))
    st.c_sorted = cs
    bg = scene.background
    color = np.empty((P, 3))
    for ch in range(3):
        color[:, ch] = np.cumsum(tw * cs[ch], axis=1)[:, -1] + final_T * bg[ch]
    st.color = color
    st.iso_sorted = st.aniso_sorted = None
    st.iso = st.aniso = None
    st.mlp_cache = None
    if mlp is not None:
        iso_s = (srt(li[0]), srt(li[1]), srt(li[2]))
        if a0 is not None:
            an_s = (srt(a0), srt(a1), srt(a2))
        else:
            an_s = None
        st.iso_sorted, st.aniso_sorted = iso_s, an_s
        iso = np.empty((P, 3))
        aniso = np.zeros((P, 3))
        for ch in range(3):
            iso[:, ch] = np.cumsum(tw * iso_s[ch], axis=1)[:, -1]
            if an_s is not None:
                aniso[:, ch] = np.cumsum(tw * an_s[ch], axis=1)[:, -1]
        st.iso, st.aniso = iso, aniso
        X = np.concatenate([iso, aniso,
                            np.broadcast_to(e_vec, (P, e_vec.size)),
                            np.stack([dx, dy, dz], axis=1)], axis=1)
        out, cache = fuse_forward_batch(X, mlp, want_cache=True)
        st.mlp_cache = cache
        return out, st
    return color, st


def _patch_backward(st: _PatchWork, rcfg: RenderConfig, gpix: np.ndarray,
                    mlp: MlpParams | None):
    """Gradients of the patch loss w.r.t. constrained appearance (and MLP).

    Returns (dalpha [G], dl_iso [G,3], dl_aniso [G,3], dg [G], mlp_grads).
    """
    scene, P, G = st.scene, st.P, st.G
    order, tw, Tb, w_s = st.order, st.tw, st.Tb, st.w_s
    mlp_grads = None
    if mlp is not None:
        mlp_grads, dX = fuse_backward_batch(st.mlp_cache, mlp, gpix)
        gi = dX[:, 0:3]
        ga = dX[:, 3:6]
        iso_s, an_s = st.iso_sorted, st.aniso_sorted
        dotc = (gi[:, 0, None] * iso_s[0] + gi[:, 1, None] * iso_s[1]
                + gi[:, 2, None] * iso_s[2])
        if an_s is not None:
            dotc = dotc + (ga[:, 0, None] * an_s[0] + ga[:, 1, None] * an_s[1]
                           + ga[:, 2, None] * an_s[2])
        tail_bg = np.zeros(P)
    else:
        cs = st.c_sorted
        gi = gpix
        ga = gpix
        dotc = (gpix[:, 0, None] * cs[0] + gpix[:, 1, None] * cs[1]
                + gpix[:, 2, None] * cs[2])
        bg = scene.background
        tail_bg = ((gpix[:, 0] * bg[0] + gpix[:, 1] * bg[1]
                    + gpix[:, 2] * bg[2]) * st.final_T)

    contrib = dotc * tw                       # per sorted slot
    pref = np.cumsum(contrib, axis=1)
    total = pref[:, -1:]
    tail = total - pref + tail_bg[:, None]    # strictly-later terms + background
    included = tw > 0.0
    dw_s = np.where(included,
                    dotc * Tb - tail / np.maximum(1.0 - w_s, 1e-300), 0.0)

    # scatter sorted-slot grads back to the [P, G] gaussian grid
    dw = np.empty((P, G))
    np.put_along_axis(dw, order, dw_s, 1)
    twg = np.empty((P, G))
    np.put_along_axis(twg, order, tw, 1)

    dalpha = (dw * st.k_grid * st.live).sum(axis=0)
    # color slot grads: d c / d l_iso = 1; d c / d l_aniso = f; d c / d g via f
    dli = np.empty((G, 3))
    dla = np.zeros((G, 3))
    for ch in range(3):
        dli[:, ch] = (twg * gi[:, ch, None]).sum(axis=0)
    if rcfg.anisotropy_enabled:
        fgrid = st.f
        for ch in range(3):
            dla[:, ch] = (twg * ga[:, ch, None] * fgrid).sum(axis=0)
    dg = np.zeros(G)
    if rcfg.anisotropy_enabled and rcfg.disentangle:
        la = st.la
        la_dot = (ga[:, 0, None] * la[0] + ga[:, 1, None] * la[1]
                  + ga[:, 2, None] * la[2])
        cosg = st.cosg
        gk = scene.g
        s = (1.0 + gk * gk) - (2.0 * gk) * cosg
        sq = np.sqrt(s)
        dfdg = (-2.0 * gk) / (s * sq) - 3.0 * (1.0 - gk * gk) * (gk - cosg) / (s * s * sq)
        dg = (twg * la_dot * dfdg).sum(axis=0)
    return dalpha, dli, dla, dg, mlp_grads


def render_fused(scene: Scene, cam: Camera, rcfg: RenderConfig,
                 mlp: MlpParams, chunk: int = 4096) -> ImageBuffer:
    """Full-image fused-mode render: the MLP output replaces physical color.

    Pixels are processed in fixed row-major chunks so results do not depend
    on image tiling.
    """
    e_vec = embed_camera(cam, scene.center, scene.radius, mlp.d).vec
    H, W = cam.height, cam.width
    out = np.empty((H * W, 3))
    idx = np.arange(H * W)
    ot = _origin_terms(scene, cam.position)
    for lo in range(0, H * W, chunk):
        hi = min(lo + chunk, H * W)
        rr, cc = np.divmod(idx[lo:hi].astype(np.float64), float(W))
        dx, dy, dz = cam.pixel_dirs(rr, cc)
        _, _, _, iso, aniso = _composite(scene, rcfg, cam.near, ot, dx, dy, dz,
                                         fused_streams=True)
        X = np.concatenate([iso, aniso,
                            np.broadcast_to(e_vec, (hi - lo, e_vec.size)),
                            np.stack([dx, dy, dz], axis=1)], axis=1)
        out[lo:hi] = fuse_forward_batch(X, mlp)
    return ImageBuffer(out.reshape(H, W, 3), ImageKind.RADIANCE)


def _patch_origin(rng: np.random.Generator, H: int, W: int, ph: int, pw: int,
                  anchors: AnchorSet | None, mix: float):
    """Top-left corner of the next training patch."""
    if anchors is not None and anchors.anchors and rng.random() < mix:
        cum = np.cumsum(anchors.probs)
        cum[-1] = 1.0
        j = min(int(np.searchsorted(cum, rng.random(), side="right")),
                len(anchors.anchors) - 1)
        crow, ccol = anchors.anchors[j].row, anchors.anchors[j].col
    else:
        crow = int(rng.integers(0, H))
        ccol = int(rng.integers(0, W))
    r0 = min(max(crow - ph // 2, 0), H - ph)
    c0 = min(max(ccol - pw // 2, 0), W - pw)
    return r0, c0


def _full_eval(scene, cams, targets_arr, rcfg, cfg, mlp):
    """Mean composite loss over all target views (full images)."""
    total = 0.0
    for cam, tgt in zip(cams, targets_arr):
        if mlp is not None:
            img = render_fused(scene, cam, rcfg, mlp)
        else:
            img, _, _ = render(scene, cam, rcfg, workers=1)
        loss, _ = composite_loss(_pred_for_loss(img.data, cfg), tgt,
                                 cfg.lambda_mse, cfg.lambda_ssim)
        total += loss
    return total / len(cams)


def fit_scene(scene: Scene, targets, cfg: FitConfig,
              render_cfg: RenderConfig | None = None,
              mlp: MlpParams | None = None):
    """Fit appearance (and optionally geometry / MLP) to target images.

    targets: list of (Camera, ImageBuffer or HxWx3 array). Returns
    (fitted scene, fitted MlpParams or None, FitReport). Raises NumericFailure
    (with .report carrying progress so far) if the loss turns non-finite.
    """
    if not targets:
        raise ValueError("need at least one target view")
    rcfg = render_cfg if render_cfg is not None else RenderConfig()
    if "no_disentangle" in cfg.ablation and rcfg.disentangle:
        rcfg = replace(rcfg, disentangle=False)
    if "no_anisotropy" in cfg.ablation and rcfg.anisotropy_enabled:
        rcfg = replace(rcfg, anisotropy_enabled=False)
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
    cur_alpha, cur_liso, cur_laniso, cur_g = (scene.alpha, scene.l_iso,
                                              scene.l_aniso, scene.g)
    geo = _Geometry(scene) if cfg.optimize_geometry else None
    theta_geo = geo.pack() if geo is not None else np.zeros(0)
    cur_mu = scene.mu
    cur_cov = geo.sym_cov if geo is not None else scene.cov
    theta_mlp = live_mlp.to_flat() if live_mlp is not None else np.zeros(0)
    n_app, n_geo = theta_app.size, theta_geo.size
    theta = np.concatenate([theta_app, theta_geo, theta_mlp])

    e_vecs = None
    if live_mlp is not None:
        e_vecs = [embed_camera(c, scene.center, scene.radius, live_mlp.d).vec
                  for c in cams]

    anchor_sets: list[AnchorSet | None]
    if "no_anchoring" in cfg.ablation:
        anchor_sets = [None] * len(cams)
    else:
        anchor_sets = []
        for cam in cams:
            _, depth, _ = render(scene, cam, rcfg, workers=1)
            grad = depth_gradient(depth)
            anchor_sets.append(select_anchors(grad, cfg.anchor_k,
                                              cfg.anchor_suppression,
                                              cfg.anchor_beta))

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
                               cfg.anchor_mix)
        rows = np.arange(r0, r0 + ph, dtype=np.float64)
        cols = np.arange(c0, c0 + pw, dtype=np.float64)
        if e_vecs is None:
            e_vec = None
        elif geo is not None:
            # moving geometry shifts the scene bounds the embedding normalizes by
            e_vec = embed_camera(cam, cur_scene.center, cur_scene.radius,
                                 live_mlp.d).vec
        else:
            e_vec = e_vecs[view]
        colors, work = _patch_forward(cur_scene, cam, rcfg, rows, cols,
                                      live_mlp, e_vec)
        pred = _pred_for_loss(colors.reshape(ph, pw, 3), cfg)
        tgt = targets_arr[view][r0:r0 + ph, c0:c0 + pw]
        loss, gimg = composite_loss(pred, tgt, cfg.lambda_mse, cfg.lambda_ssim)
        if not math.isfinite(loss):
            err = NumericFailure(f"non-finite loss at iteration {it}")
            err.report = make_report()
            raise err
        trace.append(loss)
        gpix = gimg.data.reshape(ph * pw, 3)

        dalpha, dli, dla, dg, mlp_g = _patch_backward(work, rcfg, gpix, live_mlp)
        gapp = np.concatenate([dalpha[:, None], dli, dla, dg[:, None]],
                              axis=1).ravel()
        gapp = gapp * _appearance_chain(theta[:n_app])
        parts = [gapp]
        if geo is not None:
            parts.append(_geometry_fd(theta, n_app, n_geo, geo, scene,
                                      cam, rcfg, rows, cols, tgt, cfg,
                                      live_mlp, e_vec))
        if live_mlp is not None:
            parts.append(mlp_g.to_flat())
        grad_flat = np.concatenate(parts) if len(parts) > 1 else parts[0]
        theta_new, state = adam_step(theta, grad_flat, state, cfg)
        moved = theta_new[:n_app] != theta[:n_app]
        na, nl, ns, ng = _appearance_of(theta_new[:n_app])
        movedm = moved.reshape(-1, APPEARANCE_PER_GAUSSIAN)
        cur_alpha = np.where(movedm[:, 0], na, cur_alpha)
        cur_liso = np.where(movedm[:, 1:4], nl, cur_liso)
        cur_laniso = np.where(movedm[:, 4:7], ns, cur_laniso)
        cur_g = np.where(movedm[:, 7], ng, cur_g)
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
        cur_scene = Scene(mu=cur_mu, cov=cur_cov, alpha=cur_alpha,
                          l_iso=cur_liso, l_aniso=cur_laniso,
                          normal=scene.normal, g=cur_g,
                          background=scene.background)

        if cfg.full_eval_every and (it % cfg.full_eval_every == 0):
            full_evals.append([it, _full_eval(cur_scene, cams, targets_arr,
                                              rcfg, cfg, live_mlp)])

    per_view = []
    final_losses = []
    for i, (cam, tgt) in enumerate(zip(cams, targets_arr)):
        if live_mlp is not None:
            img = render_fused(cur_scene, cam, rcfg, live_mlp)
        else:
            img, _, _ = render(cur_scene, cam, rcfg, workers=1)
        cmp_img = _pred_for_loss(img.data, cfg)
        loss, _ = composite_loss(cmp_img, tgt, cfg.lambda_mse, cfg.lambda_ssim)
        final_losses.append(loss)
        win = min(11, cam.height, cam.width)
        if win % 2 == 0:
            win -= 1
        per_view.append({"view": i, "psnr": psnr(cmp_img, tgt),
                         "ssim": ssim(cmp_img, tgt, SsimConfig(window_size=win))})
    report = make_report(final_loss=float(np.mean(final_losses)),
                         per_view=per_view)
    return cur_scene, live_mlp, report


def _geometry_fd(theta, n_app, n_geo, geo, scene, cam, rcfg,
                 rows, cols, tgt, cfg, mlp, e_vec):
    """Central-difference patch-loss gradients for the geometry block."""
    base = theta.copy()
    h = cfg.geometry_fd_step
    out = np.zeros(n_geo)
    a, li, la, g = _appearance_of(base[:n_app])

    def loss_at(yg):
        mu, cov = geo.unpack(yg)
        sc = Scene(mu=mu, cov=cov, alpha=a, l_iso=li, l_aniso=la,
                   normal=scene.normal, g=g, background=scene.background)
        colors, _ = _patch_forward(sc, cam, rcfg, rows, cols, mlp, e_vec)
        pred = _pred_for_loss(colors.reshape(rows.size, cols.size, 3), cfg)
        loss, _ = composite_loss(pred, tgt, cfg.lambda_mse, cfg.lambda_ssim)
        return loss

    for i in range(n_geo):
        yp = base[n_app:n_app + n_geo].copy()
        ym = yp.copy()
        yp[i] += h
        ym[i] -= h
        out[i] = (loss_at(yp) - loss_at(ym)) / (2.0 * h)
    return out
