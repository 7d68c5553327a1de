"""Desk-scale fitting of splat appearance (and optionally geometry) with Adam.

The fitted parameters are a list of blocks (`_Block`), one Adam group per
attribute as in 3D Gaussian Splatting: alpha, l_iso, l_aniso and g; under
optimize_geometry mu and cov (rotation fixed, see `_geometry_blocks`); and
the fusion MLP's weights, the head. Each iteration renders one square pixel
patch (rays_per_step rays) of a round-robin target view, computes the
composite loss (MSE + SSIM with an adaptive window), backpropagates it
through the compositing kernel with the head's camera embedding held fixed,
steps each block and builds the next `Scene` from their fields. The work
up to the step is `_patch_step`, the one iteration body: the gradient check
(`run_gradcheck`, behind `splat360 gradcheck`) runs it too. Each block
reads its own gradient from `_patch_backward`'s dict, `out[name]` (cov reads
`out["cov_inv"]`), and applies its own chain rule, so only this module knows
how an attribute is parametrised. Patch centers are drawn from
depth-gradient anchors mixed 50/50 (ANCHOR_MIX) with uniform positions
unless the no_anchoring ablation is set.

An appearance-only fit never moves a splat, so where a target view's
patches over the fit hold at least as many pixels as the view, the pair
sets of all its pixel blocks are built before the first iteration and kept
until the fit returns: every patch and full view of it (the anchor depth, each
full_eval_every evaluation and the final report) comes from them. A
geometry fit, or a view visited less, builds each patch's own pairs, and
each full view's block by block, as `render` does. Either way patches and
full views match `render` bit for bit, so a fit initialized at the scene
that produced its targets measures a loss of exactly zero and no parameter moves.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .anchors import (AnchorSet, depth_gradient, sample_anchor_indices,
                      select_anchors)
from .errors import CheckFailure, NumericFailure
from .fusion import (MlpParams, _sigmoid, embed_camera, fuse_backward_batch,
                     fuse_forward_batch, init_mlp)
from .metrics import psnr, ssim, ssim_with_grad
from .renderer import (RenderConfig, _pair_sets, _patch_backward,
                       _patch_forward, _ray_geometry, _render_sets, _tape_key,
                       _view_grids)
from .scene import (Camera, ImageBuffer, Scene, _integer, image_array,
                    make_orbit_cameras, make_random_scene)

ABLATIONS = ("no_anchoring", "no_disentangle", "no_dual_branch", "no_anisotropy")
BOUNDARY_NUDGE = 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
ANCHOR_MIX = 0.5             # share of patches centered on an anchor
FD_STEP = 1e-5  # central-difference step of every gradient check
HEAD_PROBES = 12  # fusion-head weights with a gradient the patch check probes
MU_STEP = 0.5  # the centres' Adam step per unit of lr, in scene radii


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

    def __post_init__(self):
        self.ablation = frozenset(self.ablation)
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be > 0 and finite")
        if not (0 <= self.lambda_mse < math.inf and 0 <= self.lambda_ssim < math.inf):
            raise ValueError("loss weights must be >= 0 and finite")
        for name in ("iters", "lr_halve_every", "rays_per_step", "seed",
                     "full_eval_every"):
            # iters=True would run one iteration
            setattr(self, name, _integer(getattr(self, name), name))
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.lr_halve_every < 1:
            raise ValueError("lr_halve_every must be >= 1")
        if self.rays_per_step < 1:
            raise ValueError("rays_per_step must be >= 1")
        if self.seed < 0 or self.full_eval_every < 0:
            raise ValueError("seed and full_eval_every must be >= 0")
        bad = self.ablation - set(ABLATIONS)
        if bad:
            raise ValueError(f"unknown ablation flags {sorted(bad)}; "
                             f"known: {list(ABLATIONS)}")


@dataclass
class FitReport:
    iterations: int
    seconds: float
    trace: list
    full_evals: list
    per_view: list
    final_loss: float


def _in_float32(target: np.ndarray) -> bool:
    """Whether every value of `target` equals its float32 rounding; a value
    beyond float32's range rounds to inf and so does not."""
    with np.errstate(over="ignore"):
        return bool((target.astype(np.float32) == target).all())


def _pred_for_loss(arr: np.ndarray, in_float32: bool) -> np.ndarray:
    return arr.astype(np.float32).astype(np.float64) if in_float32 else arr


def composite_loss(pred, target, lambda_mse: float = 1.0,
                   lambda_ssim: float = 0.2, want_grad: bool = True):
    """(lambda_mse * MSE + lambda_ssim * (1 - SSIM), analytic pixel gradient).

    The gradient is None when want_grad is False; the loss bits are the same
    either way. The SSIM window shrinks to fit small images, so patch losses
    stay well defined.
    """
    p = image_array(pred)
    t = image_array(target)
    if p.shape != t.shape:
        raise ValueError(f"image shape mismatch: {p.shape} vs {t.shape}")
    diff = p - t
    loss = lambda_mse * float(np.mean(diff * diff))
    grad = (2.0 * lambda_mse / diff.size) * diff if want_grad else None
    if lambda_ssim != 0.0:
        s, ds = ssim_with_grad(p, t, want_grad)
        loss += lambda_ssim * (1.0 - s)
        if want_grad:
            grad = grad - lambda_ssim * ds
    return loss, (ImageBuffer(grad) if want_grad else None)


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


def _dsigmoid(x: np.ndarray) -> np.ndarray:
    s = _sigmoid(x)
    return s * (1.0 - s)

def _each(f):
    """`unpack` of a field whose every value is f of its own parameter."""
    return lambda theta, moved, field: np.where(moved, f(theta), field)


@dataclass(frozen=True)
class _Block:
    """One fitted attribute, stepped by Adam with its own (m, v, t) `state`.

    `name` is the `Scene` field it sets, or "head" for the fusion MLP. Its
    unconstrained values `theta` map onto `field` by `unpack(theta, moved,
    field)`, where a value none of whose parameters `moved` keeps its bits;
    `grad(out, theta)` is d loss / d theta from `_patch_backward`'s `out`,
    of which it reads `out[name]` (cov reads `out["cov_inv"]`). Adam steps
    theta at `scale` times the fit's lr, as 3D Gaussian Splatting does.
    """
    name: str
    theta: np.ndarray
    field: object
    grad: Callable
    unpack: Callable
    scale: float = 1.0
    state: tuple = (None, None, 0)

    def at(self, theta: np.ndarray, state: tuple | None = None) -> "_Block":
        return replace(self, theta=theta, state=state or self.state,
                       field=self.unpack(theta, theta != self.theta, self.field))


def _appearance_blocks(scene: Scene) -> list:
    """alpha and l_iso via logit, l_aniso via inverse softplus (whose
    derivative is the sigmoid), g via atanh, so each constraint holds."""
    return [
        _Block("alpha", _logit(scene.alpha), scene.alpha,
               lambda out, th: out["alpha"] * _dsigmoid(th), _each(_sigmoid_open)),
        _Block("l_iso", _logit(scene.l_iso), scene.l_iso,
               lambda out, th: out["l_iso"] * _dsigmoid(th), _each(_sigmoid)),
        _Block("l_aniso", _inv_softplus(scene.l_aniso), scene.l_aniso,
               lambda out, th: out["l_aniso"] * _sigmoid(th), _each(_softplus)),
        _Block("g", _atanh(scene.g), scene.g,
               lambda out, th: out["g"] * (1.0 - np.tanh(th) ** 2),
               _each(_tanh_open)),
    ]


def _geometry_blocks(scene: Scene) -> list:
    """mu as it is, in world units, so stepped at MU_STEP starting scene
    radii per unit of lr, and cov through its log-eigenvalues s, cov = R
    diag(exp(2 s)) R^T, with the eigenvector frames R (`rot`) of the
    starting scene held fixed: a splat's whole covariance is rebuilt when
    any of its s moved.
    d Sigma^-1 / d s_j = -2 exp(-2 s_j) R_j R_j^T, so cov's gradient is the
    contraction of the renderer's "cov_inv" with it."""
    sym_cov = 0.5 * (scene.cov + np.transpose(scene.cov, (0, 2, 1)))
    eigval, rot = np.linalg.eigh(sym_cov)       # [G,3,3], columns are axes

    def grad_cov(out, theta):
        m = out["cov_inv"]
        return np.stack([-2.0 * np.exp(-2.0 * theta[:, j])
                         * sum(rot[:, a, j] * rot[:, b, j] * m[:, a, b]
                               for a in range(3) for b in range(3))
                         for j in range(3)], axis=1)

    def unpack_cov(theta, moved, field):
        cov = np.einsum("gij,gj,gkj->gik", rot, np.exp(2.0 * theta), rot)
        cov = 0.5 * (cov + np.transpose(cov, (0, 2, 1)))
        return np.where(moved.any(axis=1)[:, None, None], cov, field)

    return [_Block("mu", scene.mu, scene.mu, lambda out, th: out["mu"],
                   _each(lambda th: th), MU_STEP * scene.radius),
            _Block("cov", 0.5 * np.log(eigval), sym_cov, grad_cov, unpack_cov)]


def _head_block(mlp: MlpParams) -> _Block:
    """The fusion MLP's weights, flat in `MlpParams.to_flat`'s order."""
    return _Block("head", mlp.to_flat(), mlp, lambda out, th: out["head"].to_flat(),
                  lambda th, moved, field: field.with_flat(th))


def _scene_of(scene: Scene, blocks) -> Scene:
    """`scene` with each block's field in place of its own."""
    kw = {f.name: getattr(scene, f.name) for f in fields(scene) if f.init}
    kw.update((b.name, b.field) for b in blocks if b.name in kw)
    return Scene(**kw)


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


def _patch_step(scene: Scene, blocks: dict, cam: Camera, sets, rows: np.ndarray,
                cols: np.ndarray, e_vec: np.ndarray | None, target: np.ndarray,
                in_float32: bool, rcfg: RenderConfig, cfg: FitConfig):
    """(loss, {block name: d loss / d theta}, the forward pass's `_Tape`) of
    the patch rows x cols of `scene`, whose fields are the `blocks`' own,
    against `target`, compared in float32 when `in_float32` (`fit_scene`).

    The one iteration body: `fit_scene` runs it once per iteration and
    steps each block by Adam, and `_patch_gradcheck` runs it at every point
    it probes, so the check differentiates the loss the fit does. `sets`
    hold the patch's pairs, and `e_vec` is the camera embedding the head
    holds fixed. The fusion head runs when `blocks` hold "head", and the
    backward pass takes geometry when they hold "mu". Raises NumericFailure
    on a non-finite prediction or loss.
    """
    mlp = blocks["head"].field if "head" in blocks else None
    colors, tape = _patch_forward(scene, cam, rcfg, sets, rows, cols, mlp, e_vec)
    pred = _pred_for_loss(colors.reshape(target.shape), in_float32)
    if not np.isfinite(pred).all():
        raise NumericFailure("non-finite prediction")
    loss, gimg = composite_loss(pred, target, cfg.lambda_mse, cfg.lambda_ssim)
    if not math.isfinite(loss):
        raise NumericFailure("non-finite loss")
    out = _patch_backward(tape, rcfg, gimg.data.reshape(-1, 3), mlp, "mu" in blocks)
    return loss, {name: b.grad(out, b.theta) for name, b in blocks.items()}, tape


def fit_scene(scene: Scene, targets, cfg: FitConfig,
              mlp: MlpParams | None = None):
    """Fit appearance (and optionally geometry / MLP) to target images.

    targets: list of (Camera, ImageBuffer or HxWx3 array). A view whose
    every target value equals its float32 rounding, as a decoded PFM's
    values do, is compared in float32: its patch predictions and full
    renders are rounded to float32 first, so a fit started at the scene
    that produced such targets measures exactly zero. Any other view is
    compared in float64. Returns
    (fitted scene, fitted MlpParams or None, FitReport). Raises NumericFailure
    (with .report carrying progress so far) if a patch prediction, a loss or
    a full-view render turns non-finite, or a covariance turns singular.
    """
    if not targets:
        raise ValueError("need at least one target view")
    rcfg = RenderConfig(disentangle="no_disentangle" not in cfg.ablation,
                        anisotropy_enabled="no_anisotropy" not in cfg.ablation)
    use_mlp = mlp is not None and "no_dual_branch" not in cfg.ablation
    live_mlp = mlp if use_mlp else None

    cams: list[Camera] = []
    targets_arr: list[np.ndarray] = []
    in_float32: list[bool] = []
    for cam, img in targets:
        arr = image_array(img)
        if arr.shape != (cam.height, cam.width, 3):
            raise ValueError(
                f"target shape {arr.shape} does not match camera "
                f"{cam.height}x{cam.width}x3")
        cams.append(cam)
        targets_arr.append(arr)
        in_float32.append(_in_float32(arr))

    blocks = {b.name: b for b in _appearance_blocks(scene)
              + (_geometry_blocks(scene) if cfg.optimize_geometry else [])
              + ([_head_block(live_mlp)] if live_mlp is not None else [])}

    # view_sets[v] holds view v's block sets where the rule in the module
    # docstring keeps them, else None. The final report renders every view in
    # full, so keeping one costs no extra pair work: the rule only bounds
    # memory, as kept sets hold about 32 B per live pair and 40 B per pixel
    # for the whole fit
    side = int(math.isqrt(cfg.rays_per_step))
    keeps = [not cfg.optimize_geometry and len(range(v, cfg.iters, len(cams)))
             * min(side, cam.height) * min(side, cam.width) >= cam.height * cam.width
             for v, cam in enumerate(cams)]
    view_sets = [list(_pair_sets(scene, cam, _view_grids(cam), geometry=_ray_geometry))
                 if keep else None for cam, keep in zip(cams, keeps)]

    def full_view(view, scene, mlp):
        """`render(scene, cams[view], rcfg, mlp=mlp)`'s images."""
        cam, sets = cams[view], view_sets[view]
        if sets is None:
            sets = _pair_sets(scene, cam, _view_grids(cam), geometry=_ray_geometry)
        return _render_sets(scene, cam, rcfg, mlp, sets)

    anchor_sets: list[AnchorSet | None]
    if "no_anchoring" in cfg.ablation:
        anchor_sets = [None] * len(cams)
    else:
        anchor_sets = [select_anchors(depth_gradient(full_view(v, scene, None)[1]))
                       for v in range(len(cams))]

    step_cfgs = {name: replace(cfg, lr=cfg.lr * b.scale) for name, b in blocks.items()}
    rng = np.random.default_rng(cfg.seed)
    trace: list[float] = []
    full_evals: list = []
    cur_scene = scene
    t_start = time.perf_counter()

    def make_report(final_loss=float("nan"), per_view=None):
        return FitReport(iterations=len(trace),
                         seconds=time.perf_counter() - t_start,
                         trace=list(trace), full_evals=list(full_evals),
                         per_view=per_view or [], final_loss=final_loss)

    def failure(msg):
        err = NumericFailure(msg)
        err.report = make_report()
        return err

    def view_losses(scene, mlp):
        """(composite loss, compared image, SSIM) of each view's full render;
        the SSIM is None where the loss has no SSIM term."""
        out = []
        for view, tgt in enumerate(targets_arr):
            try:
                img, _, _ = full_view(view, scene, mlp)
                pred = _pred_for_loss(img.data, in_float32[view])
                # composite_loss's terms, keeping the SSIM for the report
                loss, _ = composite_loss(pred, tgt, cfg.lambda_mse, 0.0,
                                         want_grad=False)
                s = None
                if cfg.lambda_ssim != 0.0:
                    s = ssim(pred, tgt)
                    loss += cfg.lambda_ssim * (1.0 - s)
            except ValueError as e:  # the render or its compared image is not finite
                raise failure(f"full-view render after iteration "
                              f"{len(trace)}: {e}") from e
            out.append((loss, pred, s))
        return out

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
        sets = view_sets[view] if view_sets[view] is not None else list(
            _pair_sets(cur_scene, cam, [(rows, cols)], geometry=_ray_geometry))
        tgt = targets_arr[view][r0:r0 + ph, c0:c0 + pw]
        try:
            loss, grads, _ = _patch_step(cur_scene, blocks, cam, sets, rows, cols,
                                         e_vec, tgt, in_float32[view], rcfg, cfg)
        except NumericFailure as e:
            raise failure(f"{e} at iteration {it}") from e
        trace.append(loss)
        blocks = {name: b.at(*adam_step(b.theta, grads[name], b.state, step_cfgs[name]))
                  for name, b in blocks.items()}
        live_mlp = blocks["head"].field if "head" in blocks else None
        cur_scene = _scene_of(scene, blocks.values())
        if cur_scene.singular.any():  # a geometry step collapsed a splat
            raise failure(f"singular covariance after iteration {it}")

        if cfg.full_eval_every and (it % cfg.full_eval_every == 0):
            losses = view_losses(cur_scene, live_mlp)
            full_evals.append([it, sum(loss for loss, _, _ in losses) / len(cams)])

    views = view_losses(cur_scene, live_mlp)
    per_view = [{"view": i, "psnr": psnr(pred, tgt),
                 "ssim": ssim(pred, tgt) if s is None else s}
                for i, ((_, pred, s), tgt) in enumerate(zip(views, targets_arr))]
    report = make_report(final_loss=float(np.mean([loss for loss, _, _ in views])),
                         per_view=per_view)
    return cur_scene, live_mlp, report


# ---------------------------------------------------------------------------
# gradient check

def _relerr(analytic: float, fd: float, abs_floor: float = 1e-8) -> float:
    if abs(analytic) < abs_floor and abs(fd) < abs_floor:
        return abs(analytic - fd)
    return abs(analytic - fd) / max(abs(analytic), abs(fd))


def _stencil(x: np.ndarray, i):
    """x moved by +FD_STEP and by -FD_STEP along coordinate i of x.flat."""
    xp = x.copy(); xp.flat[i] += FD_STEP
    xm = x.copy(); xm.flat[i] -= FD_STEP
    return xp, xm


def _central(loss, x: np.ndarray):
    """i -> the central difference of loss at x along coordinate i of x.flat."""
    def fd(i):
        xp, xm = _stencil(x, i)
        return (loss(xp) - loss(xm)) / (2 * FD_STEP)
    return fd


def _fd_check(label: str, fd, grad: np.ndarray, coords, tol: float) -> float:
    """Worst relative error of grad.flat[i] against fd(i), a finite
    difference of the loss, over the coordinates i in coords; raises
    CheckFailure on the first error above tol."""
    worst = 0.0
    for i in coords:
        err = _relerr(grad.flat[i], fd(i))
        worst = max(worst, err)
        if err > tol:
            raise CheckFailure(f"{label} gradient off by rel {err:.2e} (> {tol:g})")
    return worst


def run_gradcheck(seed: int = 0, tol: float = 1e-4, draws: int = 100) -> dict:
    """Finite-difference audit of every analytic gradient path.

    Raises CheckFailure on the first violation; returns worst errors per
    section otherwise. Each draw checks a seeded random subset of coordinates.
    Raises ValueError unless tol is finite and > 0 and draws is an integer
    >= 1: a NaN tol fails no comparison, and no draw checks no MLP gradient.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be > 0 and finite, got {tol!r}")
    if _integer(draws, "draws") < 1:
        raise ValueError(f"draws must be >= 1, got {draws!r}")
    rng = np.random.default_rng(seed)
    worst_mlp = 0.0
    for _ in range(draws):
        d = 16
        params = init_mlp(d=d, seed=int(rng.integers(1 << 31)))
        x = np.concatenate([rng.random(3), rng.random(3),
                            rng.uniform(-1, 1, d), rng.uniform(-1, 1, 3)])
        up = rng.standard_normal(3)
        _, cache = fuse_forward_batch(x[None, :], params, want_cache=True)
        grads, dX = fuse_backward_batch(cache, params, up[None, :])
        flat = params.to_flat()
        worst_mlp = max(
            worst_mlp,
            _fd_check("mlp param", _central(lambda p: float(fuse_forward_batch(
                x[None, :], params.with_flat(p))[0] @ up), flat),
                grads.to_flat(), rng.integers(0, flat.size, 6), tol),
            _fd_check("mlp input", _central(lambda xi: float(fuse_forward_batch(
                xi[None, :], params)[0] @ up), x),
                dX[0], rng.integers(0, x.size, 4), tol))

    pred = rng.random((8, 8, 3))
    tgt = rng.random((8, 8, 3))
    _, grad = composite_loss(pred, tgt)
    coords = [np.ravel_multi_index((rng.integers(8), rng.integers(8), rng.integers(3)),
                                   pred.shape) for _ in range(40)]
    worst_loss = _fd_check("composite_loss", _central(
        lambda p: composite_loss(p, tgt, want_grad=False)[0], pred),
        grad.data, coords, tol)

    patch = _patch_gradcheck(seed, tol=max(tol, 1e-3))
    return {"mlp": worst_mlp, "composite_loss": worst_loss, **patch,
            "tol": tol, "draws": draws}


def _patch_gradcheck(seed: int, tol: float) -> dict:
    """Patch gradients of every block a fit steps (appearance, geometry and
    the head) vs finite differences, probed in the unconstrained coordinates
    Adam steps, so each block's chain rule is checked too.

    The base point and every stencil point run `_patch_step`, the fit's one
    iteration body, at `FitConfig()`: the analytic gradients and the
    differenced losses come from the fit's own code. 3 splats, one 16x32
    patch, physical color and then a fused MLP, whose camera embedding is
    taken from the starting scene and held fixed, as the fit holds it within
    a step (embedding each probed scene would put the centres' pull on it
    into the difference quotient). The head is probed in the fused pass
    only, at HEAD_PROBES seeded coordinates among its weights whose analytic
    gradient exceeds 1e-8 (a weight into or out of a hidden unit that no ray
    of the patch fires has an exact zero gradient and difference, and would
    check nothing); every other block at all of its coordinates. A
    coordinate is probed only where its +-FD_STEP stencil keeps `_tape_key`:
    across a cutoff edge, a t-order swap or a moved ray termination the loss
    jumps, and the difference quotient would measure the jump. Raises
    CheckFailure when a section probed no nonzero gradient.
    """
    scene = make_random_scene(3, seed=seed + 1, spread=0.12,
                              sigma_range=(0.3, 0.6))
    cam = make_orbit_cameras(scene.center, 0.8, 1, 0.2, "ring", 32, 16, 1.1)[0]
    rcfg, cfg = RenderConfig(), FitConfig()
    tgt = np.clip(np.random.default_rng(seed + 2).random((16, 32, 3)), 0, 1)
    tgt_in_float32 = _in_float32(tgt)  # decided as `fit_scene` decides
    rows = np.arange(16, dtype=np.float64)
    cols = np.arange(32, dtype=np.float64)
    head = init_mlp(d=16, seed=seed + 3)
    sections = {"appearance": _appearance_blocks(scene),
                "geometry": _geometry_blocks(scene), "head": [_head_block(head)]}
    every = [b for blocks in sections.values() for b in blocks]
    start = _scene_of(scene, every)

    out = dict.fromkeys([k for name in sections for k in
                         (name, f"{name}_checked", f"{name}_skipped")], 0)
    for mlp in (None, head):
        kind = "fused" if mlp else "physical"
        e_vec = (None if mlp is None
                 else embed_camera(cam, scene.center, scene.radius, mlp.d))
        base = {b.name: b for b in every if mlp is not None or b.name != "head"}

        def probe(changed):
            """(loss, gradients, `_tape_key`) of `_patch_step` with the
            blocks `changed` in place of their own."""
            sc = _scene_of(start, changed)
            loss, grads, tape = _patch_step(
                sc, base | {b.name: b for b in changed}, cam,
                list(_pair_sets(sc, cam, [(rows, cols)])), rows, cols, e_vec,
                tgt, tgt_in_float32, rcfg, cfg)
            return loss, grads, _tape_key(tape)

        _, grads, key = probe([])
        for name, blocks in sections.items():
            if name == "head" and mlp is None:
                continue
            for b in blocks:
                grad = grads[b.name]
                coords = range(b.theta.size)
                if b.name == "head":
                    moving = np.flatnonzero(np.abs(grad) > 1e-8)
                    coords = np.sort(np.random.default_rng(seed + 4).choice(
                        moving, min(HEAD_PROBES, moving.size), replace=False))
                points = {i: [probe([b.at(th)]) for th in _stencil(b.theta, i)]
                          for i in coords}
                smooth = [i for i, ((_, _, kp), (_, _, km)) in points.items()
                          if kp == km == key]
                out[f"{name}_skipped"] += len(points) - len(smooth)
                out[f"{name}_checked"] += int(np.count_nonzero(
                    np.abs(grad.flat[smooth]) > 1e-8))
                out[name] = max(out[name], _fd_check(
                    f"{b.name} ({kind})",
                    lambda i: (points[i][0][0] - points[i][1][0]) / (2 * FD_STEP),
                    grad, smooth, tol))
    for name in sections:
        if out[f"{name}_checked"] == 0:
            raise CheckFailure(f"{name} check probed no nonzero gradient")
    return out
