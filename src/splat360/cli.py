"""Command-line surface: render, drr, fit, anchors, metrics, gradcheck, bench, info.

Every command resolves its configuration up front, writes outputs through an
atomic tracker (a failure removes whatever was already written), and finishes
by writing a run manifest: every parsed option, the values resolved from
them, and sha256 hashes of the inputs. The commands that render (render, drr,
anchors, bench) take their worker count from --workers, else the
SPLAT360_WORKERS environment variable, else 1.

Exit codes: 0 success, 2 argument error, 3 input-format error, 4 numeric
failure, 5 check failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .anchors import (DEFAULT_BETA, DEFAULT_K, DEFAULT_SUPPRESSION_RADIUS,
                      anchor_set_to_json, depth_gradient, select_anchors)
from .ct import (DrrConfig, ProjectionGeometry, load_volume, read_volume_header,
                 render_drr)
from .errors import CheckFailure, FormatError, NumericFailure
from .fitting import (FitConfig, _Geometry, _patch_backward, _patch_forward,
                      composite_loss, fit_scene)
from .fusion import (embed_camera, fuse_backward_batch, fuse_forward_batch,
                     init_mlp, load_mlp, save_mlp)
from .imgfile import atomic_write, load_pfm, load_ppm, save_pfm, save_ppm
from .metrics import psnr, ssim
from .renderer import RenderConfig, render
from .scene import (Camera, Scene, load_scene, make_orbit_cameras,
                    make_random_scene, save_scene)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_NUMERIC = 4
EXIT_CHECK = 5
FD_STEP = 1e-5  # central-difference step of every gradient check


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _jsonable(doc: dict) -> dict:
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in doc.items()}


def _vec3_arg(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,z - got {text!r}")
    try:
        v = np.array([float(p) for p in parts])
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e
    if not np.isfinite(v).all():
        raise argparse.ArgumentTypeError(f"expected finite x,y,z - got {text!r}")
    return v


def _resolve_workers(args) -> int:
    workers, source = args.workers, "--workers"
    env = os.environ.get("SPLAT360_WORKERS", "")
    if not workers and env.strip():
        try:
            workers, source = int(env), "SPLAT360_WORKERS"
        except ValueError:
            raise ValueError(f"SPLAT360_WORKERS must be an integer, got {env!r}")
    if workers < 0:
        raise ValueError(f"{source} must be >= 0, got {workers}")
    return max(1, workers)


class _Run:
    """Tracks files a command writes; an exception leaving its `with` block
    removes them all."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.written: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def __enter__(self) -> "_Run":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            return
        for p in self.written:
            try:
                os.unlink(p)
            except OSError:
                pass

    def path(self, name: str) -> str:
        p = os.path.join(self.out_dir, name)
        self.written.append(p)
        return p

    def write_text(self, name: str, text: str) -> None:
        atomic_write(self.path(name), text.encode("utf-8"))

    def manifest(self, args, inputs: list[str], **resolved) -> None:
        """manifest.json: `config` holds every option `args` parsed except
        the output directory, overlaid with the values the command resolved
        from them (worker count, defaulted geometry, ...)."""
        config = _jsonable({k: v for k, v in vars(args).items()
                            if k not in ("func", "command", "out")})
        config.update(resolved)
        doc = {
            "command": args.command,
            "config": config,
            "inputs": {p: _sha256(p) for p in inputs},
            "outputs": sorted(os.path.basename(p) for p in self.written),
            "version": __version__,
        }
        self.write_text("manifest.json",
                        json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# camera JSON sidecars

def camera_to_doc(cam: Camera) -> dict:
    return _jsonable(vars(cam))


def camera_from_doc(doc: dict) -> Camera:
    try:
        for key in ("width", "height"):
            # Camera would read 3.5 as 3 and true as 1
            if type(doc[key]) is not int:
                raise TypeError(f"{key} must be an integer, got {doc[key]!r}")
        return Camera(np.array(doc["position"]), np.array(doc["forward"]),
                      np.array(doc["up"]), np.array(doc["right"]),
                      doc["fov_y"], doc["width"], doc["height"],
                      doc.get("near", 1e-3))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"bad camera JSON: {e}") from e


def load_camera_json(path: str) -> Camera:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read camera file: {e}") from e
    except json.JSONDecodeError as e:
        raise FormatError(f"camera file is not valid JSON: {e}") from e
    return camera_from_doc(doc)


def _cameras_for(args, scene: Scene) -> list[Camera]:
    if getattr(args, "camera", None):
        return [load_camera_json(args.camera)]
    mode, _, count = args.orbit.partition(":")
    if mode not in ("ring", "fibonacci_sphere") or not count.isdigit():
        raise ValueError(
            f"--orbit must be ring:N or fibonacci_sphere:N, got {args.orbit!r}")
    n = int(count)
    center = args.center if args.center is not None else scene.center
    radius = args.radius
    if radius is None:
        radius = 2.5 * scene.radius if scene.radius > 0 else 1.0
    return make_orbit_cameras(center, radius, n, args.elevation, mode,
                              args.width, args.height, args.fov)


def _render_config(args) -> RenderConfig:
    return RenderConfig(disentangle=not args.no_disentangle,
                        anisotropy_enabled=not args.no_anisotropy)


# ---------------------------------------------------------------------------
# render

def cmd_render(args) -> int:
    scene = load_scene(args.scene)
    cams = _cameras_for(args, scene)
    rcfg = _render_config(args)
    workers = _resolve_workers(args)
    with _Run(args.out) as run:
        for i, cam in enumerate(cams):
            color, depth, trans = render(scene, cam, rcfg, workers=workers)
            save_ppm(run.path(f"frame_{i:03d}.ppm"), color.data)
            run.write_text(f"frame_{i:03d}.camera.json",
                           json.dumps(camera_to_doc(cam), indent=1) + "\n")
            if args.float_color:
                save_pfm(run.path(f"frame_{i:03d}.pfm"), color.data)
            if args.depth:
                save_pfm(run.path(f"frame_{i:03d}.depth.pfm"), depth.data)
            if args.transmittance:
                save_pfm(run.path(f"frame_{i:03d}.trans.pfm"), trans.data)
        run.manifest(args, [args.scene], workers=workers)
    print(f"wrote {len(cams)} frame(s) to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# drr

def _default_geometry(vol, args) -> ProjectionGeometry:
    center = vol.center
    ext = float(np.max(vol.box_hi - vol.box_lo))
    w = args.det_width
    h = args.det_height
    source = args.source
    if source is None:
        source = center + np.array([0.0, -3.0 * ext, 0.0])
    det_center = args.detector_center
    if det_center is None:
        det_center = center + np.array([0.0, 3.0 * ext, 0.0])
    du = args.detector_u
    dv = args.detector_v
    if du is None:
        du = np.array([2.0 * ext / w, 0.0, 0.0])
    if dv is None:
        dv = np.array([0.0, 0.0, -2.0 * ext / h])
    return ProjectionGeometry(source, det_center, du, dv, w, h)


def cmd_drr(args) -> int:
    vol = load_volume(args.volume)
    geom = _default_geometry(vol, args)
    cfg = DrrConfig(mu_water=args.mu_water, i0=args.i0, output=args.output)
    workers = _resolve_workers(args)
    with _Run(args.out) as run:
        img = render_drr(vol, geom, cfg, workers=workers)
        if args.output == "intensity":
            save_ppm(run.path("drr.ppm"), np.repeat(img.data, 3, axis=2))
        else:
            save_pfm(run.path("drr.pfm"), img.data)
        run.manifest(args, [args.volume, read_volume_header(args.volume)[1]],
                     workers=workers,
                     **_jsonable(vars(geom)))
    print(f"wrote drr to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit

def _load_targets(targets_dir: str):
    """(Camera, image) pairs from frame_XXX.camera.json + frame_XXX.pfm/.ppm."""
    names = sorted(n for n in os.listdir(targets_dir)
                   if n.endswith(".camera.json"))
    if not names:
        raise FormatError(f"no frame_*.camera.json files in {targets_dir}")
    pairs = []
    any_pfm = False
    for name in names:
        stem = name[:-len(".camera.json")]
        cam = load_camera_json(os.path.join(targets_dir, name))
        pfm = os.path.join(targets_dir, stem + ".pfm")
        ppm = os.path.join(targets_dir, stem + ".ppm")
        if os.path.exists(pfm):
            img = load_pfm(pfm)
            any_pfm = True
            used = pfm
        elif os.path.exists(ppm):
            img = load_ppm(ppm)
            used = ppm
        else:
            raise FormatError(f"no image for {stem} (need .pfm or .ppm)")
        if img.shape[2] == 1:
            img = np.repeat(img, 3, axis=2)
        pairs.append((cam, img, used))
    return pairs, any_pfm


def cmd_fit(args) -> int:
    scene = load_scene(args.scene)
    pairs, any_pfm = _load_targets(args.targets)
    ablation = frozenset(p for p in (args.ablation or "").split(",") if p)
    cfg = FitConfig(lr=args.lr, iters=args.iters, lambda_mse=args.lambda_mse,
                    lambda_ssim=args.lambda_ssim,
                    optimize_geometry=args.optimize_geometry,
                    ablation=ablation, seed=args.seed,
                    lr_halve_every=args.halve_every,
                    target_dtype="float32" if any_pfm else "float64")
    mlp = None
    if args.mlp:
        mlp = load_mlp(args.mlp)
    elif args.mlp_init is not None:
        mlp = init_mlp(d=args.mlp_init, seed=args.seed)
    targets = [(cam, img) for cam, img, _ in pairs]
    with _Run(args.out) as run:
        try:
            fitted, mlp_out, report = fit_scene(scene, targets, cfg, mlp=mlp)
        except NumericFailure as e:
            # keep the trace collected so far (nothing else is written yet)
            partial = getattr(e, "report", None)
            doc = dataclasses.asdict(partial) if partial else {}
            doc["error"] = str(e)
            run.write_text("fit_report.json", json.dumps(doc, indent=1) + "\n")
            print(f"fit aborted: {e}", file=sys.stderr)
            return EXIT_NUMERIC
        save_scene(run.path("fitted_scene.json"), fitted)
        if mlp_out is not None:
            save_mlp(run.path("mlp.params"), mlp_out)
        run.write_text("fit_report.json",
                       json.dumps(dataclasses.asdict(report), indent=1) + "\n")
        lines = ["view  psnr_db  ssim"]
        for row in report.per_view:
            lines.append(f"{row['view']:4d}  {row['psnr']:7.3f}  {row['ssim']:.6f}")
        run.write_text("per_view.txt", "\n".join(lines) + "\n")
        target_files = [p[2] for p in pairs]
        inputs = [args.scene] + target_files
        inputs += [os.path.join(args.targets, n) for n in
                   sorted(os.listdir(args.targets)) if n.endswith(".camera.json")]
        if args.mlp:
            inputs.append(args.mlp)
        run.manifest(args, inputs, target_files=target_files,
                     rays_per_step=cfg.rays_per_step,
                     target_dtype=cfg.target_dtype)
    print("\n".join(lines))
    print(f"final loss {report.final_loss:.6e} after {report.iterations} iterations "
          f"({report.seconds:.1f}s)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# anchors

def cmd_anchors(args) -> int:
    scene = load_scene(args.scene)
    cams = _cameras_for(args, scene)
    cam = cams[0]
    rcfg = _render_config(args)
    workers = _resolve_workers(args)
    with _Run(args.out) as run:
        _, depth, _ = render(scene, cam, rcfg, workers=workers)
        grad = depth_gradient(depth)
        aset = select_anchors(grad, k=args.k, suppression_radius=args.radius_px,
                              beta=args.beta)
        run.write_text("anchors.json", anchor_set_to_json(aset))
        save_pfm(run.path("grad_mag.pfm"), grad.data)
        run.manifest(args, [args.scene], workers=workers)
    print(f"wrote {len(aset.anchors)} anchors to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# metrics

def _load_image_any(path: str) -> np.ndarray:
    if path.endswith(".pfm"):
        return load_pfm(path)
    if path.endswith(".ppm"):
        return load_ppm(path)
    raise FormatError(f"unsupported image extension: {path} (need .ppm/.pfm)")


def cmd_metrics(args) -> int:
    a = _load_image_any(args.image_a)
    b = _load_image_any(args.image_b)
    result = {"psnr_db": psnr(a, b),
              "ssim": ssim(a, b),
              "image_a": args.image_a, "image_b": args.image_b}
    text = json.dumps(result, indent=1) + "\n"
    sys.stdout.write(text)
    if args.out:
        with _Run(args.out) as run:
            run.write_text("metrics.json", text)
            run.manifest(args, [args.image_a, args.image_b])
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck

def _relerr(analytic: float, fd: float, abs_floor: float = 1e-8) -> float:
    if abs(analytic) < abs_floor and abs(fd) < abs_floor:
        return abs(analytic - fd)
    return abs(analytic - fd) / max(abs(analytic), abs(fd))


def _fd_check(label: str, loss, x: np.ndarray, grad: np.ndarray, coords,
              tol: float, h: float = FD_STEP) -> float:
    """Worst relative error of grad against central differences of loss at x.

    Perturbs one coordinate of x.flat at a time; raises CheckFailure on the
    first error above tol.
    """
    worst = 0.0
    for i in coords:
        xp = x.copy(); xp.flat[i] += h
        xm = x.copy(); xm.flat[i] -= h
        err = _relerr(grad.flat[i], (loss(xp) - loss(xm)) / (2 * h))
        worst = max(worst, err)
        if err > tol:
            raise CheckFailure(f"{label} gradient off by rel {err:.2e} (> {tol:g})")
    return worst


def run_gradcheck(seed: int = 0, tol: float = 1e-4, draws: int = 100) -> dict:
    """Finite-difference audit of every analytic gradient path.

    Raises CheckFailure on the first violation; returns worst errors per
    section otherwise. Each draw checks a seeded random subset of coordinates.
    """
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
            _fd_check("mlp param", lambda p: float(fuse_forward_batch(
                x[None, :], params.with_flat(p))[0] @ up),
                flat, grads.to_flat(), rng.integers(0, flat.size, 6), tol),
            _fd_check("mlp input", lambda xi: float(fuse_forward_batch(
                xi[None, :], params)[0] @ up),
                x, dX[0], rng.integers(0, x.size, 4), tol))

    pred = rng.random((8, 8, 3))
    tgt = rng.random((8, 8, 3))
    _, grad = composite_loss(pred, tgt)
    coords = [np.ravel_multi_index((rng.integers(8), rng.integers(8), rng.integers(3)),
                                   pred.shape) for _ in range(40)]
    worst_loss = _fd_check("composite_loss",
                           lambda p: composite_loss(p, tgt, want_grad=False)[0],
                           pred, grad.data, coords, tol)

    patch = _patch_gradcheck(seed, tol=max(tol, 1e-3))
    return {"mlp": worst_mlp, "composite_loss": worst_loss, **patch,
            "tol": tol, "draws": draws}


def _tape_key(work) -> tuple:
    """Each ray's t-ordered contributing splats: the patch loss is smooth in
    geometry only while this stays the same."""
    tp = work[1]
    return tp.idx.tobytes(), (tp.tw > 0.0).tobytes()


def _patch_gradcheck(seed: int, tol: float) -> dict:
    """Patch gradients of alpha, l_iso, l_aniso, g, mu and the covariance
    log-eigenvalues vs finite differences.

    3 splats, one 16x32 patch, physical color and then a fused MLP, whose
    camera embedding is held fixed as the fit holds it. A geometry coordinate
    is probed only where its +-FD_STEP stencil keeps `_tape_key`: across a
    cutoff edge, a t-order swap or a moved ray termination the loss jumps,
    and the difference quotient would measure the jump. Raises CheckFailure
    when no nonzero geometry gradient was probed.
    """
    scene = make_random_scene(3, seed=seed + 1, spread=0.12,
                              sigma_range=(0.3, 0.6))
    cam = make_orbit_cameras(scene.center, 0.8, 1, 0.2, "ring", 32, 16, 1.1)[0]
    rcfg = RenderConfig()
    tgt = np.clip(np.random.default_rng(seed + 2).random((16, 32, 3)), 0, 1)
    rows = np.arange(16, dtype=np.float64)
    cols = np.arange(32, dtype=np.float64)
    geo = _Geometry(scene)
    th0 = geo.pack()

    def scene_at(th):
        mu, cov = geo.unpack(th)
        return dataclasses.replace(scene, mu=mu, cov=cov)

    worst_app = worst_geo = 0.0
    checked = skipped = 0
    for mlp in (None, init_mlp(d=16, seed=seed + 3)):
        kind = "fused" if mlp else "physical"
        e_vec = (None if mlp is None
                 else embed_camera(cam, scene.center, scene.radius, mlp.d))

        def forward(sc, tape=False):
            return _patch_forward(sc, cam, rcfg, rows, cols, mlp, e_vec, tape=tape)

        def loss_of(sc):
            return composite_loss(forward(sc)[0].reshape(tgt.shape), tgt,
                                  want_grad=False)[0]

        colors, work = forward(scene, tape=True)
        _, gimg = composite_loss(colors.reshape(tgt.shape), tgt)
        *grads, dgeo, _ = _patch_backward(work, rcfg, gimg.data.reshape(-1, 3),
                                          mlp, (geo.rot, geo.log_eig))
        for name, grad in zip(("alpha", "l_iso", "l_aniso", "g"), grads):
            worst_app = max(worst_app, _fd_check(
                f"{name} ({kind})",
                lambda v: loss_of(dataclasses.replace(scene, **{name: v})),
                getattr(scene, name), grad, range(grad.size), tol))
        key = _tape_key(work)
        smooth = []
        for i in range(th0.size):
            step = np.zeros(th0.size)
            step[i] = FD_STEP
            if all(_tape_key(forward(scene_at(th0 + sign * step), tape=True)[1]) == key
                   for sign in (1.0, -1.0)):
                smooth.append(i)
        skipped += th0.size - len(smooth)
        checked += int(np.count_nonzero(np.abs(dgeo.ravel()[smooth]) > 1e-8))
        worst_geo = max(worst_geo, _fd_check(
            f"geometry ({kind})", lambda th: loss_of(scene_at(th)), th0, dgeo,
            smooth, tol))
    if checked == 0:
        raise CheckFailure("geometry check probed no nonzero gradient")
    return {"appearance": worst_app, "geometry": worst_geo,
            "geometry_checked": checked, "geometry_skipped": skipped}


def cmd_gradcheck(args) -> int:
    result = run_gradcheck(seed=args.seed, tol=args.tol, draws=args.draws)
    print(json.dumps(result, indent=1))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench

def cmd_bench(args) -> int:
    if args.scene:
        scene = load_scene(args.scene)
    else:
        scene = make_random_scene(args.gaussians, seed=args.seed, spread=0.5,
                                  sigma_range=(0.01, 0.04))
    cams = make_orbit_cameras(scene.center, 2.5 * max(scene.radius, 0.1),
                              args.frames, 0.3, "ring", args.res, args.res, 0.9)
    workers = _resolve_workers(args)
    # the warm-up frame (first camera) is not timed, so pool spawn and cache
    # effects do not pollute the per-frame numbers
    render(scene, cams[0], workers=workers)
    t0 = time.perf_counter()
    for cam in cams:
        render(scene, cam, workers=workers)
    seconds = max(time.perf_counter() - t0, 1e-9)
    n = len(cams)
    text = json.dumps({
        "width": args.res, "height": args.res, "frames": n, "seconds": seconds,
        "fps": n / seconds, "ms_per_frame": seconds / n * 1000.0,
        "workers": workers, "cpu_count": os.cpu_count(),
        "gaussians": scene.alpha.size}, indent=1) + "\n"
    sys.stdout.write(text)
    if args.out:
        with _Run(args.out) as run:
            run.write_text("bench.json", text)
            run.manifest(args, [args.scene] if args.scene else [],
                         workers=workers, gaussians=scene.alpha.size)
    return EXIT_OK


def cmd_info(args) -> int:
    doc = {
        "version": __version__,
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "defaults": {
            "render": vars(RenderConfig()),
            "drr": vars(DrrConfig()),
            "fit": {k: (sorted(v) if isinstance(v, frozenset) else v)
                    for k, v in vars(FitConfig(iters=1)).items()},
        },
    }
    print(json.dumps(doc, indent=1))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_common(p, out_required=True, workers=False):
    if workers:
        p.add_argument("--workers", type=int, default=0,
                       help="process count; 0 = SPLAT360_WORKERS or 1")
    p.add_argument("--out", required=out_required, help="output directory")


def _add_camera_flags(p):
    p.add_argument("--camera", default=None, help="camera JSON file")
    p.add_argument("--orbit", default="ring:8",
                   help="ring:N or fibonacci_sphere:N")
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--fov", type=float, default=0.9, help="vertical fov, radians")
    p.add_argument("--radius", type=float, default=None, help="orbit radius")
    p.add_argument("--elevation", type=float, default=0.3, help="radians")
    p.add_argument("--center", type=_vec3_arg, default=None)


def _add_render_flags(p):
    p.add_argument("--no-disentangle", action="store_true")
    p.add_argument("--no-anisotropy", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="splat360",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("render", help="render a scene to PPM frames")
    p.add_argument("--scene", required=True)
    _add_camera_flags(p)
    _add_render_flags(p)
    p.add_argument("--depth", action="store_true", help="also write depth PFMs")
    p.add_argument("--transmittance", action="store_true")
    p.add_argument("--float-color", action="store_true",
                   help="also write linear color PFMs")
    _add_common(p, workers=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("drr", help="project a CT volume to a radiograph")
    p.add_argument("--volume", required=True, help="volume header path")
    p.add_argument("--source", type=_vec3_arg, default=None)
    p.add_argument("--detector-center", type=_vec3_arg, default=None)
    p.add_argument("--detector-u", type=_vec3_arg, default=None)
    p.add_argument("--detector-v", type=_vec3_arg, default=None)
    p.add_argument("--det-width", type=int, default=129)
    p.add_argument("--det-height", type=int, default=129)
    p.add_argument("--mu-water", type=float, default=0.02)
    p.add_argument("--i0", type=float, default=1.0)
    p.add_argument("--output", choices=("intensity", "line_integral"),
                   default="intensity")
    _add_common(p, workers=True)
    p.set_defaults(func=cmd_drr)

    p = sub.add_parser("fit", help="fit appearance parameters to target views")
    p.add_argument("--scene", required=True, help="starting scene JSON")
    p.add_argument("--targets", required=True,
                   help="directory of frame_*.camera.json + frame_*.pfm/.ppm")
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.0002)
    p.add_argument("--lambda-mse", type=float, default=1.0)
    p.add_argument("--lambda-ssim", type=float, default=0.2)
    p.add_argument("--halve-every", type=int, default=50000)
    p.add_argument("--ablation", default="",
                   help="comma list: no_anchoring,no_disentangle,"
                        "no_dual_branch,no_anisotropy")
    p.add_argument("--optimize-geometry", action="store_true")
    p.add_argument("--mlp", default=None, help="initial MLP params file")
    p.add_argument("--mlp-init", type=int, default=None,
                   help="initialize a fresh MLP with this embedding dim")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("anchors", help="depth-gradient anchor extraction")
    p.add_argument("--scene", required=True)
    _add_camera_flags(p)
    _add_render_flags(p)
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--radius-px", type=float, default=DEFAULT_SUPPRESSION_RADIUS)
    p.add_argument("--beta", type=float, default=DEFAULT_BETA)
    _add_common(p, workers=True)
    p.set_defaults(func=cmd_anchors)

    p = sub.add_parser("metrics", help="PSNR/SSIM between two images")
    p.add_argument("image_a")
    p.add_argument("image_b")
    _add_common(p, out_required=False)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--draws", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="frame-rate measurement")
    p.add_argument("--scene", default=None)
    p.add_argument("--gaussians", type=int, default=5000)
    p.add_argument("--res", type=int, default=512)
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, out_required=False, workers=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("info", help="build and configuration report")
    p.set_defaults(func=cmd_info)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except NumericFailure as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except CheckFailure as e:
        print(f"check failed: {e}", file=sys.stderr)
        return EXIT_CHECK
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
