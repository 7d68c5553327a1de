"""Command-line surface: render, drr, fit, anchors, metrics, gradcheck, info.

Every command resolves its configuration up front, writes outputs through an
atomic tracker (a failure removes whatever was already written), and finishes
by writing a run manifest: every parsed option, the values resolved from
them, and sha256 hashes of the inputs. The commands that render (render, drr,
anchors) take their worker count from --workers, else the SPLAT360_WORKERS
environment variable, else 1.

Exit codes: 0 success, 2 argument error, 3 input-format error, 4 numeric
failure, 5 check failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .anchors import (DEFAULT_BETA, DEFAULT_K, DEFAULT_SUPPRESSION_RADIUS,
                      anchor_set_to_json, depth_gradient, select_anchors)
from .ct import (DrrConfig, ProjectionGeometry, load_volume, read_volume_header,
                 render_drr)
from .errors import CheckFailure, FormatError, NumericFailure
from .fitting import FitConfig, fit_scene, run_gradcheck
from .fusion import init_mlp, load_mlp, save_mlp
from .imgfile import atomic_write, load_pfm, load_ppm, save_pfm, save_ppm
from .metrics import psnr, ssim
from .renderer import RenderConfig, render
from .scene import (Camera, Scene, camera_to_doc, load_camera_json, load_scene,
                    make_orbit_cameras, save_scene)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_NUMERIC = 4
EXIT_CHECK = 5


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
    mlp = load_mlp(args.mlp) if args.mlp else None
    cams = _cameras_for(args, scene)
    rcfg = _render_config(args)
    workers = _resolve_workers(args)
    with _Run(args.out) as run:
        for i, cam in enumerate(cams):
            color, depth, trans = render(scene, cam, rcfg, workers=workers, mlp=mlp)
            save_ppm(run.path(f"frame_{i:03d}.ppm"), color.data)
            run.write_text(f"frame_{i:03d}.camera.json",
                           json.dumps(camera_to_doc(cam), indent=1) + "\n")
            if args.float_color:
                save_pfm(run.path(f"frame_{i:03d}.pfm"), color.data)
            if args.depth:
                save_pfm(run.path(f"frame_{i:03d}.depth.pfm"), depth.data)
            if args.transmittance:
                save_pfm(run.path(f"frame_{i:03d}.trans.pfm"), trans.data)
        run.manifest(args, [args.scene] + ([args.mlp] if args.mlp else []),
                     workers=workers)
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
    """(Camera, image, image file, camera file) of each frame_XXX.camera.json
    + frame_XXX.pfm/.ppm."""
    try:
        names = sorted(n for n in os.listdir(targets_dir)
                       if n.endswith(".camera.json"))
    except OSError as e:
        raise FormatError(f"cannot read targets directory: {e}") from e
    if not names:
        raise FormatError(f"no frame_*.camera.json files in {targets_dir}")
    pairs = []
    for name in names:
        stem = name[:-len(".camera.json")]
        cam_file = os.path.join(targets_dir, name)
        cam = load_camera_json(cam_file)
        pfm, ppm = (os.path.join(targets_dir, stem + ext) for ext in (".pfm", ".ppm"))
        used = pfm if os.path.exists(pfm) else ppm
        if not os.path.exists(used):
            raise FormatError(f"no image for {stem} (need .pfm or .ppm)")
        img = _load_image_any(used)
        if img.shape[2] == 1:
            img = np.repeat(img, 3, axis=2)
        pairs.append((cam, img, used, cam_file))
    return pairs


def cmd_fit(args) -> int:
    scene = load_scene(args.scene)
    pairs = _load_targets(args.targets)
    ablation = frozenset(p for p in (args.ablation or "").split(",") if p)
    cfg = FitConfig(lr=args.lr, iters=args.iters, lambda_ssim=args.lambda_ssim,
                    optimize_geometry=args.optimize_geometry,
                    ablation=ablation, seed=args.seed)
    mlp = None
    if args.mlp:
        mlp = load_mlp(args.mlp)
    elif args.mlp_init is not None:
        mlp = init_mlp(d=args.mlp_init, seed=args.seed)
    targets = [(cam, img) for cam, img, _, _ in pairs]
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
        inputs = [args.scene] + target_files + [p[3] for p in pairs]
        if args.mlp:
            inputs.append(args.mlp)
        run.manifest(args, inputs, target_files=target_files,
                     rays_per_step=cfg.rays_per_step)
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

def cmd_gradcheck(args) -> int:
    result = run_gradcheck(seed=args.seed, tol=args.tol, draws=args.draws)
    print(json.dumps(result, indent=1))
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
    p.add_argument("--mlp", default=None,
                   help="draw the fusion head's color from this params file "
                        "(a fit's mlp.params); depth and transmittance stay "
                        "physical")
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

    p = sub.add_parser(
        "fit", help="fit appearance parameters, and optionally geometry and "
                    "the fusion head, to target views",
        description="Fit the splats' appearance (alpha, l_iso, l_aniso, g) to "
                    "target views; --optimize-geometry also fits their centres "
                    "and covariance scales, and --mlp or --mlp-init the fusion "
                    "head. The report scores only the training views: to score "
                    "held-out views, render the fitted scene at their cameras "
                    "with `splat360 render --camera` (and `--mlp` with the "
                    "fitted mlp.params, for a fit with a fusion head), then "
                    "compare with `splat360 metrics`.")
    p.add_argument("--scene", required=True, help="starting scene JSON")
    p.add_argument("--targets", required=True,
                   help="directory of frame_*.camera.json + frame_*.pfm/.ppm")
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.0002)
    p.add_argument("--lambda-ssim", type=float, default=0.2,
                   help="weight of the 1 - SSIM term beside the MSE")
    p.add_argument("--ablation", default="",
                   help="comma list: no_anchoring,no_disentangle,"
                        "no_dual_branch,no_anisotropy")
    p.add_argument("--optimize-geometry", action="store_true",
                   help="also fit splat centres and covariance scales "
                        "(rotations stay fixed)")
    head = p.add_mutually_exclusive_group()
    head.add_argument("--mlp", default=None,
                      help="fit the fusion head from this params file")
    head.add_argument("--mlp-init", type=int, default=None,
                      help="fit a fresh fusion head with this embedding dim")
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

    p = sub.add_parser("info", help="build and configuration report")
    p.set_defaults(func=cmd_info)
    # argparse 3.10 and 3.11 take only -N and -N.N for negative numbers, so
    # they read a value such as -1e-1 as an option name
    number = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    for parser in (ap, *sub.choices.values()):
        parser._negative_number_matcher = number
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
