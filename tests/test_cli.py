"""End-to-end contracts of the command-line entry points."""
import argparse
import ast
import dataclasses
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_scene
import splat360
from splat360 import (Camera, RenderConfig, cli, fitting, init_mlp, load_mlp,
                      load_pfm, make_random_scene, make_sphere_phantom, save_mlp,
                      save_pfm, save_scene, save_volume)
from splat360.cli import main
from splat360.fusion import MlpParams
from splat360.renderer import _pair_sets, _patch_forward, _shutdown_pools, _tape_key
from splat360.scene import load_camera_json


@pytest.fixture
def scene_file(tmp_path):
    scene = make_random_scene(5, seed=21, spread=0.3,
                              sigma_range=(0.05, 0.12))
    path = tmp_path / "scene.json"
    save_scene(str(path), scene)
    return str(path)


def _read_manifest(outdir):
    with open(os.path.join(outdir, "manifest.json")) as f:
        return json.load(f)


def _dir_bytes(d):
    return {name: Path(d, name).read_bytes() for name in sorted(os.listdir(d))}


def test_render_writes_frames_and_manifest(tmp_path, scene_file):
    out = str(tmp_path / "r1")
    rc = main(["render", "--scene", scene_file, "--out", out,
               "--orbit", "ring:3", "--width", "24", "--height", "20"])
    assert rc == 0
    names = sorted(os.listdir(out))
    assert "frame_000.ppm" in names and "frame_002.ppm" in names
    assert "frame_001.camera.json" in names
    man = _read_manifest(out)
    assert man["command"] == "render"
    assert man["config"]["width"] == 24
    assert scene_file in man["inputs"]
    assert set(man["outputs"]) == set(names) - {"manifest.json"}


def test_render_rerun_byte_identical(tmp_path, scene_file):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    argv = ["render", "--scene", scene_file, "--orbit", "ring:2",
            "--width", "16", "--height", "16", "--depth", "--float-color"]
    assert main(argv + ["--out", a]) == 0
    assert main(argv + ["--out", b]) == 0
    assert _dir_bytes(a) == _dir_bytes(b)


def test_render_worker_count_does_not_change_frames(tmp_path, scene_file):
    a, b = str(tmp_path / "w1"), str(tmp_path / "w3")
    # 70 rows span two coarse blocks, so --workers 3 goes through the pool
    argv = ["render", "--scene", scene_file, "--orbit", "ring:2",
            "--width", "16", "--height", "70"]
    assert main(argv + ["--out", a, "--workers", "1"]) == 0
    _shutdown_pools()
    assert main(argv + ["--out", b, "--workers", "3"]) == 0
    assert multiprocessing.active_children()
    ba, bb = _dir_bytes(a), _dir_bytes(b)
    del ba["manifest.json"], bb["manifest.json"]  # records the worker count
    assert ba == bb


def test_negative_worker_flag_exits_2(tmp_path, scene_file, capsys):
    out = str(tmp_path / "neg")
    assert main(["render", "--scene", scene_file, "--out", out,
                 "--workers", "-3"]) == 2
    assert "--workers must be >= 0" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_exponent_form_negative_number_is_a_value(tmp_path, scene_file):
    # argparse read -1e-1 as an option name: "expected one argument", exit 2
    assert main(["render", "--scene", scene_file, "--out", str(tmp_path / "o"),
                 "--orbit", "ring:1", "--width", "8", "--height", "8",
                 "--elevation", "-1e-1"]) == 0
    assert _read_manifest(str(tmp_path / "o"))["config"]["elevation"] == -0.1


def test_exponent_form_negative_tol_reaches_its_check(capsys):
    assert main(["gradcheck", "--tol", "-1e-4"]) == 2
    assert "tol must be > 0" in capsys.readouterr().err


def test_workers_flag_only_on_commands_that_render():
    with pytest.raises(SystemExit) as exit_info:
        main(["info", "--workers", "1"])
    assert exit_info.value.code == 2


def test_negative_worker_env_exits_2(tmp_path, scene_file, capsys, monkeypatch):
    out = str(tmp_path / "neg")
    monkeypatch.setenv("SPLAT360_WORKERS", "-3")
    assert main(["render", "--scene", scene_file, "--out", out]) == 2
    assert "SPLAT360_WORKERS must be >= 0" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_render_camera_sidecar_reproduces_frame(tmp_path, scene_file):
    first = str(tmp_path / "first")
    again = str(tmp_path / "again")
    assert main(["render", "--scene", scene_file, "--out", first,
                 "--orbit", "ring:2", "--width", "16", "--height", "16"]) == 0
    cam_path = os.path.join(first, "frame_001.camera.json")
    assert main(["render", "--scene", scene_file, "--out", again,
                 "--camera", cam_path, "--width", "16", "--height", "16"]) == 0
    with open(os.path.join(first, "frame_001.ppm"), "rb") as f:
        want = f.read()
    with open(os.path.join(again, "frame_000.ppm"), "rb") as f:
        got = f.read()
    assert got == want


def test_render_mlp_draws_the_fused_color(tmp_path, scene_file):
    scene = splat360.load_scene(scene_file)
    params = str(tmp_path / "head.params")
    save_mlp(params, init_mlp(d=16, seed=4))
    head = load_mlp(params)
    argv = ["render", "--scene", scene_file, "--orbit", "ring:2", "--width", "16",
            "--height", "12", "--float-color", "--depth"]
    plain, fused = str(tmp_path / "plain"), str(tmp_path / "fused")
    assert main(argv + ["--out", plain]) == 0
    assert main(argv + ["--out", fused, "--mlp", params]) == 0
    assert params in _read_manifest(fused)["inputs"]
    want = tmp_path / "want"
    want.mkdir()
    for i in range(2):
        cam = load_camera_json(os.path.join(plain, f"frame_{i:03d}.camera.json"))
        for out, mlp in ((plain, None), (fused, head)):
            color, depth, _ = splat360.render(scene, cam, mlp=mlp)
            splat360.save_ppm(str(want / "c.ppm"), color.data)
            splat360.save_pfm(str(want / "c.pfm"), color.data)
            splat360.save_pfm(str(want / "d.pfm"), depth.data)
            for name, ref in (("ppm", "c.ppm"), ("pfm", "c.pfm"), ("depth.pfm", "d.pfm")):
                got = Path(out, f"frame_{i:03d}.{name}").read_bytes()
                assert got == (want / ref).read_bytes(), (out, i, name)
        # the head changes the color and leaves depth physical
        assert (Path(plain, f"frame_{i:03d}.pfm").read_bytes()
                != Path(fused, f"frame_{i:03d}.pfm").read_bytes())
        assert (Path(plain, f"frame_{i:03d}.depth.pfm").read_bytes()
                == Path(fused, f"frame_{i:03d}.depth.pfm").read_bytes())


def test_render_bad_mlp_exits_3_no_outputs(tmp_path, scene_file):
    bad = tmp_path / "bad.params"
    bad.write_bytes(b"not a params file")
    out = str(tmp_path / "nope")
    assert main(["render", "--scene", scene_file, "--out", out,
                 "--mlp", str(bad)]) == 3
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_render_bad_scene_exits_3_no_outputs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"not\": \"a scene\"}")
    out = str(tmp_path / "nope")
    assert main(["render", "--scene", str(bad), "--out", out]) == 3
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_render_failing_midway_removes_what_it_wrote(tmp_path, scene_file,
                                                     monkeypatch):
    frames = []
    render = cli.render

    def fail_on_second_frame(*args, **kwargs):
        frames.append(None)
        if len(frames) == 2:
            raise RuntimeError("second frame failed")
        return render(*args, **kwargs)

    monkeypatch.setattr(cli, "render", fail_on_second_frame)
    out = tmp_path / "r"
    with pytest.raises(RuntimeError, match="second frame"):
        main(["render", "--scene", scene_file, "--out", str(out), "--orbit",
              "ring:3", "--width", "12", "--height", "10", "--depth",
              "--transmittance", "--float-color"])
    assert len(frames) == 2
    assert os.listdir(out) == []


def _dests(command):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in sub.choices[command]._actions} - {"help"}


# what each command resolves from its options and records beside them
_RESOLVED = {
    "render": {"workers"}, "anchors": {"workers"}, "metrics": set(),
    "drr": {"workers", "source", "detector_center", "detector_u",
            "detector_v", "det_width", "det_height"},
    "fit": {"target_files", "rays_per_step"},
}


@pytest.mark.parametrize("command", sorted(_RESOLVED))
def test_manifest_config_records_every_option(tmp_path, scene_file, command):
    frames = str(tmp_path / "frames")
    view = ["--orbit", "ring:1", "--width", "12", "--height", "12"]
    assert main(["render", "--scene", scene_file, "--out", frames,
                 "--float-color", *view]) == 0
    vol = str(tmp_path / "v.vol")
    save_volume(vol, make_sphere_phantom(8, 2.0, 5.0))
    img = os.path.join(frames, "frame_000.pfm")
    argv = {"render": ["--scene", scene_file, *view],
            "anchors": ["--scene", scene_file, *view],
            "drr": ["--volume", vol, "--det-width", "9", "--det-height", "9"],
            "fit": ["--scene", scene_file, "--targets", frames, "--iters", "1"],
            "metrics": [img, img]}
    out = str(tmp_path / "out")
    assert main([command, *argv[command], "--out", out]) == 0
    man = _read_manifest(out)
    assert sorted(man) == ["command", "config", "inputs", "outputs", "version"]
    assert set(man["config"]) == (_dests(command) - {"out"}) | _RESOLVED[command]


def test_anchors_manifest_tells_apart_runs_that_differ(tmp_path, scene_file):
    argv = ["anchors", "--scene", scene_file, "--width", "24", "--height", "24"]
    changed = ["--elevation", "0.9", "--radius", "2", "--center", "0.1,0,0",
               "--no-disentangle"]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(argv + ["--out", a]) == 0
    assert main(argv + changed + ["--out", b]) == 0
    assert Path(a, "anchors.json").read_bytes() != Path(b, "anchors.json").read_bytes()
    ca, cb = (_read_manifest(d)["config"] for d in (a, b))
    assert {k for k in ca if ca[k] != cb[k]} == {"elevation", "radius", "center",
                                                 "no_disentangle"}
    assert cb["center"] == [0.1, 0.0, 0.0]


@pytest.mark.parametrize("command,option,parses", [
    ("render", "--seed", False), ("drr", "--seed", False),
    ("anchors", "--seed", False), ("metrics", "--seed", False),
    ("info", "--seed", False), ("gradcheck", "--out", False),
    ("info", "--out", False), ("fit", "--seed", True),
    ("gradcheck", "--seed", True), ("drr", "--step", False)])
def test_only_options_a_command_uses_parse(command, option, parses):
    required = {"render": ["--scene", "s", "--out", "o"],
                "anchors": ["--scene", "s", "--out", "o"],
                "drr": ["--volume", "v", "--out", "o"], "metrics": ["a", "b"],
                "fit": ["--scene", "s", "--targets", "t", "--out", "o"]}
    argv = [command, *required.get(command, []), option, "7"]
    if parses:
        assert cli.build_parser().parse_args(argv).seed == 7
    else:
        with pytest.raises(SystemExit) as exit_info:
            cli.build_parser().parse_args(argv)
        assert exit_info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["drr", "--volume", "v.vol", "--source", "nan,0,0"],
    ["render", "--scene", "s.json", "--center", "0,inf,0"]], ids=["drr", "render"])
def test_non_finite_vector_option_exits_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["render"])  # --scene and --out are required
    assert exc.value.code == 2


def test_fit_self_targets_reports_zero(tmp_path, scene_file, capsys):
    tdir = str(tmp_path / "targets")
    assert main(["render", "--scene", scene_file, "--out", tdir,
                 "--orbit", "ring:2", "--width", "16", "--height", "16",
                 "--float-color"]) == 0
    fdir = str(tmp_path / "fit")
    rc = main(["fit", "--scene", scene_file, "--targets", tdir,
               "--out", fdir, "--iters", "2", "--lr", "0.05"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "final loss 0.000000e+00" in text
    rep = json.loads(Path(fdir, "fit_report.json").read_text())
    assert rep["final_loss"] == 0.0
    assert rep["trace"] == [0.0, 0.0]
    fitted = Path(fdir, "fitted_scene.json").read_bytes()
    assert fitted == Path(scene_file).read_bytes()
    per_view = Path(fdir, "per_view.txt").read_text()
    assert "99.0" in per_view


def test_each_target_file_decides_its_own_precision(tmp_path, scene_file):
    # a .ppm view beside a .pfm view is compared in float64: its decoded
    # values are no float32s, and a sibling's file type no longer decides
    tdir = tmp_path / "targets"
    assert main(["render", "--scene", scene_file, "--out", str(tdir),
                 "--orbit", "ring:2", "--width", "16", "--height", "16",
                 "--float-color"]) == 0
    (tdir / "frame_001.pfm").unlink()
    pairs = cli._load_targets(str(tdir))
    assert [Path(p[2]).name for p in pairs] == ["frame_000.pfm", "frame_001.ppm"]
    assert [fitting._in_float32(p[1]) for p in pairs] == [True, False]


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_fit_targets_not_a_directory_exits_3(tmp_path, scene_file, capsys, kind):
    targets = tmp_path / "targets"
    if kind == "file":
        targets.write_text("not a directory\n")
    fdir = tmp_path / "fit"
    assert main(["fit", "--scene", scene_file, "--targets", str(targets),
                 "--out", str(fdir)]) == 3
    assert "targets" in capsys.readouterr().err
    assert not fdir.exists()


def test_fit_numeric_failure_exits_4_keeps_report(tmp_path, scene_file):
    tdir = str(tmp_path / "targets")
    assert main(["render", "--scene", scene_file, "--out", tdir,
                 "--orbit", "ring:1", "--width", "12", "--height", "12"]) == 0
    fdir = str(tmp_path / "boom")
    with np.errstate(all="ignore"):
        rc = main(["fit", "--scene", scene_file, "--targets", tdir,
                   "--out", fdir, "--iters", "3", "--lr", "1e200",
                   "--lambda-ssim", "0"])
    assert rc == 4
    rep = json.loads(Path(fdir, "fit_report.json").read_text())
    assert "error" in rep
    assert not os.path.exists(os.path.join(fdir, "fitted_scene.json"))


def test_fit_diverging_mlp_exits_4_keeps_report(tmp_path, scene_file):
    tdir = str(tmp_path / "targets")
    assert main(["render", "--scene", scene_file, "--out", tdir,
                 "--orbit", "ring:1", "--width", "12", "--height", "12"]) == 0
    fdir = tmp_path / "boom"
    with np.errstate(all="ignore"):
        rc = main(["fit", "--scene", scene_file, "--targets", tdir,
                   "--out", str(fdir), "--iters", "3", "--lr", "1e300",
                   "--mlp-init", "16"])
    assert rc == 4
    rep = json.loads((fdir / "fit_report.json").read_text())
    assert "non-finite" in rep["error"] and rep["iterations"] >= 1
    assert not (fdir / "mlp.params").exists()


def test_fit_mlp_chain_with_one_channel_target(tmp_path, scene_file):
    tdir = tmp_path / "targets"
    assert main(["render", "--scene", scene_file, "--out", str(tdir),
                 "--orbit", "ring:2", "--width", "12", "--height", "12",
                 "--float-color"]) == 0
    gray = tdir / "frame_001.pfm"
    save_pfm(str(gray), load_pfm(str(gray)).mean(axis=2, keepdims=True))
    assert load_pfm(str(gray)).shape == (12, 12, 1)
    argv = ["fit", "--scene", scene_file, "--targets", str(tdir),
            "--iters", "2", "--lr", "0.01"]
    first = tmp_path / "first"
    assert main(argv + ["--out", str(first), "--mlp-init", "16"]) == 0
    params = first / "mlp.params"
    fitted = load_mlp(str(params))
    assert fitted.d == 16
    assert not np.array_equal(fitted.to_flat(), init_mlp(d=16, seed=0).to_flat())
    second = tmp_path / "second"
    assert main(argv + ["--out", str(second), "--mlp", str(params)]) == 0
    man = _read_manifest(second)
    assert man["inputs"][str(params)] == hashlib.sha256(params.read_bytes()).hexdigest()
    assert str(gray) in man["inputs"]
    assert load_mlp(str(second / "mlp.params")).d == 16


def test_fit_takes_one_fusion_head_source(tmp_path, scene_file, capsys):
    # with both, the fit used to start from --mlp and drop --mlp-init unread
    tdir = str(tmp_path / "targets")
    assert main(["render", "--scene", scene_file, "--out", tdir,
                 "--orbit", "ring:1", "--width", "12", "--height", "12"]) == 0
    params = str(tmp_path / "head.params")
    save_mlp(params, init_mlp(d=16, seed=0))
    fdir = tmp_path / "fit"
    with pytest.raises(SystemExit) as exit_info:
        main(["fit", "--scene", scene_file, "--targets", tdir, "--out", str(fdir),
              "--iters", "1", "--mlp", params, "--mlp-init", "8"])
    assert exit_info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not fdir.exists()


def test_fit_help_says_what_it_fits_and_how_to_score_held_out_views(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fit", "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--optimize-geometry also fits their centres" in text
    assert "fusion head" in text
    assert "scores only the training views" in text
    assert "`splat360 metrics`" in text
    # and --optimize-geometry has a help line of its own
    assert "--optimize-geometry also fit splat centres" in text
    # a fused fit's held-out views render with its head
    assert "`splat360 render --camera` (and `--mlp`" in text


def test_fit_non_finite_lr_exits_2_before_any_work(tmp_path, scene_file,
                                                  capsys):
    tdir = str(tmp_path / "targets")
    assert main(["render", "--scene", scene_file, "--out", tdir,
                 "--orbit", "ring:1", "--width", "12", "--height", "12"]) == 0
    fdir = tmp_path / "fit"
    assert main(["fit", "--scene", scene_file, "--targets", tdir,
                 "--out", str(fdir), "--iters", "2", "--lr", "inf"]) == 2
    assert "lr must be > 0 and finite" in capsys.readouterr().err
    assert not fdir.exists()


def test_fit_manifest_hashes_the_camera_files_it_fitted(tmp_path, scene_file,
                                                       monkeypatch):
    # a camera file that appears once the targets are loaded is not fitted,
    # so the manifest does not list it
    tdir = tmp_path / "targets"
    assert main(["render", "--scene", scene_file, "--out", str(tdir),
                 "--orbit", "ring:1", "--width", "12", "--height", "12"]) == 0
    real = cli.fit_scene

    def late_camera(*args, **kwargs):
        late = tdir / "frame_001.camera.json"
        late.write_bytes((tdir / "frame_000.camera.json").read_bytes())
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "fit_scene", late_camera)
    fdir = str(tmp_path / "fit")
    assert main(["fit", "--scene", scene_file, "--targets", str(tdir),
                 "--out", fdir, "--iters", "1"]) == 0
    assert sorted(_read_manifest(fdir)["inputs"]) == sorted([
        scene_file, str(tdir / "frame_000.ppm"),
        str(tdir / "frame_000.camera.json")])


def test_anchors_outputs(tmp_path, scene_file):
    out = str(tmp_path / "anc")
    rc = main(["anchors", "--scene", scene_file, "--out", out,
               "--width", "24", "--height", "24", "--k", "6",
               "--beta", "0.0"])
    assert rc == 0
    doc = json.loads(Path(out, "anchors.json").read_text())
    assert sorted(doc) == ["anchors", "beta"]
    probs = [a["prob"] for a in doc["anchors"]]
    assert len(probs) <= 6
    assert all(abs(p - 1.0 / len(probs)) < 1e-12 for p in probs)
    g = load_pfm(os.path.join(out, "grad_mag.pfm"))
    assert g.shape == (24, 24, 1)


def test_metrics_verb(tmp_path, scene_file, capsys):
    out = str(tmp_path / "m")
    assert main(["render", "--scene", scene_file, "--out", out,
                 "--orbit", "ring:1", "--width", "16", "--height", "16",
                 "--float-color"]) == 0
    img = os.path.join(out, "frame_000.pfm")
    mdir = str(tmp_path / "mm")
    capsys.readouterr()  # drop the render verb's progress line
    rc = main(["metrics", img, img, "--out", mdir])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["psnr_db"] == 99.0 and doc["ssim"] == 1.0
    saved = json.loads(Path(mdir, "metrics.json").read_text())
    assert saved["psnr_db"] == 99.0


def test_metrics_missing_file_exits_3(tmp_path):
    rc = main(["metrics", str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm")])
    assert rc == 3


def test_gradcheck_passes(capsys):
    rc = main(["gradcheck", "--draws", "5", "--seed", "0"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    tol = doc["tol"]
    assert doc["mlp"] < tol and doc["composite_loss"] < tol
    assert doc["geometry_checked"] > 0 and doc["head_checked"] > 0


@pytest.mark.parametrize("seed", range(10))
def test_gradcheck_probes_only_head_weights_with_a_gradient(seed):
    # a probe skipped at a ReLU kink checks nothing either way; every other
    # probed head coordinate must count as checked, |grad| > 1e-8
    out = fitting._patch_gradcheck(seed, 1e-4)
    assert out["head_checked"] + out["head_skipped"] == fitting.HEAD_PROBES


def test_gradcheck_impossible_tolerance_exits_5():
    with np.errstate(all="ignore"):
        rc = main(["gradcheck", "--draws", "2", "--tol", "1e-18"])
    assert rc == 5


@pytest.mark.parametrize("key", ["g", "mu", "cov_inv", "head"])
def test_gradcheck_catches_a_wrong_patch_gradient(monkeypatch, key):
    # each gradient 1% off, the head's in the fused pass only
    real = fitting._patch_backward

    def skew(*args, **kwargs):
        grads = real(*args, **kwargs)
        if key in grads:
            g = grads[key]
            grads[key] = g.with_flat(1.01 * g.to_flat()) if key == "head" else 1.01 * g
        return grads

    monkeypatch.setattr(fitting, "_patch_backward", skew)
    assert main(["gradcheck", "--draws", "1", "--seed", "0"]) == 5


@pytest.mark.parametrize("name", ["alpha", "l_iso", "l_aniso", "g"])
def test_gradcheck_catches_a_wrong_chain_factor(monkeypatch, name):
    # the check probes the unconstrained coordinates Adam steps, so a chain
    # factor off by 1% fails it as a wrong patch gradient would
    real = fitting._appearance_blocks

    def skew_chain(scene):
        return [dataclasses.replace(b, grad=lambda out, th, grad=b.grad: 1.01 * grad(out, th))
                if b.name == name else b for b in real(scene)]

    monkeypatch.setattr(fitting, "_appearance_blocks", skew_chain)
    assert main(["gradcheck", "--draws", "1", "--seed", "0"]) == 5


def test_gradcheck_sees_the_fits_loss_path(monkeypatch):
    # the check runs the fit's own step, so a compared image 1% off the
    # rendered one makes every analytic gradient 1% wrong and fails it
    real = fitting._pred_for_loss
    monkeypatch.setattr(fitting, "_pred_for_loss",
                        lambda arr, in_float32: 1.01 * real(arr, in_float32))
    assert main(["gradcheck", "--draws", "1", "--seed", "0"]) == 5


@pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--tol", "inf"),
                                         ("--tol", "0"), ("--tol", "-0.5"),
                                         ("--draws", "0"), ("--draws", "-5")])
def test_gradcheck_rejects_bounds_that_check_nothing(monkeypatch, capsys,
                                                     flag, value):
    # with a doubled alpha gradient the check must fail, so a pass here
    # would mean the bound let it check nothing
    real = fitting._patch_backward

    def skew(*args, **kwargs):
        grads = real(*args, **kwargs)
        grads["alpha"] = 2.0 * grads["alpha"]
        return grads

    monkeypatch.setattr(fitting, "_patch_backward", skew)
    assert main(["gradcheck", "--draws", "1", flag, value]) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("kw", [{"draws": 1.5}, {"draws": True}])
def test_gradcheck_draws_must_be_an_integer(kw):
    with pytest.raises(ValueError, match="draws"):
        fitting.run_gradcheck(**kw)


def test_cli_imports_no_private_name():
    # the CLI parses, dispatches and writes; what it runs is public API of
    # the modules that own it
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("splat360"))
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


@pytest.mark.parametrize("depth1, flips", [(1.0, True), (1.2, False)])
def test_tape_key_sees_a_t_order_swap(depth1, flips):
    # the camera's one ray runs down its axis; two splats at depth 1.0 tie in
    # t there, so moving one by +h along the axis swaps their order and the
    # patch loss jumps, while splats at distinct depths keep theirs
    cam = Camera.look_at(np.zeros(3), np.array([0.0, 0.0, 1.0]), 0.9, 1, 1)
    rcfg = RenderConfig()
    one = np.zeros(1)

    def key_at(z0):
        scene = make_scene(mu=[(-0.05, 0.0, z0), (0.05, 0.0, depth1)], alpha=0.5)
        return _tape_key(_patch_forward(
            scene, cam, rcfg, list(_pair_sets(scene, cam, [(one, one)])), one, one,
            None, None)[1])

    assert key_at(1.0 - 1e-5) == key_at(1.0)
    assert (key_at(1.0 + 1e-5) != key_at(1.0)) == flips


def test_tape_key_sees_a_head_unit_turn_on():
    # the fused patch loss has a kink where one of the head's hidden units
    # turns on for a ray, as it has a jump where the ray's splats change
    cam = Camera.look_at(np.zeros(3), np.array([0.0, 0.0, 1.0]), 0.9, 1, 1)
    scene = make_scene(mu=[(0.0, 0.0, 1.0)], alpha=0.5)
    one = np.zeros(1)
    mlp = init_mlp(d=16, seed=0)

    def tape(bias):
        b1 = mlp.biases[0].copy()
        b1[0] = bias
        head = MlpParams(mlp.d, mlp.seed, mlp.weights, (b1, *mlp.biases[1:]))
        return _patch_forward(scene, cam, RenderConfig(),
                              list(_pair_sets(scene, cam, [(one, one)])), one, one,
                              head, np.full(16, 0.1))[1]

    z = tape(0.0).cache[1][0, 0]  # unit 0's input on the ray, less its bias
    keys = [_tape_key(tape(h - z)) for h in (-2e-6, -1e-6, 1e-6)]
    assert keys[0] == keys[1] != keys[2]


def test_tape_key_sees_which_ray_holds_which_splats():
    # a 2x1 frame: splats 0 and 1 on one pixel's ray, splat 2 on the other's,
    # and then the other way round. The tape orders its rays by slot count,
    # so both tapes hold the same splat indices in the same slots
    cam = Camera.look_at(np.zeros(3), np.array([0.0, 0.0, 1.0]), 0.9, 2, 1)
    rows, cols = np.zeros(1), np.arange(2.0)
    d = np.stack(cam.pixel_dirs(rows[:, None], cols[None, :]), axis=-1)[0]

    def tape(first, second):
        mu = [1.0 * d[first], 1.5 * d[first], 1.0 * d[second]]
        scene = make_scene(mu=mu, sigma=0.01, alpha=0.5)
        return _patch_forward(scene, cam, RenderConfig(),
                              list(_pair_sets(scene, cam, [(rows, cols)])), rows, cols,
                              None, None)[1]

    a, b = tape(0, 1), tape(1, 0)
    assert a.idx.tobytes() == b.idx.tobytes()
    assert _tape_key(a) != _tape_key(b)


def test_tape_key_sees_a_moved_termination():
    # the camera's one ray runs down a chain of 12 splats. At alpha 0.5 each
    # the ray stops at the 10th (0.5^10 < TERMINATION_EPSILON); at 0.4 for the
    # first it stops at the 11th. Every splat is live on the ray either way,
    # so the tape holds the same slots, in the same order, both times
    cam = Camera.look_at(np.zeros(3), np.array([0.0, 0.0, 1.0]), 0.9, 1, 1)
    one = np.zeros(1)
    mu = [(0.0, 0.0, 1.0 + 0.1 * i) for i in range(12)]

    def tape(alpha0):
        scene = make_scene(mu=mu, sigma=0.01, alpha=[alpha0] + [0.5] * 11)
        return _patch_forward(scene, cam, RenderConfig(),
                              list(_pair_sets(scene, cam, [(one, one)])), one, one,
                              None, None)[1]

    a, b = tape(0.5), tape(0.4)
    assert [t.n.tolist() for t in (a, b)] == [[10], [11]]
    assert _tape_key(a) != _tape_key(b)


def test_info_prints_versions(capsys):
    assert main(["info"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] and "numpy" in doc
    assert "ssim" not in doc["defaults"]


def test_info_does_not_import_scipy():
    src = str(Path(splat360.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; from splat360.cli import main; main(['info']); "
            "print('scipy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert done.stdout.splitlines()[-1] == "False"


def test_drr_verb_and_manifest(tmp_path):
    vol = make_sphere_phantom(24, 1.0, 8.0)
    vpath = str(tmp_path / "sphere.vol")
    save_volume(vpath, vol)
    out = str(tmp_path / "drr")
    rc = main(["drr", "--volume", vpath, "--out", out,
               "--det-width", "33", "--det-height", "33",
               "--output", "line_integral"])
    assert rc == 0
    img = load_pfm(os.path.join(out, "drr.pfm"))
    assert img.shape == (33, 33, 1)
    # central ray crosses the full diameter of the water sphere
    assert abs(img[16, 16, 0] - 0.02 * 16.0) / (0.02 * 16.0) < 0.01
    man = _read_manifest(out)
    assert man["command"] == "drr"
    assert man["config"]["det_width"] == 33
    assert len(man["inputs"]) == 2  # header and raw payload both hashed


def test_drr_manifest_hashes_raw_named_with_spaces(tmp_path):
    vpath = tmp_path / "v.vol"
    save_volume(str(vpath), make_sphere_phantom(8, 2.0, 5.0))
    vpath.write_text(vpath.read_text().replace("data=v.raw", "data = v.raw"))
    out = str(tmp_path / "drr")
    assert main(["drr", "--volume", str(vpath), "--out", out,
                 "--det-width", "9", "--det-height", "9"]) == 0
    inputs = _read_manifest(out)["inputs"]
    assert sorted(os.path.basename(p) for p in inputs) == ["v.raw", "v.vol"]
