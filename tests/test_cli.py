"""End-to-end contracts of the command-line entry points."""
import argparse
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
from splat360 import (Camera, RenderConfig, cli, load_pfm, make_random_scene,
                      make_sphere_phantom, save_scene, save_volume)
from splat360.cli import main
from splat360.fitting import _patch_forward
from splat360.renderer import _shutdown_pools


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
    "fit": {"target_files", "rays_per_step", "target_dtype"},
    "bench": {"workers", "gaussians"},
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
            "metrics": [img, img],
            "bench": ["--scene", scene_file, "--res", "12", "--frames", "1"]}
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
    ("gradcheck", "--seed", True), ("bench", "--seed", True),
    ("drr", "--step", False)])
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
    assert doc["geometry_checked"] > 0


def test_gradcheck_impossible_tolerance_exits_5():
    with np.errstate(all="ignore"):
        rc = main(["gradcheck", "--draws", "2", "--tol", "1e-18"])
    assert rc == 5


def test_gradcheck_catches_a_wrong_g_gradient(monkeypatch):
    real = cli._patch_backward

    def zero_dg(*args):
        dalpha, dli, dla, dg, *rest = real(*args)
        return (dalpha, dli, dla, np.zeros_like(dg), *rest)

    monkeypatch.setattr(cli, "_patch_backward", zero_dg)
    assert main(["gradcheck", "--draws", "1", "--seed", "0"]) == 5


@pytest.mark.parametrize("block", [slice(0, 3), slice(3, 6)], ids=["mu", "log_eig"])
def test_gradcheck_catches_a_wrong_geometry_gradient(monkeypatch, block):
    real = cli._patch_backward

    def skew_dgeo(*args):
        *app, dgeo, mlp_grads = real(*args)
        dgeo = dgeo.copy()
        dgeo[:, block] *= 1.01
        return (*app, dgeo, mlp_grads)

    monkeypatch.setattr(cli, "_patch_backward", skew_dgeo)
    assert main(["gradcheck", "--draws", "1", "--seed", "0"]) == 5


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
        return cli._tape_key(_patch_forward(scene, cam, rcfg, one, one, None,
                                            None, tape=True)[1])

    assert key_at(1.0 - 1e-5) == key_at(1.0)
    assert (key_at(1.0 + 1e-5) != key_at(1.0)) == flips


def test_bench_reports_fps(tmp_path, scene_file, capsys):
    rc = main(["bench", "--scene", scene_file, "--res", "24",
               "--frames", "2", "--gaussians", "5"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["width", "height", "frames", "seconds", "fps",
                         "ms_per_frame", "workers", "cpu_count", "gaussians"]
    assert doc["frames"] == 2 and doc["width"] == doc["height"] == 24
    assert doc["workers"] == 1 and doc["gaussians"] == 5
    assert doc["fps"] > 0.0
    assert abs(doc["fps"] * doc["ms_per_frame"] / 1000.0 - 1.0) < 1e-9


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
