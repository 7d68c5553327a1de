"""The fork pool behind `render` and `render_drr`: its size, and a map that
survives a dead worker.

A worker killed mid-map must not hang the caller, so every test that kills
one runs under a deadline that raises in the main thread.
"""
import contextlib
import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from splat360 import (make_orbit_cameras, make_random_scene,
                      make_sphere_phantom, render, render_drr)
from splat360.renderer import _pool_for, _shutdown_pools
from test_ct import _sphere_geometry

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not os.path.exists("/proc/self/stat"),
    reason="needs the fork start method and /proc")


@contextlib.contextmanager
def _deadline(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _cpu_ticks(pid: int) -> int:
    with open(f"/proc/{pid}/stat", encoding="ascii") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])  # utime + stime


def _kill_a_busy_worker(done: threading.Event, killed: list) -> None:
    """SIGKILL the first pool child whose CPU time rises, so the kill lands
    on a worker holding a task (an idle worker's death loses nothing)."""
    baseline: dict = {}
    while not done.is_set():
        for child in multiprocessing.active_children():
            try:
                ticks = _cpu_ticks(child.pid)
            except FileNotFoundError:
                continue
            if ticks > baseline.setdefault(child.pid, ticks):
                os.kill(child.pid, signal.SIGKILL)
                killed.append(child.pid)
                return
        time.sleep(0.002)


def _with_a_busy_worker_killed(call):
    _shutdown_pools()
    _pool_for(2).map(abs, [1, -2])  # fork the workers before the killer starts
    done, killed = threading.Event(), []
    killer = threading.Thread(target=_kill_a_busy_worker, args=(done, killed))
    killer.start()
    try:
        with _deadline(20.0):
            out = call()
    finally:
        done.set()
        killer.join(5.0)
    assert not killer.is_alive()
    assert killed, "no worker was seen busy"
    return out


def test_render_survives_a_killed_busy_worker():
    scene = make_random_scene(2000, seed=3, spread=0.5, sigma_range=(0.01, 0.04))
    cam = make_orbit_cameras(scene.center, 2.5 * scene.radius, 1, 0.3, "ring",
                             192, 192, 0.9)[0]
    ref = render(scene, cam, workers=1)
    out = _with_a_busy_worker_killed(lambda: render(scene, cam, workers=2))
    for a, b in zip(ref, out):
        assert np.array_equal(a.data, b.data)


def test_drr_survives_a_killed_busy_worker():
    vol = make_sphere_phantom(48, 1.0, 18.0, hu_inside=0.0)
    geom = _sphere_geometry(vol, 97)
    ref = render_drr(vol, geom, workers=1)
    out = _with_a_busy_worker_killed(lambda: render_drr(vol, geom, workers=2))
    assert np.array_equal(ref.data, out.data)


def test_a_volume_built_after_the_pool_forked_projects_as_on_one_worker():
    # the running workers forked without the new volume's field, so the
    # projection restarts the pool; the old volume dies first, so the new
    # one may take its id, under which the old workers hold a stale field
    old = make_sphere_phantom(17, 1.0, 5.0, hu_inside=200.0)
    geom = _sphere_geometry(old, 65)  # two pixel chunks
    render_drr(old, geom, workers=2)
    forked = {p.pid for p in multiprocessing.active_children()}
    assert forked
    del old
    vol = make_sphere_phantom(17, 1.0, 7.0, hu_inside=600.0)
    two = render_drr(vol, geom, workers=2)
    assert forked.isdisjoint(p.pid for p in multiprocessing.active_children())
    assert np.array_equal(two.data, render_drr(vol, geom, workers=1).data)


def _die_once(payload):
    marker, value = payload
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return 2 * value
    os.kill(os.getpid(), signal.SIGKILL)


def _always_die(value):
    os.kill(os.getpid(), signal.SIGKILL)


def test_map_reruns_once_when_a_worker_dies(tmp_path):
    marker = str(tmp_path / "died")
    with _deadline(20.0):
        out = _pool_for(2).map(_die_once, [(marker, v) for v in range(5)])
    assert out == [0, 2, 4, 6, 8]
    assert os.path.exists(marker)


def test_a_second_death_propagates_and_the_next_map_works():
    from concurrent.futures.process import BrokenProcessPool
    with _deadline(20.0):
        with pytest.raises(BrokenProcessPool):
            _pool_for(2).map(_always_die, [1, 2])
        assert _pool_for(2).map(abs, [-1, -2, 3]) == [1, 2, 3]


def test_pool_has_no_more_processes_than_payloads():
    scene = make_random_scene(30, seed=5, spread=0.3, sigma_range=(0.08, 0.16))
    cam = make_orbit_cameras(scene.center, 2.5 * scene.radius, 1, 0.3, "ring",
                             128, 128, 0.9)[0]  # 4 coarse blocks
    _shutdown_pools()
    assert multiprocessing.active_children() == []
    render(scene, cam, workers=8)
    assert 1 <= len(multiprocessing.active_children()) <= 4
    _shutdown_pools()
    vol = make_sphere_phantom(9, 1.0, 3.0, hu_inside=0.0)
    render_drr(vol, _sphere_geometry(vol, 65), workers=8)  # 2 pixel chunks
    assert 1 <= len(multiprocessing.active_children()) <= 2
    _shutdown_pools()
