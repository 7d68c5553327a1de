import numpy as np
import pytest

from splat360 import (Camera, RenderConfig, Scene, make_orbit_cameras,
                      make_random_scene)
from splat360.renderer import (_composite, _live_pairs, _origin_terms,
                               _ray_geometry)
from splat_reference import Sample


def make_scene(mu=(0.0, 0.0, 0.0), sigma=0.1, alpha=0.8, l_iso=(0.5, 0.5, 0.5),
               l_aniso=(0.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0), g=0.0,
               cov=None, background=(0.0, 0.0, 0.0)):
    """Scene of one splat per row of `mu`; every other per-splat argument is
    one value for all splats or one per splat. cov defaults to sigma^2 I."""
    mu = np.reshape(mu, (-1, 3))
    G = len(mu)

    def per_splat(v, shape):
        return np.broadcast_to(np.asarray(v, dtype=float), (G,) + shape)

    cov = np.eye(3) * sigma * sigma if cov is None else cov
    return Scene(mu=mu, cov=per_splat(cov, (3, 3)), alpha=per_splat(alpha, ()),
                 l_iso=per_splat(l_iso, (3,)), l_aniso=per_splat(l_aniso, (3,)),
                 normal=per_splat(normal, (3,)), g=per_splat(g, ()),
                 background=background)


def every_pair(scene, origin, dx, dy, dz):
    """(ray, sub, (ts, q)): every ray x splat pair of the rays from `origin`
    along (dx[r], dy[r], dz[r]), splat-major, and the kernel's geometry of
    each, with no enumeration or cull in between."""
    P, G = dx.size, scene.alpha.size
    ray, sub = np.tile(np.arange(P), G), np.repeat(np.arange(G), P)
    ot = _origin_terms(scene, np.asarray(origin, dtype=float))
    return ray, sub, _ray_geometry(scene, *ot, dx[ray], dy[ray], dz[ray], sub)


def dense_composite(scene, origin, dirs, cfg=None, near=0.0,
                    fused_streams=False, tape=False):
    """`_composite` over every pair of the rays from `origin` along the rows
    of `dirs` [P, 3]: one kernel call that no pair enumeration feeds."""
    dx, dy, dz = (np.ascontiguousarray(dirs[:, i]) for i in range(3))
    ray, sub, geometry = every_pair(scene, origin, dx, dy, dz)
    return _composite(scene, cfg or RenderConfig(),
                      _live_pairs(ray, sub, geometry, near, dx.size),
                      dx, dy, dz, fused_streams=fused_streams, tape=tape)


def ray_slots(tape, p):
    """The tape slots of ray p, front to back, those past its stop too."""
    return tape.by_ray[tape.ray[tape.by_ray] == p]


def kernel_samples(tape, p):
    """Ray p's `Sample`s on a kernel tape: its slots up to and including
    the one where it stops."""
    kept = ray_slots(tape, p)[:tape.n[p]]
    return [Sample(*s) for s in zip(tape.idx[kept].tolist(), tape.ts[kept].tolist(),
                                    tape.w[kept].tolist(), tape.Tb[kept].tolist())]


@pytest.fixture
def simple_scene():
    return make_scene(background=(0.1, 0.1, 0.1))


@pytest.fixture
def small_random_scene():
    return make_random_scene(6, seed=11, spread=0.3, sigma_range=(0.05, 0.12))


@pytest.fixture
def front_camera():
    return Camera.look_at(np.array([0.0, 0.0, -1.0]), np.zeros(3),
                          fov_y=0.9, width=32, height=32)


@pytest.fixture
def ring_camera(small_random_scene):
    s = small_random_scene
    return make_orbit_cameras(s.center, 3.0 * s.radius, 1, 0.3, "ring",
                              32, 32, 0.9)[0]
