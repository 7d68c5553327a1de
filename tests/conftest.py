import numpy as np
import pytest

from splat360 import (Camera, GaussianPrimitive, Scene, make_orbit_cameras,
                      make_random_scene)


def make_primitive(mu=(0.0, 0.0, 0.0), sigma=0.1, alpha=0.8,
                   l_iso=(0.5, 0.5, 0.5), l_aniso=(0.0, 0.0, 0.0),
                   normal=(0.0, 0.0, 1.0), g=0.0, cov=None):
    if cov is None:
        cov = np.eye(3) * sigma * sigma
    return GaussianPrimitive(np.array(mu, dtype=float), np.asarray(cov, dtype=float),
                             alpha, np.array(l_iso, dtype=float),
                             np.array(l_aniso, dtype=float),
                             np.array(normal, dtype=float), g)


@pytest.fixture
def simple_scene():
    return Scene.from_gaussians([make_primitive()],
                                background=np.array([0.1, 0.1, 0.1]))


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
