"""Scene primitives, cameras, image buffers, and scene and camera file I/O.

Conventions fixed here and relied on everywhere else:
  - world space is right-handed, world up is +z;
  - camera frames satisfy right = forward x up;
  - radiance is linear, no gamma until 8-bit export;
  - pixel (row, col) is sampled at its center, row 0 is the top image row
    and +v in camera space points up.

A Scene of G splats is a set of read-only float64 arrays: mu [G,3],
cov [G,3,3], alpha [G], l_iso [G,3], l_aniso [G,3], normal [G,3], g [G] and
background [3]; it is the only form a splat takes. l_iso is the
view-independent radiance, l_aniso the view-dependent one, and normal and g
steer the angular redistribution of l_aniso. Writing into any array raises
ValueError; a changed scene is a new Scene (`dataclasses.replace`).

Every image, whatever it holds (radiance, depth, transmittance, DRR output,
a loss gradient), is an H x W x C float64 array with C 1 or 3 and every value
finite. `image_array` is the one check of that convention; a function that
takes an image calls it, and an ImageBuffer holds an array that passed it.
That array stays writable, so `image_array` checks a buffer's array on every
read, as it checks any other.
"""
from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import FormatError, SceneFormatError
from .imgfile import atomic_write, parse_json, read_file

# Covariance eigenvalues below this are treated as singular.
MIN_EIGENVALUE = 1e-12
# Mahalanobis cutoff: a splat reaches a ray only within this many sigma of
# its center. The renderer's kernel, its pair enumeration and the scene
# bounds all read it.
CUTOFF_SIGMA = 3.0

_WORLD_UP = np.array([0.0, 0.0, 1.0])
_WORLD_ALT = np.array([1.0, 0.0, 0.0])


def _vec3(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {a.shape}")
    return a.copy()


def _integer(v, name: str) -> int:
    """v as an int; a bool is an Integral, and a float size such as 64.9
    would be truncated, so both raise ValueError."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _real(v, name: str) -> float:
    """v as a float; a bool (True would pass as 1.0) or a non-Real raises ValueError."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {v!r}")
    return float(v)


def _finite_vec3(v, name: str) -> np.ndarray:
    a = _vec3(v, name)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite, got {a}")
    return a


# per-splat shape of each Scene array, in scene-file JSON field order
_SPLAT_SHAPES = {"mu": (3,), "cov": (3, 3), "alpha": (), "l_iso": (3,),
                 "l_aniso": (3,), "normal": (3,), "g": ()}


@functools.lru_cache(maxsize=1)
def _covariance_terms(cov_bytes: bytes) -> tuple:
    """(ext [G], singular [G], cov_inv [G,3,3]) of the float64 covariance
    stack [G,3,3] held in `cov_bytes`, all read-only: ext is the CUTOFF_SIGMA
    extent along the largest axis.

    The last stack is remembered because an appearance-only fit builds a
    Scene every iteration from the same covariances; those builds then run
    no eigvalsh or inv, and their scenes share these arrays.
    """
    cov = np.frombuffer(cov_bytes).reshape(-1, 3, 3)
    # extreme (even non-finite) values still construct; validate_scene
    # reports them and the renderer refuses singular covariances
    with np.errstate(over="ignore", invalid="ignore"):
        sym = 0.5 * (cov + np.transpose(cov, (0, 2, 1)))
        # LAPACK may fail to converge on non-finite input
        finite = np.isfinite(sym).all(axis=(1, 2))
        eig = np.linalg.eigvalsh(np.where(finite[:, None, None], sym, np.eye(3)))
        eig[~finite] = np.nan
        ext = CUTOFF_SIGMA * np.sqrt(eig[:, 2])
        singular = ~(eig[:, 0] >= MIN_EIGENVALUE)
        inv = np.linalg.inv(np.where(singular[:, None, None], np.eye(3), sym))
        inv = 0.5 * (inv + np.transpose(inv, (0, 2, 1)))
        inv[singular] = np.nan
    for a in (ext, singular, inv):
        a.flags.writeable = False
    return ext, singular, inv


@dataclass(frozen=True, eq=False)
class Scene:
    """G splats as read-only float64 arrays (layout in the module docstring).

    The constructor copies its inputs, checks their shapes and computes
    everything derived from one batched eigvalsh on the symmetrised
    covariance, which a scene of the same covariances built right after
    reuses (`_covariance_terms`):
      - bounds_min, bounds_max, center, radius: the CUTOFF_SIGMA scene bounds;
      - singular [G]: the covariance is singular (smallest eigenvalue below
        MIN_EIGENVALUE) or not finite; such a scene constructs,
        validate_scene reports it and the renderer refuses it;
      - cov_inv [G,3,3]: the symmetrised inverse of the symmetrised
        covariance, NaN where singular.
    """

    mu: np.ndarray
    cov: np.ndarray
    alpha: np.ndarray
    l_iso: np.ndarray
    l_aniso: np.ndarray
    normal: np.ndarray
    g: np.ndarray
    background: np.ndarray
    bounds_min: np.ndarray = field(init=False, repr=False)
    bounds_max: np.ndarray = field(init=False, repr=False)
    center: np.ndarray = field(init=False, repr=False)
    radius: float = field(init=False, repr=False)
    singular: np.ndarray = field(init=False, repr=False)
    cov_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if np.ndim(self.alpha) != 1:
            raise ValueError(f"alpha must be 1-D, got shape {np.shape(self.alpha)}")
        G = len(self.alpha)
        arrays = {}
        for name, shape in _SPLAT_SHAPES.items():
            arrays[name] = np.array(getattr(self, name), dtype=np.float64)
            if arrays[name].shape != (G,) + shape:
                raise ValueError(f"{name} must have shape {(G,) + shape}, "
                                 f"got {arrays[name].shape}")
        arrays["background"] = _vec3(self.background, "background")
        mu = arrays["mu"]
        ext, singular, inv = _covariance_terms(arrays["cov"].tobytes())
        with np.errstate(over="ignore", invalid="ignore"):
            if G == 0:
                lo = hi = center = np.zeros(3)
                radius = 0.0
            else:
                lo = (mu - ext[:, None]).min(axis=0)
                hi = (mu + ext[:, None]).max(axis=0)
                center = 0.5 * (lo + hi)
                radius = float(np.max(np.linalg.norm(mu - center, axis=1) + ext))
        arrays.update(bounds_min=lo, bounds_max=hi, center=center,
                      singular=singular, cov_inv=inv)
        for name, a in arrays.items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "radius", radius)


def validate_scene(s: Scene) -> list[str]:
    """Empty list iff valid; each entry names the primitive index and rule."""
    out = []
    if not np.all(np.isfinite(s.background)) or np.any(s.background < 0.0):
        out.append("background not finite and non-negative")
    with np.errstate(invalid="ignore", over="ignore"):
        cov_finite = np.isfinite(s.cov).all(axis=(1, 2))
        symmetric = (np.abs(s.cov - np.transpose(s.cov, (0, 2, 1)))
                     <= 1e-12).all(axis=(1, 2))
        rules = (
            ("mu not finite", ~np.isfinite(s.mu).all(axis=1)),
            ("cov not finite", ~cov_finite),
            ("cov not symmetric", cov_finite & ~symmetric),
            ("cov not positive-definite", cov_finite & symmetric & s.singular),
            ("alpha out of range", ~((s.alpha > 0.0) & (s.alpha <= 1.0))),
            ("l_iso out of range", ~((s.l_iso >= 0.0) & (s.l_iso <= 1.0)).all(axis=1)),
            ("l_aniso negative", ~(np.isfinite(s.l_aniso) & (s.l_aniso >= 0.0)).all(axis=1)),
            ("normal not unit", ~(np.abs(np.linalg.norm(s.normal, axis=1) - 1.0) <= 1e-9)),
            ("g out of range", ~((s.g > -1.0) & (s.g < 1.0))),
        )
    for i in np.flatnonzero(np.any([mask for _, mask in rules], axis=0)):
        out.extend(f"gaussian {i}: {msg}" for msg, mask in rules if mask[i])
    return out


def _normalize(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize zero vector")
    return v / n


@dataclass
class Camera:
    """Pinhole camera with an explicit orthonormal frame (right = forward x up)."""

    position: np.ndarray
    forward: np.ndarray
    up: np.ndarray
    right: np.ndarray
    fov_y: float
    width: int
    height: int
    near: float = 1e-3

    def __post_init__(self):
        self.position = _finite_vec3(self.position, "position")
        self.forward = _finite_vec3(self.forward, "forward")
        self.up = _finite_vec3(self.up, "up")
        self.right = _finite_vec3(self.right, "right")
        self.fov_y = float(self.fov_y)
        self.width = _integer(self.width, "width")
        self.height = _integer(self.height, "height")
        self.near = float(self.near)
        if not 0.0 < self.fov_y < math.pi:
            raise ValueError("fov_y must be in (0, pi)")
        if self.width < 1 or self.height < 1:
            raise ValueError("width and height must be >= 1")
        if not 0.0 < self.near < math.inf:
            raise ValueError("near must be > 0 and finite")
        # written so that a NaN fails each check
        for name, v in (("forward", self.forward), ("up", self.up), ("right", self.right)):
            if not abs(np.linalg.norm(v) - 1.0) <= 1e-9:
                raise ValueError(f"{name} must be unit length")
        if not (abs(self.forward @ self.up) <= 1e-9
                and np.max(np.abs(np.cross(self.forward, self.up) - self.right)) <= 1e-9):
            raise ValueError("camera frame must be orthonormal with right = forward x up")

    @classmethod
    def look_at(cls, position, target, fov_y: float, width: int, height: int,
                near: float = 1e-3) -> "Camera":
        """Camera at `position` looking at `target`, up chosen near world +z."""
        position = _vec3(position, "position")
        forward = _normalize(_vec3(target, "target") - position)
        axis = _WORLD_UP if np.linalg.norm(np.cross(forward, _WORLD_UP)) > 1e-6 else _WORLD_ALT
        right = _normalize(np.cross(forward, axis))
        up = np.cross(right, forward)
        return cls(position, forward, up, right, fov_y, width, height, near)

    def pixel_dirs(self, rows, cols):
        """Unit ray directions through pixel centers; broadcasts rows/cols.

        Returns (dx, dy, dz) arrays. This is the only place ray directions are
        computed, so scalar and tile paths agree bitwise.
        """
        rows = np.asarray(rows, dtype=np.float64)
        cols = np.asarray(cols, dtype=np.float64)
        u = (cols + 0.5) / self.width * 2.0 - 1.0
        v = 1.0 - (rows + 0.5) / self.height * 2.0
        t = math.tan(0.5 * self.fov_y)
        a = self.width / self.height * t
        dx = self.forward[0] + u * (a * self.right[0]) + v * (t * self.up[0])
        dy = self.forward[1] + u * (a * self.right[1]) + v * (t * self.up[1])
        dz = self.forward[2] + u * (a * self.right[2]) + v * (t * self.up[2])
        n = np.sqrt(dx * dx + dy * dy + dz * dz)
        return dx / n, dy / n, dz / n


def image_array(a) -> np.ndarray:
    """The H x W x C float64 array of an ImageBuffer or an array-like.

    A 2-D array reads as one channel. Raises ValueError unless C is 1 or 3
    and every value is finite.
    """
    arr = np.asarray(a.data if isinstance(a, ImageBuffer) else a, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise ValueError(f"image must be HxWx1 or HxWx3, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("image values must be finite")
    return arr


@dataclass
class ImageBuffer:
    """An image that passed `image_array`: H x W x C float64, C 1 or 3,
    every value finite. What it holds is up to the function that made it.
    `data` stays writable, so `image_array` checks it again on every read."""

    data: np.ndarray

    def __post_init__(self):
        self.data = image_array(self.data)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


def make_orbit_cameras(center, radius: float, n: int, elevation: float, mode: str,
                       width: int, height: int, fov_y: float, near: float = 1e-3) -> list[Camera]:
    """Cameras on an orbit around `center`, all looking at it.

    ring: n uniform azimuth steps at fixed `elevation` (radians above the xy
    plane). fibonacci_sphere: n Fibonacci-lattice directions covering the whole
    sphere; `elevation` is ignored in that mode.
    """
    center = _vec3(center, "center")
    if n < 1:
        raise ValueError("n must be >= 1")
    if radius <= 0.0:
        raise ValueError("radius must be > 0")
    dirs = []
    if mode == "ring":
        ce, se = math.cos(elevation), math.sin(elevation)
        for i in range(n):
            az = 2.0 * math.pi * i / n
            dirs.append(np.array([math.cos(az) * ce, math.sin(az) * ce, se]))
    elif mode == "fibonacci_sphere":
        golden = math.pi * (3.0 - math.sqrt(5.0))
        for i in range(n):
            z = 1.0 - (2.0 * i + 1.0) / n
            s = math.sqrt(max(1.0 - z * z, 0.0))
            dirs.append(np.array([math.cos(golden * i) * s, math.sin(golden * i) * s, z]))
    else:
        raise ValueError(f"unknown orbit mode {mode!r}")
    return [Camera.look_at(center + radius * d, center, fov_y, width, height, near)
            for d in dirs]


# ---------------------------------------------------------------------------
# Scene file format: UTF-8 JSON, background + gaussians, cov as upper triangle
# in order xx, xy, xz, yy, yz, zz. Unknown keys are rejected.

_GAUSSIAN_KEYS = tuple(_SPLAT_SHAPES)
# upper-triangle entries of a covariance, and the triangle index of each entry
_TRIU_ROWS, _TRIU_COLS = np.triu_indices(3)
_TRIU_OF = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def scene_to_json(scene: Scene) -> dict:
    cols = {"mu": scene.mu.tolist(),
            "cov": scene.cov[:, _TRIU_ROWS, _TRIU_COLS].tolist(),
            "alpha": scene.alpha.tolist(), "l_iso": scene.l_iso.tolist(),
            "l_aniso": scene.l_aniso.tolist(), "normal": scene.normal.tolist(),
            "g": scene.g.tolist()}
    return {
        "background": scene.background.tolist(),
        "gaussians": [dict(zip(cols, row)) for row in zip(*cols.values())],
    }


def _finite_number(v) -> bool:
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _require_floats(obj, n: int, where: str) -> list[float]:
    if not isinstance(obj, list) or len(obj) != n:
        raise SceneFormatError(f"{where} must be a list of {n} numbers")
    if not all(_finite_number(v) for v in obj):
        raise SceneFormatError(f"{where} must contain finite numbers")
    return [float(v) for v in obj]


def scene_from_json(obj) -> Scene:
    if not isinstance(obj, dict):
        raise SceneFormatError("scene file must hold a JSON object")
    unknown = set(obj) - {"background", "gaussians"}
    if unknown:
        raise SceneFormatError(f"unknown scene key {sorted(unknown)[0]!r}")
    if "background" not in obj or "gaussians" not in obj:
        raise SceneFormatError("scene file needs 'background' and 'gaussians'")
    background = _require_floats(obj["background"], 3, "background")
    if not isinstance(obj["gaussians"], list):
        raise SceneFormatError("'gaussians' must be a list")
    rows = {key: [] for key in _GAUSSIAN_KEYS}
    for i, entry in enumerate(obj["gaussians"]):
        where = f"gaussian {i}"
        if not isinstance(entry, dict):
            raise SceneFormatError(f"{where} must be an object")
        unknown = set(entry) - set(_GAUSSIAN_KEYS)
        if unknown:
            raise SceneFormatError(f"{where}: unknown key {sorted(unknown)[0]!r}")
        missing = set(_GAUSSIAN_KEYS) - set(entry)
        if missing:
            raise SceneFormatError(f"{where}: missing key {sorted(missing)[0]!r}")
        for key in _GAUSSIAN_KEYS:
            if key in ("alpha", "g"):
                if not _finite_number(entry[key]):
                    raise SceneFormatError(f"{where}: {key} must be a finite number")
                rows[key].append(float(entry[key]))
            else:
                n = 6 if key == "cov" else 3
                rows[key].append(_require_floats(entry[key], n, f"{where}: {key}"))
    G = len(obj["gaussians"])
    arrays = {key: np.array(v, dtype=np.float64).reshape((G,) + _SPLAT_SHAPES[key])
              for key, v in rows.items() if key != "cov"}
    triu = np.array(rows["cov"], dtype=np.float64).reshape(G, 6)
    scene = Scene(cov=triu[:, _TRIU_OF], background=np.array(background), **arrays)
    problems = validate_scene(scene)
    if problems:
        raise SceneFormatError("invalid scene: " + "; ".join(problems))
    return scene


def load_scene(path) -> Scene:
    return scene_from_json(parse_json(read_file(path, SceneFormatError),
                                      SceneFormatError, "scene file"))


def save_scene(path, scene: Scene) -> None:
    """Write the scene atomically: a failed write leaves `path` as it was."""
    text = json.dumps(scene_to_json(scene), indent=1) + "\n"
    atomic_write(path, text.encode("utf-8"))


def camera_to_doc(cam: Camera) -> dict:
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in vars(cam).items()}


def camera_from_doc(doc: dict) -> Camera:
    try:
        # as in a scene file; a misspelt "near" would fall back to its default
        unknown = set(doc) - {f.name for f in fields(Camera)}
        if unknown:
            raise ValueError(f"unknown camera key {sorted(unknown)[0]!r}")
        vals = {k: doc[k] for k in ("position", "forward", "up", "right", "fov_y")}
        vals["near"] = doc.get("near", 1e-3)
        # Camera would read "0.9" as 0.9 and true as 1.0, which a scene file
        # may not hold
        for key, v in vals.items():
            if not all(map(_finite_number, v if isinstance(v, list) else [v])):
                raise TypeError(f"{key} must hold finite numbers, got {v!r}")
        return Camera(width=doc["width"], height=doc["height"], **vals)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(f"bad camera JSON: {e}") from e


def load_camera_json(path: str) -> Camera:
    return camera_from_doc(parse_json(read_file(path, FormatError), FormatError,
                                      "camera file"))


def make_random_scene(n: int, seed: int, spread: float = 1.0,
                      sigma_range: tuple[float, float] = (0.008, 0.02),
                      alpha_range: tuple[float, float] = (0.3, 0.95),
                      aniso_max: float = 0.5,
                      background=(0.1, 0.1, 0.1)) -> Scene:
    """Seeded random scene: n splats in a ball of radius `spread`."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    mu = u * (spread * rng.uniform(0.0, 1.0, n) ** (1.0 / 3.0))[:, None]
    sig = rng.uniform(sigma_range[0], sigma_range[1], (n, 3)) * spread
    basis, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    cov = np.einsum("gij,gj,gkj->gik", basis, sig ** 2, basis)
    cov = 0.5 * (cov + np.transpose(cov, (0, 2, 1)))
    alpha = rng.uniform(alpha_range[0], alpha_range[1], n)
    l_iso = rng.uniform(0.05, 0.95, (n, 3))
    l_aniso = rng.uniform(0.0, aniso_max, (n, 3))
    nrm = rng.normal(size=(n, 3))
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    g = rng.uniform(-0.8, 0.8, n)
    return Scene(mu=mu, cov=cov, alpha=alpha, l_iso=l_iso, l_aniso=l_aniso,
                 normal=nrm, g=g, background=background)


def perturb_appearance(scene: Scene, seed: int, rel: float = 0.2) -> Scene:
    """Jitter every appearance parameter by a random relative factor in
    [1-rel, 1+rel]; geometry stays untouched and constrained values are
    clipped back into their legal ranges.

    The standard way to build a fit-recovery problem with known ground truth.
    Each splat draws its 8 factors in the order alpha, l_iso, l_aniso, g.
    """
    u = np.random.default_rng(seed).uniform(1.0 - rel, 1.0 + rel,
                                            (scene.alpha.size, 8))
    return replace(scene,
                   alpha=np.clip(scene.alpha * u[:, 0], 1e-4, 1.0),
                   l_iso=np.clip(scene.l_iso * u[:, 1:4], 0.0, 1.0),
                   l_aniso=scene.l_aniso * u[:, 4:7],
                   g=np.clip(scene.g * u[:, 7], -0.999, 0.999))
