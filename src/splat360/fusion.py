"""Camera embedding and the small fusion MLP with exact analytic gradients.

The MLP maps one row of `fusion_input`, concat(iso_sum, aniso_sum,
camera_embedding, ray_dir), a (9+d)-vector, through two ReLU layers of width
32 to a sigmoid RGB output. Forward affine layers accumulate sequentially
over input features, so a ray's output never depends on how rays are batched
(same bit-determinism contract as the compositing kernel).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParamsFormatError
from .imgfile import atomic_write, read_header
from .scene import Camera

EMBED_USED = 13
HIDDEN = 32


def embed_camera(cam: Camera, scene_center, scene_radius: float,
                 d: int = 16) -> np.ndarray:
    """Normalized pose vector [d]: position (radius units, clamped), frame, fov.

    Layout: [(position-center)/radius clamped to [-1,1] (3), forward (3),
    up (3), right (3), fov_y/pi (1), zero padding to d].
    """
    if d < EMBED_USED:
        raise ValueError(f"d must be >= {EMBED_USED}")
    if not scene_radius > 0:
        raise ValueError("scene_radius must be > 0")
    center = np.asarray(scene_center, dtype=np.float64).reshape(3)
    rel = np.clip((cam.position - center) / scene_radius, -1.0, 1.0)
    vec = np.zeros(d)
    vec[0:3] = rel
    vec[3:6] = cam.forward
    vec[6:9] = cam.up
    vec[9:12] = cam.right
    vec[12] = cam.fov_y / math.pi
    return vec


@dataclass
class MlpParams:
    d: int
    seed: int
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        self.d = int(self.d)
        self.seed = int(self.seed)
        self.weights = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        self.biases = tuple(np.asarray(b, dtype=np.float64) for b in self.biases)
        sizes = self.layer_sizes
        if len(self.weights) != 3 or len(self.biases) != 3:
            raise ValueError("expected 3 weight matrices and 3 bias vectors")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i + 1], sizes[i]):
                raise ValueError(
                    f"layer {i}: weight shape {w.shape} != {(sizes[i + 1], sizes[i])}")
            if b.shape != (sizes[i + 1],):
                raise ValueError(f"layer {i}: bias shape {b.shape}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i}: non-finite parameters")

    @property
    def layer_sizes(self) -> list[int]:
        return [9 + self.d, HIDDEN, HIDDEN, 3]

    def to_flat(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    def with_flat(self, flat: np.ndarray) -> "MlpParams":
        sizes = self.layer_sizes
        ws, bs, pos = [], [], 0
        for i in range(3):
            n = sizes[i + 1] * sizes[i]
            ws.append(flat[pos:pos + n].reshape(sizes[i + 1], sizes[i]).copy())
            pos += n
            bs.append(flat[pos:pos + sizes[i + 1]].copy())
            pos += sizes[i + 1]
        if pos != flat.size:
            raise ValueError(f"flat vector has {flat.size} values, need {pos}")
        return MlpParams(self.d, self.seed, tuple(ws), tuple(bs))


def init_mlp(d: int = 16, seed: int = 0) -> MlpParams:
    """Uniform Glorot weights (+-sqrt(6/(fan_in+fan_out))), zero biases."""
    if d < EMBED_USED:
        raise ValueError(f"d must be >= {EMBED_USED}")
    rng = np.random.default_rng(seed)
    sizes = [9 + d, HIDDEN, HIDDEN, 3]
    ws, bs = [], []
    for i in range(3):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        ws.append(rng.uniform(-lim, lim, size=(fan_out, fan_in)))
        bs.append(np.zeros(fan_out))
    return MlpParams(d, seed, tuple(ws), tuple(bs))


def _affine(XT: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(b + X W^T)^T from X^T, accumulated sequentially over input features.

    Transposed, each step scales one contiguous input row by one weight per
    output row.
    """
    out = np.empty((b.size, XT.shape[1]))
    out[:] = b[:, None]
    tmp = np.empty_like(out)
    for k in range(W.shape[1]):
        np.multiply(W[:, k, None], XT[k], out=tmp)
        out += tmp
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, the
    # exponent never positive, so neither form overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def fuse_forward_batch(X: np.ndarray, params: MlpParams, want_cache: bool = False):
    """Sigmoid RGB for a batch of concatenated inputs [N, 9+d]."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != 9 + params.d:
        raise ValueError(f"input must be [N, {9 + params.d}]")
    w1, w2, w3 = params.weights
    b1, b2, b3 = params.biases
    # layers run on [features, N]; rows are rays again on the way out
    z1 = _affine(np.ascontiguousarray(X.T), w1, b1)
    a1 = np.maximum(z1, 0.0)
    z2 = _affine(a1, w2, b2)
    a2 = np.maximum(z2, 0.0)
    out = np.ascontiguousarray(_sigmoid(_affine(a2, w3, b3)).T)
    if want_cache:
        rows = (np.ascontiguousarray(v.T) for v in (z1, a1, z2, a2))
        return out, (X, *rows, out)
    return out


def fuse_backward_batch(cache, params: MlpParams, upstream: np.ndarray):
    """Reverse pass: (param gradients summed over the batch, input grads [N, 9+d]).

    ReLU subgradient at exactly 0 is taken as 0.
    """
    X, z1, a1, z2, a2, out = cache
    w1, w2, w3 = params.weights
    dz3 = np.asarray(upstream, dtype=np.float64) * out * (1.0 - out)
    dw3 = dz3.T @ a2
    db3 = dz3.sum(axis=0)
    da2 = dz3 @ w3
    dz2 = np.where(z2 > 0.0, da2, 0.0)
    dw2 = dz2.T @ a1
    db2 = dz2.sum(axis=0)
    da1 = dz2 @ w2
    dz1 = np.where(z1 > 0.0, da1, 0.0)
    dw1 = dz1.T @ X
    db1 = dz1.sum(axis=0)
    dX = dz1 @ w1
    grads = MlpParams(params.d, params.seed, (dw1, dw2, dw3), (db1, db2, db3))
    return grads, dX


def fusion_input(iso, aniso, e_vec: np.ndarray, dirs) -> np.ndarray:
    """MLP input rows [N, 9+d]: isotropic sum, anisotropic sum, camera
    embedding, ray direction. iso, aniso and dirs hold 3 values per ray."""
    iso = np.asarray(iso, dtype=np.float64).reshape(-1, 3)
    aniso = np.asarray(aniso, dtype=np.float64).reshape(-1, 3)
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    e_rows = np.broadcast_to(e_vec, (dirs.shape[0], e_vec.size))
    return np.concatenate([iso, aniso, e_rows, dirs], axis=1)


def save_mlp(path: str, params: MlpParams) -> None:
    sizes = " ".join(str(s) for s in params.layer_sizes)
    header = f"layers={sizes}\nd={params.d}\nseed={params.seed}\n"
    payload = header.encode("utf-8") + params.to_flat().astype("<f8").tobytes()
    atomic_write(path, payload)


def load_mlp(path: str) -> MlpParams:
    fields, body = read_header(path, ("layers", "d", "seed"), ParamsFormatError,
                               payload=True)
    try:
        layers = [int(t) for t in fields["layers"].split()]
        d = int(fields["d"])
        seed = int(fields["seed"])
    except ValueError as e:
        raise ParamsFormatError(f"bad params header value: {e}") from e
    if layers != [9 + d, HIDDEN, HIDDEN, 3]:
        raise ParamsFormatError(f"unsupported layer sizes {layers}")
    need = 8 * sum(n * m + n for m, n in zip(layers, layers[1:]))
    if len(body) != need:
        raise ParamsFormatError(
            f"params payload has {len(body)} bytes, layers {layers} need {need}")
    try:
        return init_mlp(d=d, seed=seed).with_flat(
            np.frombuffer(body, dtype="<f8").astype(np.float64))
    except ValueError as e:
        raise ParamsFormatError(str(e)) from e
