"""Depth-gradient anchor extraction and probability-weighted anchor sampling.

Anchors are greedy local maxima of the depth-gradient magnitude with
non-maximum suppression. Each anchor j carries probability
exp(-beta * grad_j) / sum_m exp(-beta * grad_m): positive beta literally
down-weights strong edges; beta < 0 is allowed and flips the preference.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .scene import ImageBuffer, image_array

DEFAULT_K = 64
DEFAULT_SUPPRESSION_RADIUS = 5.0
DEFAULT_BETA = 1.0


@dataclass
class AnchorPoint:
    row: int
    col: int
    grad_mag: float
    prob: float


@dataclass
class AnchorSet:
    anchors: tuple[AnchorPoint, ...]
    beta: float

    def __post_init__(self):
        self.anchors = tuple(self.anchors)
        probs = np.array([a.prob for a in self.anchors])
        if probs.size:
            if not ((probs >= 0).all() and abs(float(probs.sum()) - 1.0) <= 1e-9):
                raise ValueError("anchor probs must be nonnegative and sum to 1")

    @property
    def probs(self) -> np.ndarray:
        return np.array([a.prob for a in self.anchors])


def depth_gradient(depth) -> ImageBuffer:
    """Gradient-magnitude image of a single-channel depth map.

    Central differences in the interior, one-sided at the borders (unit pixel
    spacing), magnitude sqrt(Dx^2 + Dy^2).
    """
    d = image_array(depth)
    if d.shape[2] != 1:
        raise ValueError("depth_gradient expects a single-channel image")
    if d.shape[0] < 3 or d.shape[1] < 3:
        raise ValueError("depth image must be at least 3x3")
    plane = d[:, :, 0]
    dy = np.gradient(plane, axis=0)
    dx = np.gradient(plane, axis=1)
    mag = np.hypot(dx, dy)
    return ImageBuffer(mag[:, :, None])


def select_anchors(grad, k: int = DEFAULT_K,
                   suppression_radius: float = DEFAULT_SUPPRESSION_RADIUS,
                   beta: float = DEFAULT_BETA) -> AnchorSet:
    """Up to k suppressed gradient maxima with softmin probabilities.

    Candidates are visited in (magnitude desc, row, col) order; one is kept
    when it lies at least suppression_radius (Euclidean, pixels) from every
    anchor already kept.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if suppression_radius < 0:
        raise ValueError("suppression_radius must be >= 0")
    g = image_array(grad)
    if g.shape[2] != 1:
        raise ValueError("select_anchors expects a single-channel image")
    g = g[:, :, 0]
    H, W = g.shape
    # a stable sort keeps equal magnitudes in flat, i.e. (row, col), order
    rows, cols = np.divmod(np.argsort(-g.ravel(), kind="stable"), W)
    r2 = suppression_radius * suppression_radius
    # each kept anchor ORs the disc of offsets within the radius (the integer
    # test dr^2 + dc^2 < r2) into `blocked`, padded by `reach` on every side
    # so the disc never needs clipping, and a candidate costs one lookup; no
    # offset larger than `reach` passes that test
    side = max(H, W)
    reach = math.ceil(suppression_radius) if suppression_radius < side else side
    d = np.arange(-reach, reach + 1)
    disc = d[:, None] * d[:, None] + d * d < r2
    span = d.size
    blocked = np.zeros((H + 2 * reach, W + 2 * reach), dtype=bool)
    sel_r: list[int] = []
    sel_c: list[int] = []
    sel_g: list[float] = []
    for rr, cc in zip(rows.tolist(), cols.tolist()):
        if blocked[rr + reach, cc + reach]:
            continue
        sel_r.append(rr)
        sel_c.append(cc)
        sel_g.append(float(g[rr, cc]))
        if len(sel_r) == k:
            break
        blocked[rr:rr + span, cc:cc + span] |= disc
    gv = np.array(sel_g)
    x = -beta * gv
    e = np.exp(x - x.max())
    probs = e / e.sum()
    anchors = tuple(AnchorPoint(r, c, gm, float(p))
                    for r, c, gm, p in zip(sel_r, sel_c, gv, probs))
    return AnchorSet(anchors, float(beta))


def sample_anchor_indices(aset: AnchorSet, n: int,
                          seed: int | np.random.Generator) -> np.ndarray:
    """n anchor indices drawn i.i.d. by inverse CDF over the stored order.

    `seed` may be a Generator, which is drawn from in place.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not aset.anchors:
        raise ValueError("anchor set is empty")
    cum = np.cumsum(aset.probs)
    cum[-1] = 1.0
    u = np.random.default_rng(seed).random(n)
    return np.minimum(np.searchsorted(cum, u, side="right"),
                      len(aset.anchors) - 1)


def anchor_set_to_json(aset: AnchorSet) -> str:
    doc = {
        "anchors": [{"row": a.row, "col": a.col, "grad": a.grad_mag,
                     "prob": a.prob} for a in aset.anchors],
        "beta": aset.beta,
    }
    return json.dumps(doc, indent=1) + "\n"

