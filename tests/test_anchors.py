"""Depth-gradient anchors: gradient op, suppression, sampling statistics."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from splat360 import (AnchorPoint, AnchorSet, anchor_set_to_json, depth_gradient,
                      sample_anchor_indices, select_anchors)


def test_gradient_constant_depth_zero():
    g = depth_gradient(np.full((5, 7), 3.2))
    assert np.all(g.data == 0.0)


def test_gradient_unit_ramp():
    d = np.tile(np.arange(8, dtype=float), (6, 1))
    g = depth_gradient(d).data[:, :, 0]
    assert np.allclose(g, 1.0, atol=1e-12)


def test_gradient_vertical_step():
    h = 2.5
    d = np.zeros((5, 9))
    d[:, 5:] = h
    g = depth_gradient(d).data[:, :, 0]
    # central difference spreads the step over the two adjacent columns
    assert np.allclose(g[:, 4], h / 2)
    assert np.allclose(g[:, 5], h / 2)
    assert np.all(g[:, :4] == 0.0) and np.all(g[:, 6:] == 0.0)


def test_gradient_transpose_symmetry():
    rng = np.random.default_rng(3)
    d = rng.random((6, 9))
    a = depth_gradient(d).data[:, :, 0]
    b = depth_gradient(d.T).data[:, :, 0]
    assert np.allclose(a.T, b, atol=1e-12)


def test_gradient_rejects_tiny_images():
    with pytest.raises(ValueError):
        depth_gradient(np.zeros((2, 5)))


def test_beta_zero_uniform_probs():
    rng = np.random.default_rng(0)
    g = rng.random((12, 12))
    aset = select_anchors(g, k=10, suppression_radius=2.0, beta=0.0)
    assert np.allclose(aset.probs, 0.1, atol=1e-15)


def test_two_anchor_softmin_oracle():
    g = np.zeros((3, 20))
    g[1, 15] = 1.0
    aset = select_anchors(g, k=2, suppression_radius=3.0, beta=1.0)
    # strongest anchor first; exp(-1) vs exp(0) split
    z = math.exp(0.0) + math.exp(-1.0)
    assert aset.anchors[0].grad_mag == 1.0
    assert aset.anchors[0].prob == pytest.approx(math.exp(-1.0) / z, abs=1e-12)
    assert aset.anchors[1].prob == pytest.approx(math.exp(0.0) / z, abs=1e-12)


def test_single_anchor_prob_one():
    aset = select_anchors(np.zeros((4, 4)), k=1, suppression_radius=0.0, beta=2.0)
    assert len(aset.anchors) == 1 and aset.anchors[0].prob == 1.0


def test_suppression_distance_enforced():
    rng = np.random.default_rng(9)
    g = rng.random((20, 20))
    r = 4.0
    aset = select_anchors(g, k=12, suppression_radius=r, beta=1.0)
    pts = [(a.row, a.col) for a in aset.anchors]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
            assert d >= r


def test_anchors_sorted_descending():
    rng = np.random.default_rng(14)
    g = rng.random((16, 16))
    aset = select_anchors(g, k=8, suppression_radius=1.5, beta=1.0)
    mags = [a.grad_mag for a in aset.anchors]
    assert mags == sorted(mags, reverse=True)


def test_tie_break_lexicographic():
    aset = select_anchors(np.zeros((5, 5)), k=3, suppression_radius=0.0, beta=1.0)
    assert [(a.row, a.col) for a in aset.anchors] == [(0, 0), (0, 1), (0, 2)]


def test_all_zero_gradient_uniform():
    aset = select_anchors(np.zeros((6, 6)), k=4, suppression_radius=2.0, beta=1.0)
    assert np.allclose(aset.probs, 0.25, atol=1e-15)


def test_k_zero_rejected():
    with pytest.raises(ValueError):
        select_anchors(np.zeros((4, 4)), k=0)


def test_multi_channel_gradient_rejected():
    g = np.random.default_rng(0).random((8, 8, 3))
    with pytest.raises(ValueError, match="single-channel"):
        select_anchors(g, k=3)
    with pytest.raises(ValueError, match="single-channel"):
        depth_gradient(g)


def _brute_force_anchors(g, k, radius):
    """The docstring's rule, pixel by pixel: visit by (magnitude desc, row,
    col) and keep a pixel at distance >= radius from every kept one."""
    H, W = g.shape
    kept = []
    for _, r, c in sorted((-g[r, c], r, c) for r in range(H) for c in range(W)):
        if all((r - kr) ** 2 + (c - kc) ** 2 >= radius * radius
               for kr, kc in kept):
            kept.append((r, c))
            if len(kept) == k:
                break
    return kept


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 12)),
                  elements=st.sampled_from([0.0, 0.25, 1.0, 3.5])),
       st.integers(1, 40),
       st.one_of(st.sampled_from([0.0, 1.0, math.sqrt(2.0), 2.0, 1e9, math.inf]),
                 st.floats(0.0, 20.0)))
@settings(max_examples=200, deadline=None)
def test_suppression_matches_brute_force(g, k, radius):
    aset = select_anchors(g, k=k, suppression_radius=radius, beta=1.0)
    assert [(a.row, a.col) for a in aset.anchors] == _brute_force_anchors(g, k, radius)
    assert [a.grad_mag for a in aset.anchors] == [g[a.row, a.col] for a in aset.anchors]


@st.composite
def _tied_maps(draw):
    # up to 24x24, magnitudes from a few levels so most pixels tie, radii
    # from none through the suppression default to past the image side
    H, W = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    levels = draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4))
    g = draw(hnp.arrays(np.float64, (H, W), elements=st.sampled_from(levels)))
    side = max(H, W)
    radius = draw(st.sampled_from([0.0, 0.5, 5.0, float(side), side + 0.5,
                                   2.0 * side, math.inf]))
    return g, draw(st.integers(1, 80)), radius


@given(_tied_maps())
@settings(max_examples=150, deadline=None)
def test_select_anchors_equals_a_plain_loop(case):
    # the padded map ORs one disc per kept anchor; the plain loop measures
    # every candidate's distance to every kept anchor
    g, k, radius = case
    aset = select_anchors(g, k=k, suppression_radius=radius, beta=1.0)
    assert [(a.row, a.col) for a in aset.anchors] == _brute_force_anchors(g, k, radius)
    assert [a.grad_mag for a in aset.anchors] == [g[a.row, a.col] for a in aset.anchors]


@given(st.integers(0, 10 ** 6), st.floats(-2.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_probs_normalized(seed, beta):
    g = np.random.default_rng(seed).random((10, 10)) * 3.0
    aset = select_anchors(g, k=7, suppression_radius=1.0, beta=beta)
    assert abs(float(aset.probs.sum()) - 1.0) < 1e-9


def test_beta_monotone_on_strongest():
    rng = np.random.default_rng(23)
    g = rng.random((14, 14)) * 2.0
    prev = None
    for beta in (0.0, 1.0, 2.0):
        aset = select_anchors(g, k=6, suppression_radius=2.0, beta=beta)
        p_top = aset.anchors[0].prob  # largest gradient magnitude
        if prev is not None:
            assert p_top <= prev + 1e-15
        prev = p_top


def test_single_anchor_always_drawn():
    aset = select_anchors(np.zeros((4, 4)), k=1, suppression_radius=0.0, beta=0.0)
    assert sample_anchor_indices(aset, 5, seed=1).tolist() == [0] * 5


def test_two_anchor_binomial_counts():
    g = np.zeros((3, 11))
    g[1, 8] = 1.0
    aset = select_anchors(g, k=2, suppression_radius=2.0, beta=0.0)
    n = 10000
    idx = sample_anchor_indices(aset, n, seed=7)
    c0 = int(np.sum(idx == 0))
    # three-sigma band around the fair-coin expectation
    slack = 3 * math.sqrt(n * 0.25)
    assert abs(c0 - n / 2) < slack


def test_sampling_deterministic():
    g = np.random.default_rng(2).random((8, 8))
    aset = select_anchors(g, k=5, suppression_radius=1.0, beta=1.0)
    a = sample_anchor_indices(aset, 100, seed=42)
    b = sample_anchor_indices(aset, 100, seed=42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_anchor_indices(aset, 100, seed=43))


@pytest.mark.parametrize("probs", [[0.5, 0.6], [float("nan"), 1.0],
                                   [1.0, float("nan")]])
def test_anchor_probs_must_sum_to_one(probs):
    with pytest.raises(ValueError, match="sum to 1"):
        AnchorSet([AnchorPoint(i, i, 1.0, p) for i, p in enumerate(probs)], 1.0)


def test_anchor_json_holds_every_anchor_bit_for_bit():
    g = np.random.default_rng(6).random((9, 9))
    aset = select_anchors(g, k=4, suppression_radius=1.0, beta=1.5)
    doc = json.loads(anchor_set_to_json(aset))
    assert doc["beta"] == aset.beta
    assert doc["anchors"] == [{"row": a.row, "col": a.col, "grad": a.grad_mag,
                               "prob": a.prob} for a in aset.anchors]
