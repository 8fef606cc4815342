import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from pgft import motion
from pgft.motion import (BoundingBox, _nearest_lowest_index, expand_box,
                         find_correspondence, icp_register)
from reference import brute_force_nearest, nearest_lowest_index_loop


def _rotation_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _assert_rigid(tr):
    assert np.max(np.abs(tr.rotation.T @ tr.rotation - np.eye(3))) < 1e-9
    assert abs(np.linalg.det(tr.rotation) - 1.0) < 1e-9


def test_expand_box_identity():
    box = BoundingBox(np.zeros(3), np.ones(3))
    out = expand_box(box, 0.0)
    assert np.allclose(out.min_corner, 0.0)
    assert np.allclose(out.max_corner, 1.0)


def test_expand_box_unit_cube_delta_3():
    out = expand_box(BoundingBox(np.zeros(3), np.ones(3)), 3.0)
    assert np.allclose(out.min_corner, [-1.5] * 3)
    assert np.allclose(out.max_corner, [2.5] * 3)


def test_expand_box_degenerate_point():
    p = np.array([2.0, 3.0, 4.0])
    out = expand_box(BoundingBox(p, p), 5.0)
    assert np.allclose(out.min_corner, p)
    assert np.allclose(out.max_corner, p)


def test_icp_already_aligned():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 30, size=(150, 3))
    tr = icp_register(pts, pts)
    _assert_rigid(tr)
    assert np.max(np.abs(tr.rotation - np.eye(3))) < 1e-9
    assert np.max(np.abs(tr.translation)) < 1e-9


def test_icp_recovers_translation():
    rng = np.random.default_rng(1)
    target = rng.uniform(0, 50, size=(100, 3))
    source = target + np.array([5.0, 0.0, 0.0])
    tr = icp_register(source, target)
    _assert_rigid(tr)
    assert np.max(np.abs(tr.translation - [-5.0, 0.0, 0.0])) < 1e-6
    assert np.max(np.abs(tr.rotation - np.eye(3))) < 1e-6


def test_icp_recovers_rotation():
    rng = np.random.default_rng(2)
    target = rng.uniform(-20, 20, size=(200, 3))
    angle = math.radians(10.0)
    source = target @ _rotation_z(angle).T
    tr = icp_register(source, target)
    _assert_rigid(tr)
    # recovered rotation should invert the applied one
    residual = tr.rotation @ _rotation_z(angle)
    recovered_angle = math.acos(min(1.0, (np.trace(residual) - 1.0) / 2.0))
    assert recovered_angle < 1e-4


def test_icp_degenerate_returns_identity():
    line = np.stack([np.linspace(0, 5, 7)] * 3, axis=1)  # collinear
    target = np.random.default_rng(3).uniform(0, 5, size=(50, 3))
    tr = icp_register(line, target)
    assert np.array_equal(tr.rotation, np.eye(3))
    assert np.array_equal(tr.translation, np.zeros(3))
    tr = icp_register(target[:2], target)  # too few points
    assert np.array_equal(tr.rotation, np.eye(3))


def test_icp_residual_non_increasing(monkeypatch):
    rng = np.random.default_rng(4)
    target = rng.uniform(0, 40, size=(300, 3))
    source = (target @ _rotation_z(0.3).T + [4.0, -2.0, 1.0]
              + rng.normal(scale=0.05, size=(300, 3)))
    history = []

    def recording(tree, tree_points, queries):
        d2, idx = _nearest_lowest_index(tree, tree_points, queries)
        history.append(float(np.mean(d2)))
        return d2, idx

    monkeypatch.setattr(motion, "_nearest_lowest_index", recording)
    icp_register(source, target)
    assert len(history) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def test_icp_empty_input():
    with pytest.raises(ValueError):
        icp_register(np.empty((0, 3)), np.ones((5, 3)))


def test_correspondence_exact_copy():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 100, size=(200, 3))
    ref_index = find_correspondence(pts, pts)
    assert ref_index.dtype == np.int64
    assert np.array_equal(ref_index, np.arange(200))


def test_correspondence_many_to_one():
    cluster = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    ref = np.array([[0.4, 0.0, 0.0]])
    assert np.array_equal(find_correspondence(cluster, ref), [0, 0])


def test_correspondence_matches_brute_force():
    rng = np.random.default_rng(6)
    cluster = rng.uniform(0, 50, size=(500, 3))
    ref = rng.uniform(0, 50, size=(700, 3))
    assert np.array_equal(find_correspondence(cluster, ref),
                          brute_force_nearest(cluster, ref))


def test_correspondence_tie_break_lowest_index():
    # integer coordinates force exact distance ties
    cluster = np.array([[0.0, 0.0, 0.0]])
    ref = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert find_correspondence(cluster, ref)[0] == 0
    rng = np.random.default_rng(7)
    cluster = rng.integers(0, 6, size=(100, 3)).astype(np.float64)
    ref = rng.integers(0, 6, size=(80, 3)).astype(np.float64)
    assert np.array_equal(find_correspondence(cluster, ref),
                          brute_force_nearest(cluster, ref))


def test_correspondence_empty_reference():
    with pytest.raises(ValueError, match="no reference candidates"):
        find_correspondence(np.ones((3, 3)), np.empty((0, 3)))


def _assert_same_nearest(tree_pts, queries):
    d2, idx = _nearest_lowest_index(cKDTree(tree_pts), tree_pts, queries)
    ref_d2, ref_idx = nearest_lowest_index_loop(tree_pts, queries)
    assert idx.dtype == np.int64
    assert np.array_equal(idx, ref_idx)
    assert d2.dtype == np.float64
    assert d2.tobytes() == ref_d2.tobytes()


_grid_points = st.lists(st.tuples(*[st.integers(0, 4)] * 3), max_size=40)


@given(tree=_grid_points.filter(len), queries=_grid_points,
       copies=st.lists(st.integers(0, 10**6), max_size=10),
       angle=st.sampled_from([0.0, 1e-3, 0.3]))
@settings(max_examples=150, deadline=None)
def test_nearest_lowest_index_matches_loop(tree, queries, copies, angle):
    """Integer grids force ties and duplicates; a rotated tree gives
    non-integer coordinates and near-ties, as in ICP's registered
    points; some queries coincide with tree points."""
    tree_pts = np.array(tree, dtype=np.float64) @ _rotation_z(angle).T
    queries = np.array(queries, dtype=np.float64).reshape(-1, 3)
    queries = np.vstack([queries, tree_pts[[c % len(tree) for c in copies]]])
    _assert_same_nearest(tree_pts, queries)


@given(tree=st.lists(st.tuples(*[st.floats(-1e3, 1e3)] * 3), min_size=1,
                     max_size=30),
       queries=st.lists(st.tuples(*[st.floats(-1e3, 1e3)] * 3), max_size=30))
@settings(max_examples=100, deadline=None)
def test_nearest_lowest_index_matches_loop_floats(tree, queries):
    _assert_same_nearest(np.array(tree, dtype=np.float64),
                         np.array(queries, dtype=np.float64).reshape(-1, 3))


def test_nearest_lowest_index_single_point_tree():
    # k=2 on a 1-point tree reports the missing neighbour as (inf, n)
    tree_pts = np.array([[0.5, 1.0, 2.0]])
    queries = np.array([[0.5, 1.0, 2.0], [3.0, -1.0, 0.0], [0.5, 1.0, 2.5]])
    _assert_same_nearest(tree_pts, queries)
    d2, idx = _nearest_lowest_index(cKDTree(tree_pts), tree_pts, queries)
    assert np.array_equal(idx, [0, 0, 0])
    assert np.array_equal(d2, [0.0, 14.25, 0.25])


def test_nearest_lowest_index_duplicates_pick_lowest():
    tree_pts = np.array([[1.0, 0, 0], [2.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    queries = np.array([[1.0, 0, 0], [2.0, 0, 0], [1.5, 0, 0], [9.0, 0, 0]])
    d2, idx = _nearest_lowest_index(cKDTree(tree_pts), tree_pts, queries)
    assert np.array_equal(idx, [0, 1, 0, 1])
    assert np.array_equal(d2, [0.0, 0.0, 0.25, 49.0])
    _assert_same_nearest(tree_pts, queries)
