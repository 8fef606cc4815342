import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from pgft import motion
from pgft.clustering import kmeans_geometry
from pgft.codec import BOX_EXPAND, reference_index
from pgft.motion import (_nearest_lowest_index, find_correspondence,
                         icp_register)
from pgft.pointcloud import (SequenceConfig, bounding_box,
                             sequence_bounding_box, voxelize)
from pgft.synth import synthetic_sequence
from reference import (brute_force_nearest, icp_two_step_correspondence,
                       nearest_lowest_index_loop)


def _rotation_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _assert_rigid(rotation):
    assert np.max(np.abs(rotation.T @ rotation - np.eye(3))) < 1e-9
    assert abs(np.linalg.det(rotation) - 1.0) < 1e-9


def test_expand_box_identity():
    lo, hi = bounding_box([np.zeros(3), np.ones(3)], 0.0)
    assert np.allclose(lo, 0.0)
    assert np.allclose(hi, 1.0)


def test_expand_box_unit_cube_delta_3():
    lo, hi = bounding_box([np.zeros(3), np.ones(3)], 3.0)
    assert np.allclose(lo, [-1.5] * 3)
    assert np.allclose(hi, [2.5] * 3)


def test_expand_box_degenerate_point():
    p = np.array([2.0, 3.0, 4.0])
    lo, hi = bounding_box([p], 5.0)
    assert np.allclose(lo, p)
    assert np.allclose(hi, p)


def test_icp_already_aligned():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 30, size=(150, 3))
    rotation, translation, _ = icp_register(pts, pts)
    _assert_rigid(rotation)
    assert np.max(np.abs(rotation - np.eye(3))) < 1e-9
    assert np.max(np.abs(translation)) < 1e-9


def test_icp_recovers_translation():
    rng = np.random.default_rng(1)
    target = rng.uniform(0, 50, size=(100, 3))
    source = target + np.array([5.0, 0.0, 0.0])
    rotation, translation, _ = icp_register(source, target)
    _assert_rigid(rotation)
    assert np.max(np.abs(translation - [-5.0, 0.0, 0.0])) < 1e-6
    assert np.max(np.abs(rotation - np.eye(3))) < 1e-6
    # the pair maps source onto target as p @ rotation.T + translation
    assert np.max(np.abs(source @ rotation.T + translation - target)) < 1e-6


def test_icp_recovers_rotation():
    rng = np.random.default_rng(2)
    target = rng.uniform(-20, 20, size=(200, 3))
    angle = math.radians(10.0)
    source = target @ _rotation_z(angle).T
    rotation, _, _ = icp_register(source, target)
    _assert_rigid(rotation)
    # recovered rotation should invert the applied one
    residual = rotation @ _rotation_z(angle)
    recovered_angle = math.acos(min(1.0, (np.trace(residual) - 1.0) / 2.0))
    assert recovered_angle < 1e-4


def test_icp_degenerate_returns_identity():
    line = np.stack([np.linspace(0, 5, 7)] * 3, axis=1)  # collinear
    target = np.random.default_rng(3).uniform(0, 5, size=(50, 3))
    rotation, translation, _ = icp_register(line, target)
    assert np.array_equal(rotation, np.eye(3))
    assert np.array_equal(translation, np.zeros(3))
    rotation, translation, _ = icp_register(target[:2], target)  # too few points
    assert np.array_equal(rotation, np.eye(3))
    assert np.array_equal(translation, np.zeros(3))


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


def test_icp_builds_one_tree(monkeypatch):
    """One KD-tree over the unmoved source serves every iteration, and
    the single matching of a degenerate input."""
    built = []

    def counting(points):
        built.append(points)
        return cKDTree(points)

    monkeypatch.setattr(motion, "_tree", counting)
    rng = np.random.default_rng(9)
    target = rng.uniform(0, 40, size=(200, 3))
    source = target @ _rotation_z(0.2).T + [3.0, 1.0, -2.0]
    line = np.stack([np.linspace(0, 5, 7)] * 3, axis=1)
    for src, tgt in ((source, target), (line, target), (target[:2], target)):
        built.clear()
        icp_register(src, tgt)
        assert len(built) == 1
        assert np.array_equal(built[0], src)


def _p_cluster_searches(kind, seed):
    """(points, previous frame's voxel coordinates) of every cluster of
    frame 1 of a `kind` sequence, as a P-frame's motion search sees
    them."""
    frames = synthetic_sequence(kind, 2, point_count=6000, seed=seed)
    box = sequence_bounding_box(frames[0])
    prev, cur = (voxelize(raw, 256, box) for raw in frames)
    partition = kmeans_geometry(cur, SequenceConfig().target_cluster_size)
    for cid in range(partition.k):
        pts = cur.voxel_coords[partition.members(cid)].astype(np.float64)
        yield pts, prev.voxel_coords


@pytest.mark.parametrize("kind", ["rigid-motion", "wave"])
@pytest.mark.parametrize("seed", [0, 5])
def test_reference_index_matches_two_step_search(kind, seed):
    """ICP's last matching of the moved cluster gives the same
    references as moving the region and searching it a second time."""
    for pts, prev_coords in _p_cluster_searches(kind, seed):
        lo, hi = bounding_box(pts, BOX_EXPAND)
        region = np.flatnonzero(np.all((prev_coords >= lo)
                                       & (prev_coords <= hi), axis=1))
        expected = icp_two_step_correspondence(prev_coords[region], pts)
        assert np.array_equal(reference_index(pts, prev_coords),
                              region[expected])


@pytest.mark.parametrize("max_iter", [motion.ICP_MAX_ITER, 3])
def test_icp_index_matches_two_step_search_on_grid(monkeypatch, max_iter):
    """On a static integer grid every distance is a sum of squared
    integers, so ties abound.  The rotated target needs more than 3
    refits, so the low cap ends the search on the cap."""
    monkeypatch.setattr(motion, "ICP_MAX_ITER", max_iter)
    grid = np.stack(np.meshgrid(*[np.arange(10.0)] * 3, indexing="ij"),
                    axis=-1).reshape(-1, 3)
    rng = np.random.default_rng(11)
    for target in (grid[rng.permutation(len(grid))[:300]],
                   grid[:, [2, 0, 1]][::3], grid[::7] + [0.5, 0.0, 0.0],
                   grid[::5] @ _rotation_z(0.3).T + [0.5, 0.3, 0.0]):
        assert np.array_equal(icp_register(grid, target)[2],
                              icp_two_step_correspondence(grid, target))


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
    """The loop oracle's result on a balanced tree, on ICP's
    sliding-midpoint tree and on the deepest such tree."""
    ref_d2, ref_idx = nearest_lowest_index_loop(tree_pts, queries)
    for tree in (cKDTree(tree_pts), motion._tree(tree_pts),
                 cKDTree(tree_pts, leafsize=1, balanced_tree=False,
                         compact_nodes=False)):
        d2, idx = _nearest_lowest_index(tree, tree_pts, queries)
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
