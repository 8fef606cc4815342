import numpy as np
import pytest

import pgft.clustering as clustering
from pgft.clustering import kmeans_geometry
from pgft.pointcloud import (RawPointCloud, VoxelizedFrame,
                             sequence_bounding_box, voxelize)
from reference import kmeans_loops, within_cluster_cost


def _frame(coords):
    """A frame of the unique `coords` in lexicographic order, the
    canonical voxel order `voxelize` gives and k-means takes."""
    coords = np.unique(np.asarray(coords, dtype=np.int32), axis=0)
    n = coords.shape[0]
    return VoxelizedFrame(voxel_coords=coords, attributes=np.zeros((n, 3)),
                          point_map=np.arange(n, dtype=np.int64))


def _two_blobs(rng, n_per=600, sep=200):
    a = rng.integers(0, 20, size=(n_per, 3))
    b = rng.integers(0, 20, size=(n_per, 3)) + sep
    coords = np.unique(np.vstack([a, b]), axis=0)
    return coords, coords[:, 0] >= sep // 2


def test_single_cluster():
    rng = np.random.default_rng(0)
    coords = np.unique(rng.integers(0, 100, size=(700, 3)), axis=0)[:600]
    part = kmeans_geometry(_frame(coords), 600)
    assert part.k == 1
    assert np.all(part.labels == 0)


def test_two_separated_blobs():
    rng = np.random.default_rng(1)
    coords, in_b = _two_blobs(rng)
    part = kmeans_geometry(_frame(coords), 600)
    assert part.k == 2
    # each blob must be exactly one cluster
    labels_a = set(part.labels[~in_b])
    labels_b = set(part.labels[in_b])
    assert len(labels_a) == 1 and len(labels_b) == 1 and labels_a != labels_b
    # and the partition cost equals the ideal blob partition cost
    pts = coords.astype(np.float64)
    ideal = np.zeros((2, 3))
    ideal[0] = pts[~in_b].mean(axis=0)
    ideal[1] = pts[in_b].mean(axis=0)
    ideal_cost = (np.sum((pts[~in_b] - ideal[0]) ** 2)
                  + np.sum((pts[in_b] - ideal[1]) ** 2))
    got = within_cluster_cost(pts, part.labels, part.centroids)
    assert got == pytest.approx(ideal_cost, rel=1e-12)


def test_ceil_rule_and_no_empty_cluster():
    rng = np.random.default_rng(2)
    coords = np.unique(rng.integers(0, 40, size=(800, 3)), axis=0)[:601]
    part = kmeans_geometry(_frame(coords), 600)
    assert part.k == 2
    assert np.all(part.cluster_sizes >= 1)
    assert part.cluster_sizes.sum() == 601


def test_determinism():
    rng = np.random.default_rng(3)
    coords = np.unique(rng.integers(0, 60, size=(900, 3)), axis=0)
    a = kmeans_geometry(_frame(coords), 200)
    b = kmeans_geometry(_frame(coords), 200)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)


def test_permutation_invariance():
    """The input point order reaches k-means only through `voxelize`,
    whose canonical voxel order gives every point the same cluster
    under any permutation of the input."""
    rng = np.random.default_rng(4)
    pos = rng.uniform(0, 60, size=(900, 3))
    col = np.zeros((900, 3), dtype=np.uint8)
    box = sequence_bounding_box(RawPointCloud(pos, col))
    frame = voxelize(RawPointCloud(pos, col), 64, box)
    part = kmeans_geometry(frame, 150)
    perm = rng.permutation(900)
    frame_p = voxelize(RawPointCloud(pos[perm], col[perm]), 64, box)
    part_p = kmeans_geometry(frame_p, 150)
    assert part.k > 1
    assert np.array_equal(part.labels[frame.point_map][perm],
                          part_p.labels[frame_p.point_map])


def test_lloyd_cost_monotone(monkeypatch):
    """Capping the iteration count earlier can never yield a lower cost:
    each Lloyd iteration is non-increasing."""
    rng = np.random.default_rng(5)
    coords = np.unique(rng.integers(0, 50, size=(700, 3)), axis=0)
    pts = coords.astype(np.float64)
    costs = []
    for cap in range(1, 8):
        monkeypatch.setattr(clustering, "MAX_LLOYD_ITERATIONS", cap)
        part = kmeans_geometry(_frame(coords), 120)
        costs.append(within_cluster_cost(pts, part.labels, part.centroids))
    assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))


@pytest.mark.parametrize("grid", [8, 64, 4096])
def test_matches_loop_reference_exactly(grid):
    """Integer coordinates make the vectorized centroid sums exact, so
    labels, sizes and centroids equal the loop version bit for bit."""
    rng = np.random.default_rng(grid)
    for _ in range(10):
        n = int(rng.integers(1, 1500))
        coords = np.unique(rng.integers(0, grid, size=(n, 3)), axis=0)
        rng.shuffle(coords)
        target = int(rng.choice([1, 7, 50, 600]))
        part = kmeans_geometry(_frame(coords), target)
        labels, sizes, centroids = kmeans_loops(coords, target)
        assert np.array_equal(part.labels, labels)
        assert np.array_equal(part.cluster_sizes, sizes)
        assert part.centroids.tobytes() == centroids.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_matches_loop_reference_when_clusters_empty(monkeypatch, seed):
    """Repeated seeds give coinciding centroids; argmin sends every tie to
    the lowest id, so the others start empty and are refilled."""
    rng = np.random.default_rng(seed)
    coords = np.unique(rng.integers(0, 6, size=(300, 3)), axis=0)
    rng.shuffle(coords)
    target = int(rng.choice([10, 30, 60]))
    farthest = clustering._farthest_point_seeds

    def repeated_seeds(points, k):
        seeds = farthest(points, k)
        seeds[1::2] = seeds[::2][:len(seeds[1::2])]
        return seeds

    monkeypatch.setattr(clustering, "_farthest_point_seeds", repeated_seeds)
    part = kmeans_geometry(_frame(coords), target)
    refilled = []
    labels, sizes, centroids = kmeans_loops(coords, target, refilled=refilled)
    assert refilled
    assert np.array_equal(part.labels, labels)
    assert np.array_equal(part.cluster_sizes, sizes)
    assert part.centroids.tobytes() == centroids.tobytes()


def test_empty_frame():
    with pytest.raises(ValueError, match="empty frame"):
        kmeans_geometry(_frame(np.empty((0, 3), dtype=np.int32)), 600)
