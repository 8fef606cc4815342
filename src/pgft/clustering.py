"""Deterministic geometry clustering.

The decoder never receives cluster labels: it reruns the exact same
K-means on the shared voxel geometry.  Everything here is therefore
pinned down: farthest-point seeding from the lexicographically
smallest coordinate, first-index tie-breaks in `voxelize`'s canonical
(lexicographic) voxel order, and a fixed iteration cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pointcloud import VoxelizedFrame

MAX_LLOYD_ITERATIONS = 100


@dataclass(frozen=True)
class ClusterPartition:
    labels: np.ndarray         # (n,) int32 in [0, k)
    k: int
    cluster_sizes: np.ndarray  # (k,) int64
    centroids: np.ndarray      # (k, 3) float64

    @cached_property
    def _member_order(self):
        """A stable argsort of the labels, and where each cluster's run
        of it starts: one O(n log n) sort serves every cluster."""
        order = np.argsort(self.labels, kind="stable")
        return order, np.searchsorted(self.labels[order], np.arange(self.k + 1))

    def members(self, cluster_id: int) -> np.ndarray:
        """Indices of the cluster's points, in ascending order."""
        order, starts = self._member_order
        return order[starts[cluster_id]:starts[cluster_id + 1]].copy()


def _farthest_point_seeds(points: np.ndarray, k: int) -> np.ndarray:
    """Seed indices by farthest-point sampling.

    `points` must already be in canonical (lexicographic) order so that
    argmax's first-occurrence rule doubles as a lexicographic tie-break.
    """
    n = points.shape[0]
    seeds = np.empty(k, dtype=np.int64)
    seeds[0] = 0  # lexicographically smallest coordinate
    best = np.sum((points - points[0]) ** 2, axis=1)
    for i in range(1, k):
        seeds[i] = int(np.argmax(best))
        d = np.sum((points - points[seeds[i]]) ** 2, axis=1)
        np.minimum(best, d, out=best)
    return seeds


def cluster_count(voxels: int, target: int) -> int:
    """K = ceil(voxels / target), the number of clusters of a frame: what
    `kmeans_geometry` makes, and what the decoder checks a frame record
    against before it clusters."""
    return math.ceil(voxels / target)


def kmeans_geometry(frame: VoxelizedFrame, target_cluster_size: int) -> ClusterPartition:
    """Partition a frame's voxels into `cluster_count(n, target)` clusters.

    Work and memory grow with n * K (the assignment step holds an (n, K)
    distance array), so a decoder checks K against the stream first.
    Lloyd iterations run on 3D voxel coordinates until labels stop
    changing (or the iteration cap).  The voxels must be unique and in
    lexicographic order, the canonical order `voxelize` gives them:
    seeding and tie-breaks take the first index, and clusters are
    relabeled by their lexicographically smallest member.
    """
    coords = np.asarray(frame.voxel_coords, dtype=np.float64)
    n = coords.shape[0]
    if n == 0:
        raise ValueError("empty frame")
    k = cluster_count(n, target_cluster_size)

    seeds = _farthest_point_seeds(coords, k)
    centroids = coords[seeds].copy()

    x, y, z = (coords[:, j, None] for j in range(3))
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(MAX_LLOYD_ITERATIONS):
        # Assignment; argmin takes the lowest cluster id on ties.  The
        # (n, k) squared distances add x, y, z in the order a sum over a
        # length-3 axis does, so no (n, k, 3) array is needed.
        d2 = (x - centroids[:, 0]) ** 2
        d2 += (y - centroids[:, 1]) ** 2
        d2 += (z - centroids[:, 2]) ** 2
        new_labels = np.argmin(d2, axis=1)

        # Refill empty clusters with the point farthest from its centroid.
        sizes = np.bincount(new_labels, minlength=k)
        if np.any(sizes == 0):
            dist_to_own = d2[np.arange(n), new_labels]
            for cid in np.flatnonzero(sizes == 0):
                far = int(np.argmax(dist_to_own))
                new_labels[far] = cid
                dist_to_own[far] = -1.0  # don't steal the same point twice
            sizes = np.bincount(new_labels, minlength=k)

        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # Coordinates are integers, so these sums are exact in any order
        # and each centroid equals its members' mean bit for bit.
        centroids = np.stack([np.bincount(labels, weights=coords[:, j],
                                          minlength=k)
                              for j in range(3)], axis=1) / sizes[:, None]

    # Canonical relabeling: clusters ordered by lexicographically smallest
    # member (coords are lex-sorted, so that is the first occurrence).
    # The centroids and sizes above belong to the final labels.
    first_member = np.full(k, n, dtype=np.int64)
    np.minimum.at(first_member, labels, np.arange(n))
    canonical = np.argsort(first_member)  # old id of each canonical cluster
    relabel = np.empty(k, dtype=np.int64)
    relabel[canonical] = np.arange(k)

    return ClusterPartition(labels=relabel[labels].astype(np.int32), k=k,
                            cluster_sizes=sizes[canonical].astype(np.int64),
                            centroids=centroids[canonical])

