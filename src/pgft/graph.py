"""Intra-cluster graph construction.

Edges connect points within an epsilon ball; weights come from a
Gaussian kernel of the sine of the angle between the two point normals,
w = exp(-sin(theta)^2 / SIGMA_SQ).  sin(theta) is taken as the norm of
the cross product of the unit normals, which makes the weight invariant
to normal sign flips.  SIGMA_SQ and the normal neighbourhood NORMAL_K
are fixed; only epsilon varies with the content: `derived_epsilon_sq`
of frame 0's voxels, which encoder and decoder each compute, is the
larger of EPSILON_SQ_FLOOR and `spacing_epsilon_sq`, the median squared
distance from a voxel to its SPACING_K-th nearest other voxel.  The
stream does not carry it.  Laplacians are dense
(n, n) arrays: the codec's L = D - W, and `generalized_laplacian`'s
L + I, the w = 1 model that the GMRF study (`validate-gmrf`, acceptance
criterion 09, demo 06) compares against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

SIGMA_SQ = 0.4   # edge kernel width on sin^2 of the normal angle
NORMAL_K = 15    # neighbours per normal estimate
SPACING_K = 8    # neighbour rank whose distance sets the derived epsilon
EPSILON_SQ_FLOOR = 50.0  # smallest squared graph radius


@dataclass(frozen=True)
class SpatialGraph:
    n: int
    edges_i: np.ndarray   # (m,) int64, i < j
    edges_j: np.ndarray   # (m,) int64
    weights: np.ndarray   # (m,) float64 in (0, 1]

    @property
    def edge_count(self) -> int:
        return self.edges_i.shape[0]


def estimate_normals(points: np.ndarray) -> np.ndarray:
    """Per-point unit normals from local covariance.

    The covariance of each point's NORMAL_K nearest neighbors (self
    included; every point of a smaller cluster) is eigendecomposed; the
    normal is the eigenvector of the smallest eigenvalue, of either sign:
    the edge weight reads only |n_i x n_j|^2, which a sign flip leaves
    bit for bit unchanged.  Clusters with fewer than 3 points get
    (0, 0, 1).
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n < 3:
        normals = np.zeros((n, 3))
        normals[:, 2] = 1.0
        return normals
    k = min(NORMAL_K, n)

    tree = cKDTree(points)
    _, neighbors = tree.query(points, k=k)
    local = points[neighbors]                      # (n, k, 3)
    centered = local - local.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k

    _, vecs = np.linalg.eigh(cov)
    return vecs[:, :, 0]                           # smallest eigenvalue


def spacing_epsilon_sq(voxel_coords: np.ndarray) -> float:
    """Median over voxels of the exact squared distance to the
    SPACING_K-th nearest other voxel (the farthest one in a frame of at
    most SPACING_K voxels; 0 for a single voxel).

    One KD-tree query picks each voxel's neighbour; its squared distance
    is recomputed from the integer coordinates, so the result is a
    median of exact integers and scales by exactly s^2 when the
    coordinates scale by s.  Each |difference| is squared as uint64:
    voxel coordinates lie in [0, 2^31 - 1), so a sum of three squares
    stays below 3 * 2^62 < 2^64 and cannot wrap.
    """
    coords = np.asarray(voxel_coords, dtype=np.int64)
    k = min(SPACING_K + 1, coords.shape[0])   # rank k counts the voxel itself
    _, nearest = cKDTree(coords).query(coords, k=[k])
    diff = np.abs(coords - coords[nearest[:, 0]]).astype(np.uint64)
    return float(np.median(np.sum(diff * diff, axis=1)))


def derived_epsilon_sq(voxel_coords: np.ndarray) -> float:
    """The squared graph radius of a sequence whose frame 0 has these
    voxels: the larger of EPSILON_SQ_FLOOR and `spacing_epsilon_sq`.
    Both sides compute it from the shared geometry alone."""
    return max(EPSILON_SQ_FLOOR, spacing_epsilon_sq(voxel_coords))


def build_epsilon_graph(points: np.ndarray, normals: np.ndarray,
                        epsilon_sq: float) -> SpatialGraph:
    """Connect point pairs with squared distance <= epsilon_sq.

    An edge (i, j), i < j, exists when the exact squared distance
    np.sum((p_i - p_j) ** 2) is <= epsilon_sq.  A KD-tree pair search
    with a slightly larger radius proposes the candidates; that exact
    test decides each one, so rounding inside the tree cannot add or
    drop an edge.  Edges come in no particular order (the Laplacian does
    not depend on it), and memory grows with the edge count, not with
    n^2.  Weights use SIGMA_SQ.
    """
    points = np.asarray(points, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    if points.shape[0] != normals.shape[0]:
        raise ValueError("points and normals must have equal length")
    n = points.shape[0]

    radius = np.sqrt(max(epsilon_sq, 0.0)) * (1.0 + 1e-9) + 1e-12
    pairs = cKDTree(points).query_pairs(radius, output_type="ndarray")
    d2 = np.sum((points[pairs[:, 0]] - points[pairs[:, 1]]) ** 2, axis=1)
    ii, jj = pairs[d2 <= epsilon_sq].T

    cross = np.cross(normals[ii], normals[jj])
    sin_sq = np.sum(cross * cross, axis=1)
    weights = np.exp(-sin_sq / SIGMA_SQ)

    return SpatialGraph(n=n, edges_i=ii.astype(np.int64),
                        edges_j=jj.astype(np.int64), weights=weights)


def combinatorial_laplacian(g: SpatialGraph) -> np.ndarray:
    """L = D - W as a dense (n, n) array (clusters are small)."""
    w = np.zeros((g.n, g.n))
    w[g.edges_i, g.edges_j] = g.weights
    w[g.edges_j, g.edges_i] = g.weights
    return np.diag(w.sum(axis=1)) - w


def generalized_laplacian(lap: np.ndarray) -> np.ndarray:
    """L + I: unit temporal potential on every vertex; positive definite."""
    return lap + np.eye(lap.shape[0])
