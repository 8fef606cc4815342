"""Refined motion estimation between adjacent frames.

Each target cluster is moved by point-to-point ICP onto an expanded
collocated region of the previous frame, held fixed in one KD-tree; the
matching of ICP's last iteration gives every target point its temporal
reference.  A rigid transform is a (rotation (3, 3), translation (3,))
pair of arrays; it maps points p to p @ rotation.T + translation.  Only
geometry is touched, so the decoder recomputes the whole stage bit for
bit.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

ICP_MAX_ITER = 30
ICP_TOL = 1e-6


def _tree(points: np.ndarray) -> cKDTree:
    """A KD-tree that is cheap to build: sliding-midpoint splits, no
    node shrinking.  `_nearest_lowest_index` does not depend on the
    tree's shape."""
    return cKDTree(points, balanced_tree=False, compact_nodes=False)


def _nearest_lowest_index(tree: cKDTree, tree_points: np.ndarray,
                          queries: np.ndarray):
    """Nearest neighbor with deterministic lowest-index tie-break.

    Returns (d2, idx): for each query, the exact squared distance
    sum((tree_points[i] - q) ** 2) to the point i of least d2, the lowest
    index among equals.  cKDTree does not document its tie behavior, so
    every point within a tie radius of the nearest distance is a
    candidate.  One k=2 search finds the queries whose second-nearest
    point lies clearly beyond that radius; their nearest point is the
    only candidate.  The rest (ties, near-ties) get a ball search, and
    their candidates are re-ranked by exact d2, then by index.
    """
    dist, idx = tree.query(queries, k=2)
    radius = dist[:, 0] * (1.0 + 1e-9) + 1e-12
    out_idx = np.asarray(idx[:, 0], dtype=np.int64)
    out_d2 = np.sum((tree_points[out_idx] - queries) ** 2, axis=1)
    # The margin keeps the k=2 distance and the ball search's own
    # rounding from disagreeing about a point on the radius.
    ambiguous = np.flatnonzero(dist[:, 1] <= radius * (1.0 + 1e-6))
    groups = tree.query_ball_point(queries[ambiguous], radius[ambiguous])
    for qi, cand in zip(ambiguous, groups):
        cand = np.sort(np.asarray(cand, dtype=np.int64))
        d2 = np.sum((tree_points[cand] - queries[qi]) ** 2, axis=1)
        best = int(np.argmin(d2))  # first occurrence -> lowest index
        out_idx[qi] = cand[best]
        out_d2[qi] = d2[best]
    return out_d2, out_idx


def _rigid_fit(source: np.ndarray, target: np.ndarray):
    """Least-squares (rotation, translation) mapping source onto target
    via SVD of the cross-covariance (reflection corrected)."""
    src_mean = source.mean(axis=0)
    dst_mean = target.mean(axis=0)
    h = (source - src_mean).T @ (target - dst_mean)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    if d == 0:
        d = 1.0
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    t = dst_mean - r @ src_mean
    return r, t


def _rank_at_least_2(points: np.ndarray) -> bool:
    if points.shape[0] < 3:
        return False
    centered = points - points.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    return s[1] > 1e-9 * max(s[0], 1.0)


def icp_register(source: np.ndarray, target: np.ndarray):
    """Point-to-point ICP moving target onto a fixed source; returns
    (rotation, translation, index): the pair, the inverse of the fitted
    target -> source transform, maps source onto target, and index[i] is
    the source point matched to target point i.

    One KD-tree holds the unmoved source.  Pairs are seeded from the
    target side: the source region is typically much larger than the
    target cluster, and pairing the other way around would let the
    unmatched bulk of the region drag the fit off a perfectly aligned
    overlap.  Ties go to the lowest index.  Stops when the mean-squared
    residual improves by less than ICP_TOL or after ICP_MAX_ITER refits,
    always on a matching under the final transform.  Degenerate inputs
    (fewer than 3 non-collinear points on either side) are matched once
    under the identity.
    """
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if source.shape[0] == 0 or target.shape[0] == 0:
        raise ValueError("ICP requires non-empty point sets")

    tree = _tree(source)
    degenerate = not (_rank_at_least_2(source) and _rank_at_least_2(target))
    rotation, translation = np.eye(3), np.zeros(3)  # target -> source
    moved, prev_mse = target, np.inf
    for refit in range(ICP_MAX_ITER + 1):
        d2, idx = _nearest_lowest_index(tree, source, moved)
        mse = float(np.mean(d2))
        if degenerate or refit == ICP_MAX_ITER or prev_mse - mse < ICP_TOL:
            break
        prev_mse = mse
        # Full refit from the unmoved target: the global optimum for the
        # current pairs, which keeps the residual non-increasing.
        rotation, translation = _rigid_fit(target, source[idx])
        moved = target @ rotation.T + translation

    return rotation.T, -translation @ rotation, idx


def find_correspondence(cluster: np.ndarray, registered_ref: np.ndarray) -> np.ndarray:
    """For each cluster point, the int64 index of its nearest registered
    reference point (lowest index among equals)."""
    cluster = np.asarray(cluster, dtype=np.float64)
    registered_ref = np.asarray(registered_ref, dtype=np.float64)
    if registered_ref.shape[0] == 0:
        raise ValueError("no reference candidates")
    _, idx = _nearest_lowest_index(_tree(registered_ref), registered_ref,
                                   cluster)
    return idx
