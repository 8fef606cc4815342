"""Refined motion estimation between adjacent frames.

Each target cluster is registered against an expanded collocated region
of the previous frame with point-to-point ICP, then every target point
gets a temporal reference by nearest neighbor among the registered
points.  Only geometry is touched, so the decoder recomputes the whole
stage bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

log = logging.getLogger(__name__)

ICP_MAX_ITER = 30
ICP_TOL = 1e-6


@dataclass(frozen=True)
class BoundingBox:
    min_corner: np.ndarray  # (3,)
    max_corner: np.ndarray  # (3,)

    def __post_init__(self):
        lo = np.asarray(self.min_corner, dtype=np.float64)
        hi = np.asarray(self.max_corner, dtype=np.float64)
        if np.any(lo > hi):
            raise ValueError("bounding box min exceeds max")
        object.__setattr__(self, "min_corner", lo)
        object.__setattr__(self, "max_corner", hi)

    @classmethod
    def of(cls, points: np.ndarray) -> "BoundingBox":
        points = np.asarray(points, dtype=np.float64)
        return cls(points.min(axis=0), points.max(axis=0))

    def contains(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return np.all((points >= self.min_corner) & (points <= self.max_corner),
                      axis=1)


@dataclass(frozen=True)
class RigidTransform:
    rotation: np.ndarray     # (3, 3)
    translation: np.ndarray  # (3,)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.rotation.T + self.translation


def expand_box(box: BoundingBox, delta: float) -> BoundingBox:
    """Grow each side by a factor (1 + delta) about the box center."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    center = (box.min_corner + box.max_corner) / 2.0
    half = (box.max_corner - box.min_corner) / 2.0 * (1.0 + delta)
    return BoundingBox(center - half, center + half)


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


def _rigid_fit(source: np.ndarray, target: np.ndarray) -> RigidTransform:
    """Least-squares rotation+translation mapping source onto target
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
    return RigidTransform(r, t)


def _rank_at_least_2(points: np.ndarray) -> bool:
    if points.shape[0] < 3:
        return False
    centered = points - points.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    return s[1] > 1e-9 * max(s[0], 1.0)


def icp_register(source: np.ndarray, target: np.ndarray,
                 max_iter: int = ICP_MAX_ITER,
                 tol: float = ICP_TOL) -> RigidTransform:
    """Point-to-point ICP aligning source onto target.

    Correspondences are seeded from the target side: each target point
    is paired with its nearest registered source point (lowest-index
    tie-break).  The source region is typically much larger than the
    target cluster, and pairing the other way around would let the
    unmatched bulk of the region drag the fit off a perfectly aligned
    overlap.  Iterates matching and a closed-form rigid fit until the
    mean-squared residual improves by less than tol or max_iter is
    reached.  Degenerate inputs (fewer than 3 non-collinear points on
    either side) fall back to the identity transform.
    """
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if source.shape[0] == 0 or target.shape[0] == 0:
        raise ValueError("ICP requires non-empty point sets")

    if not (_rank_at_least_2(source) and _rank_at_least_2(target)):
        log.debug("ICP degenerate input (collinear or tiny); using identity")
        return RigidTransform.identity()

    transform = RigidTransform.identity()
    prev_mse = np.inf
    for _ in range(max_iter):
        registered = transform.apply(source)
        tree = cKDTree(registered)
        d2, idx = _nearest_lowest_index(tree, registered, target)
        mse = float(np.mean(d2))
        if prev_mse - mse < tol:
            break
        prev_mse = mse
        # Full refit from the original source points at the matched
        # indices: the global optimum for the current correspondences,
        # which keeps the residual non-increasing.
        transform = _rigid_fit(source[idx], target)

    return transform


def find_correspondence(cluster: np.ndarray, registered_ref: np.ndarray) -> np.ndarray:
    """For each cluster point, the int64 index of its nearest registered
    reference point (lowest index among equals)."""
    cluster = np.asarray(cluster, dtype=np.float64)
    registered_ref = np.asarray(registered_ref, dtype=np.float64)
    if registered_ref.shape[0] == 0:
        raise ValueError("no reference candidates")
    tree = cKDTree(registered_ref)
    _, idx = _nearest_lowest_index(tree, registered_ref, cluster)
    return idx
