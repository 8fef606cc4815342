"""Independent reference implementations used as test oracles.

These deliberately avoid the library's own code paths: brute-force
nearest neighbors, a per-query nearest-neighbor loop and a dense
epsilon graph (the library's earlier searches, kept for exact
comparison), a plain cyclic Jacobi eigensolver, the per-eigenvalue
canonicalization loop, a Cholesky solve of the temporal predictor, a
numerically-integrated Bjontegaard metric, the k-means objective, and
k-means with a dense (n, k, 3) assignment and per-cluster and
per-point loops, and the two-step motion search that moves the source
region in ICP and then searches it again (the library's earlier code,
kept for exact comparison).
"""

import numpy as np
import scipy.linalg
from scipy.integrate import quad
from scipy.spatial import cKDTree


def brute_force_nearest(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Exhaustive nearest neighbor; ties broken by lowest index."""
    out = np.empty(len(queries), dtype=np.int64)
    for qi, q in enumerate(queries):
        d2 = np.sum((points - q) ** 2, axis=1)
        out[qi] = int(np.argmin(d2))  # first occurrence = lowest index
    return out


def nearest_lowest_index_loop(tree_points: np.ndarray, queries: np.ndarray):
    """(d2, idx) of each query's nearest point, lowest index among
    equals: a k=1 search, then every ball of the tie radius re-ranked
    one query at a time by exact d2 and index."""
    tree = cKDTree(tree_points)
    dist, idx = tree.query(queries, k=1)
    radius = dist * (1.0 + 1e-9) + 1e-12
    groups = tree.query_ball_point(queries, radius)
    out_idx = np.asarray(idx, dtype=np.int64)
    out_d2 = dist * dist
    for qi, cand in enumerate(groups):
        if len(cand) <= 1:
            if len(cand) == 1:
                c = cand[0]
                out_idx[qi] = c
                out_d2[qi] = float(np.sum((tree_points[c] - queries[qi]) ** 2))
            continue
        cand = np.sort(np.asarray(cand, dtype=np.int64))
        d2 = np.sum((tree_points[cand] - queries[qi]) ** 2, axis=1)
        best = int(np.argmin(d2))  # first occurrence -> lowest index
        out_idx[qi] = cand[best]
        out_d2[qi] = d2[best]
    return out_d2, out_idx


def dense_epsilon_graph(points: np.ndarray, normals: np.ndarray,
                        epsilon_sq: float, sigma_sq: float):
    """(edges_i, edges_j, weights) from the full n x n squared-distance
    array, in np.where(np.triu(...)) order."""
    points = np.asarray(points, dtype=np.float64)
    normals = np.asarray(normals, dtype=np.float64)
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
    ii, jj = np.where(np.triu(d2 <= epsilon_sq, k=1))
    cross = np.cross(normals[ii], normals[jj])
    sin_sq = np.sum(cross * cross, axis=1)
    return ii.astype(np.int64), jj.astype(np.int64), np.exp(-sin_sq / sigma_sq)


def jacobi_eigh(matrix: np.ndarray, sweeps: int = 60, tol: float = 1e-14):
    """Cyclic-by-row Jacobi diagonalization of a symmetric matrix.

    Returns (eigenvalues ascending, eigenvector columns).  Slow; for
    small test matrices only.
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    scale = max(1.0, float(np.abs(a).max()))
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                if tau == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    values = np.diag(a).copy()
    order = np.argsort(values, kind="stable")
    return values[order], v[:, order]


def eigendecompose_loop(matrix: np.ndarray):
    """(eigenvalues, basis) canonicalized as the library's earlier code
    did: signs fixed on a copy, then one pass over all n eigenvalues that
    lexsorts each degenerate group, and a column gather at the end."""
    values, vectors = np.linalg.eigh(np.asarray(matrix, dtype=np.float64))
    n = values.shape[0]
    first = np.argmax(np.abs(vectors) > 1e-12, axis=0)
    signs = np.sign(vectors[first, np.arange(n)])
    signs[signs == 0] = 1.0
    vectors = vectors * signs[None, :]
    tol = 1e-9 * max(1.0, float(np.abs(values).max(initial=0.0)))
    start = 0
    order = np.arange(n)
    for i in range(1, n + 1):
        if i == n or values[i] - values[i - 1] > tol:
            if i - start > 1:
                cols = order[start:i]
                order[start:i] = cols[np.lexsort(vectors[::-1, cols])]
            start = i
    return values[order], vectors[:, order]


def cholesky_predict(laplacian: np.ndarray, ref_attrs: np.ndarray,
                     w: float) -> np.ndarray:
    """Temporal prediction by solving (L + wI) p = w x_ref per channel."""
    a = np.asarray(laplacian, dtype=np.float64) + w * np.eye(laplacian.shape[0])
    c, low = scipy.linalg.cho_factor(a, lower=True)
    return scipy.linalg.cho_solve((c, low),
                                  w * np.asarray(ref_attrs, dtype=np.float64))


def within_cluster_cost(points: np.ndarray, labels: np.ndarray,
                        centroids: np.ndarray) -> float:
    """Total squared distance of points to their assigned centroids."""
    return float(np.sum((points - centroids[labels]) ** 2))


def kmeans_loops(coords: np.ndarray, target_cluster_size: int,
                 max_iterations: int = 100, refilled=None):
    """(labels, cluster sizes, centroids) of the library's k-means, with
    the dense (n, k, 3) difference array in the assignment, per-cluster
    mean centroids and a per-point first-member scan.  Unique `coords`
    in any order are put in lexicographic order first, and the labels
    are those of the sorted rows.  The ids of the clusters refilled
    after emptying are appended to `refilled`."""
    from pgft.clustering import _farthest_point_seeds

    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    k = -(-n // target_cluster_size)
    # np.lexsort keys: last key is primary, so feed columns reversed.
    pts = coords[np.lexsort(coords.T[::-1])]
    centroids = pts[_farthest_point_seeds(pts, k)].copy()
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iterations):
        d2 = np.sum((pts[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        sizes = np.bincount(new_labels, minlength=k)
        if np.any(sizes == 0):
            dist_to_own = d2[np.arange(n), new_labels]
            for cid in np.flatnonzero(sizes == 0):
                if refilled is not None:
                    refilled.append(int(cid))
                far = int(np.argmax(dist_to_own))
                new_labels[far] = cid
                dist_to_own[far] = -1.0
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for cid in range(k):
            centroids[cid] = pts[labels == cid].mean(axis=0)
    first_member = np.full(k, n, dtype=np.int64)
    for i in range(n - 1, -1, -1):
        first_member[labels[i]] = i
    relabel = np.empty(k, dtype=np.int64)
    relabel[np.argsort(first_member)] = np.arange(k)
    out_labels = relabel[labels].astype(np.int32)
    sizes = np.bincount(out_labels, minlength=k).astype(np.int64)
    centroids = np.zeros((k, 3))
    for cid in range(k):
        centroids[cid] = pts[out_labels == cid].mean(axis=0)
    return out_labels, sizes, centroids


def icp_two_step_correspondence(source: np.ndarray, target: np.ndarray):
    """Index of the source point each target point corresponds to, by
    the library's earlier search: ICP moves the source onto the target,
    with a new KD-tree over the moved source on every iteration, then a
    brute-force search pairs every target point with its nearest point
    of the registered source."""
    from pgft.motion import (ICP_MAX_ITER, ICP_TOL, _rank_at_least_2,
                             _rigid_fit)

    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    rotation, translation = np.eye(3), np.zeros(3)  # source -> target
    if _rank_at_least_2(source) and _rank_at_least_2(target):
        prev_mse = np.inf
        for _ in range(ICP_MAX_ITER):
            registered = source @ rotation.T + translation
            d2, idx = nearest_lowest_index_loop(registered, target)
            mse = float(np.mean(d2))
            if prev_mse - mse < ICP_TOL:
                break
            prev_mse = mse
            rotation, translation = _rigid_fit(source[idx], target)
    return brute_force_nearest(target, source @ rotation.T + translation)


def bd_rate_numeric(curve_a, curve_b) -> float:
    """Bjontegaard delta rate with quadrature instead of the closed-form
    polynomial integral."""
    def fit(curve):
        rate = np.array([c[0] for c in curve], dtype=np.float64)
        ps = np.array([c[1] for c in curve], dtype=np.float64)
        return np.polyfit(ps, np.log(rate), 3), ps.min(), ps.max()

    poly_a, lo_a, hi_a = fit(curve_a)
    poly_b, lo_b, hi_b = fit(curve_b)
    lo, hi = max(lo_a, lo_b), min(hi_a, hi_b)
    int_a, _ = quad(lambda p: np.polyval(poly_a, p), lo, hi)
    int_b, _ = quad(lambda p: np.polyval(poly_b, p), lo, hi)
    return (np.exp((int_b - int_a) / (hi - lo)) - 1.0) * 100.0


def random_spatial_graph(n: int, edge_prob: float, rng):
    """Random weighted edge list (i < j) for oracle graph tests."""
    ii, jj, ww = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < edge_prob:
                ii.append(i)
                jj.append(j)
                ww.append(rng.uniform(0.2, 1.0))
    from pgft.graph import SpatialGraph

    return SpatialGraph(n=n, edges_i=np.array(ii, dtype=np.int64),
                        edges_j=np.array(jj, dtype=np.int64),
                        weights=np.array(ww, dtype=np.float64))
