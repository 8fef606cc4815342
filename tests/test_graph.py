import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgft.graph import (SPACING_K, build_epsilon_graph, combinatorial_laplacian,
                        estimate_normals, generalized_laplacian,
                        spacing_epsilon_sq)
from reference import dense_epsilon_graph, random_spatial_graph


def test_normals_coplanar():
    rng = np.random.default_rng(0)
    pts = np.zeros((20, 3))
    pts[:, :2] = rng.uniform(0, 10, size=(20, 2))
    normals = estimate_normals(pts)
    assert np.allclose(np.abs(normals[:, 2]), 1.0, atol=1e-9)
    assert np.allclose(normals[:, :2], 0.0, atol=1e-9)


def test_normals_unit_length():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 10, size=(100, 3))
    normals = estimate_normals(pts)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-9)


def test_normals_sphere():
    # quasi-uniform samples of the unit sphere; true normal at p is +-p
    n = 500
    i = np.arange(n, dtype=np.float64)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    y = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.clip(1.0 - y * y, 0.0, 1.0))
    pts = np.stack([np.cos(golden * i) * r, y, np.sin(golden * i) * r], axis=1)
    pts += np.random.default_rng(2).normal(scale=0.01, size=pts.shape)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    normals = estimate_normals(pts)
    cosine = np.abs(np.sum(normals * pts, axis=1))
    within_5_deg = np.mean(cosine >= math.cos(math.radians(5.0)))
    assert within_5_deg >= 0.95


def test_normals_tiny_cluster_flagged_default():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    normals = estimate_normals(pts)
    assert np.array_equal(normals, [[0, 0, 1], [0, 0, 1]])


def test_normals_collinear_deterministic():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    a = estimate_normals(pts)
    b = estimate_normals(pts)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0)


def test_epsilon_graph_weights():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
    parallel = np.array([[0, 0, 1.0]] * 3)
    g = build_epsilon_graph(pts, parallel, epsilon_sq=4.0)
    assert g.edge_count == 1
    assert g.weights[0] == pytest.approx(1.0)

    perp = np.array([[0, 0, 1.0], [1.0, 0, 0], [0, 0, 1.0]])
    g = build_epsilon_graph(pts, perp, epsilon_sq=4.0)
    assert g.weights[0] == pytest.approx(math.exp(-2.5))


def test_epsilon_graph_threshold():
    # integer coordinates keep the squared distances exact
    eps_sq = 50.0
    normals = np.array([[0, 0, 1.0]] * 2)
    at = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 0.0]])       # d^2 = 50
    g = build_epsilon_graph(at, normals, eps_sq)
    assert g.edge_count == 1
    above = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 1.0]])    # d^2 = 51
    g = build_epsilon_graph(above, normals, eps_sq)
    assert g.edge_count == 0


def test_weight_invariant_to_normal_sign():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 5, size=(40, 3))
    normals = rng.normal(size=(40, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    g1 = build_epsilon_graph(pts, normals, 9.0)
    flip = rng.choice([-1.0, 1.0], size=(40, 1))
    g2 = build_epsilon_graph(pts, normals * flip, 9.0)
    assert g1.edge_count > 0
    assert g1.weights.tobytes() == g2.weights.tobytes()


def _assert_same_graph(pts, epsilon_sq):
    normals = np.random.default_rng(len(pts)).normal(size=(len(pts), 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    g = build_epsilon_graph(pts, normals, epsilon_sq)
    ii, jj, weights = dense_epsilon_graph(pts, normals, epsilon_sq, 0.4)
    assert g.edges_i.dtype == g.edges_j.dtype == np.int64
    assert np.all(g.edges_i < g.edges_j)
    # The same edge set in any order, each edge's weight bit-equal.
    order = np.lexsort((g.edges_j, g.edges_i))
    assert np.array_equal(g.edges_i[order], ii)
    assert np.array_equal(g.edges_j[order], jj)
    assert g.weights[order].tobytes() == weights.tobytes()


@given(coords=st.lists(st.tuples(*[st.integers(0, 10)] * 3), max_size=40),
       copies=st.lists(st.integers(0, 10**6), max_size=8),
       scale=st.sampled_from([1.0, 0.1, 0.7]),
       epsilon_sq=st.sampled_from([49.0, 50.0, 2.0, 0.0, 0.5, 0.49, 1.0]))
@settings(max_examples=150, deadline=None)
def test_epsilon_graph_matches_dense(coords, copies, scale, epsilon_sq):
    """Lattice distances land exactly on epsilon_sq (50 = 5^2 + 5^2,
    49 = 7^2); scaled lattices give non-integer coordinates whose
    squared distances round to either side of it; copies add
    duplicate points."""
    pts = np.array(coords, dtype=np.float64).reshape(-1, 3) * scale
    if len(pts):
        pts = np.vstack([pts, pts[[c % len(pts) for c in copies]]])
    _assert_same_graph(pts, epsilon_sq)


@given(coords=st.lists(st.tuples(*[st.floats(-20, 20)] * 3), max_size=30),
       epsilon_sq=st.floats(0.0, 200.0))
@settings(max_examples=100, deadline=None)
def test_epsilon_graph_matches_dense_floats(coords, epsilon_sq):
    _assert_same_graph(np.array(coords, dtype=np.float64).reshape(-1, 3),
                       epsilon_sq)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_epsilon_graph_tiny(n):
    pts = np.arange(3 * n, dtype=np.float64).reshape(n, 3)
    _assert_same_graph(pts, 50.0)
    g = build_epsilon_graph(pts, np.ones((n, 3)), 50.0)
    assert g.n == n
    assert g.edge_count == (1 if n == 2 else 0)


def test_epsilon_graph_memory_grows_with_edges():
    # 2000 points 1 apart on a line: ~14k edges, while a dense
    # (n, n, 3) float64 distance array alone would take ~96 MB
    pts = np.zeros((2000, 3))
    pts[:, 0] = np.arange(2000)
    normals = np.tile([0.0, 0.0, 1.0], (2000, 1))
    tracemalloc.start()
    try:
        g = build_epsilon_graph(pts, normals, 50.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.edge_count == 2000 * 7 - 28
    assert peak < 16 * 2**20


def _dense_spacing(coords):
    """spacing_epsilon_sq from all pairwise squared distances."""
    d2 = np.sum((coords[:, None, :] - coords[None, :, :]) ** 2, axis=2)
    d2.sort(axis=1)  # column 0 is each voxel itself
    return float(np.median(d2[:, min(SPACING_K, len(coords) - 1)]))


def _random_voxels(rng, n, span):
    coords = np.unique(rng.integers(0, span, size=(n, 3)), axis=0)
    return coords.astype(np.int32)


@pytest.mark.parametrize("seed, n, span", [(0, 300, 40), (1, 301, 400),
                                           (2, 2000, 4096)])
def test_spacing_matches_dense_distances(seed, n, span):
    coords = _random_voxels(np.random.default_rng(seed), n, span)
    assert spacing_epsilon_sq(coords) == _dense_spacing(coords.astype(np.int64))


@pytest.mark.parametrize("seed", range(4))
def test_spacing_scales_exactly_with_the_grid(seed):
    """Doubling integer coordinates multiplies the result by 4 exactly,
    also when an even voxel count makes the median a half-integer."""
    coords = _random_voxels(np.random.default_rng(seed), 250 + seed, 100)
    assert spacing_epsilon_sq(2 * coords) == 4 * spacing_epsilon_sq(coords)


@pytest.mark.parametrize("n", range(1, SPACING_K + 2))
def test_spacing_of_a_few_voxels(n):
    """A frame of at most SPACING_K voxels takes each voxel's farthest
    other voxel; a single voxel gives 0."""
    coords = np.zeros((n, 3), dtype=np.int32)
    coords[:, 0] = 3 * np.arange(n) ** 2
    assert spacing_epsilon_sq(coords) == _dense_spacing(coords.astype(np.int64))
    if n == 1:
        assert spacing_epsilon_sq(coords) == 0.0


def test_spacing_of_a_dense_plane():
    """On a full plane of voxels the 8th nearest other voxel is a
    diagonal neighbour (distance^2 2) for all but the border."""
    ii, jj = np.meshgrid(np.arange(30), np.arange(30), indexing="ij")
    coords = np.stack([ii.ravel(), jj.ravel(), np.full(900, 7)], axis=1)
    assert spacing_epsilon_sq(coords) == 2.0


def test_spacing_at_the_largest_grid():
    """At grid 2^31 - 1, the largest the header holds, squared
    differences reach 3 * (2^31 - 2)^2 > 2^63 and must not wrap."""
    top = 2**31 - 2
    coords = np.array([[0, 0, 0], [top] * 3, [0, top, 0]], dtype=np.int32)
    assert spacing_epsilon_sq(coords) == float(3 * top**2)


def test_combinatorial_laplacian_two_nodes():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    normals = np.array([[0, 0, 1.0]] * 2)
    g = build_epsilon_graph(pts, normals, 4.0)
    lap = combinatorial_laplacian(g)
    assert np.allclose(lap, [[1, -1], [-1, 1]])


def test_combinatorial_laplacian_edgeless():
    pts = np.array([[0.0, 0.0, 0.0], [50.0, 0, 0], [0, 50.0, 0]])
    normals = np.array([[0, 0, 1.0]] * 3)
    g = build_epsilon_graph(pts, normals, 1.0)
    lap = combinatorial_laplacian(g)
    assert np.array_equal(lap, np.zeros((3, 3)))


@pytest.mark.parametrize("seed", range(4))
def test_combinatorial_laplacian_is_d_minus_w_bit_for_bit(seed):
    """Built in one array, L holds the bits of diag(W 1) - W, +0.0 on
    isolated vertices included: the eigensolver reads those bits."""
    rng = np.random.default_rng(seed)
    g = random_spatial_graph(60, 0.03, rng)
    w = np.zeros((60, 60))
    w[g.edges_i, g.edges_j] = g.weights
    w[g.edges_j, g.edges_i] = g.weights
    assert np.any(w.sum(axis=1) == 0)
    lap = combinatorial_laplacian(g)
    assert lap.tobytes() == (np.diag(w.sum(axis=1)) - w).tobytes()


def test_laplacian_psd_and_zero_row_sum():
    rng = np.random.default_rng(4)
    g = random_spatial_graph(50, 0.2, rng)
    lap = combinatorial_laplacian(g)
    eigvals = np.linalg.eigvalsh(lap)
    assert eigvals[0] >= -1e-10
    assert np.max(np.abs(lap @ np.ones(50))) < 1e-12
    # off-diagonal entries non-positive
    off = lap - np.diag(np.diag(lap))
    assert np.all(off <= 0)


def test_generalized_laplacian():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    normals = np.array([[0, 0, 1.0]] * 2)
    lap = combinatorial_laplacian(build_epsilon_graph(pts, normals, 4.0))
    gen = generalized_laplacian(lap)
    assert np.allclose(gen, [[2, -1], [-1, 2]])


def test_generalized_shifts_spectrum_by_one():
    rng = np.random.default_rng(5)
    g = random_spatial_graph(50, 0.15, rng)
    lap = combinatorial_laplacian(g)
    gen = generalized_laplacian(lap)
    ev_l = np.linalg.eigvalsh(lap)
    ev_g = np.linalg.eigvalsh(gen)
    assert np.max(np.abs(ev_g - (ev_l + 1.0))) < 1e-10
    assert ev_g[0] >= 1.0 - 1e-10
