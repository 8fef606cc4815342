import ctypes

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from pgft import transform
from pgft.gmrf import sample_gmrf
from pgft.graph import combinatorial_laplacian, generalized_laplacian
from pgft.transform import (eigendecompose, gft_forward, gft_inverse,
                            inter_predict)
from reference import (cholesky_predict, eigendecompose_loop, jacobi_eigh,
                       random_spatial_graph)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _random_combinatorial(n, seed, edge_prob=0.15):
    rng = np.random.default_rng(seed)
    return combinatorial_laplacian(random_spatial_graph(n, edge_prob, rng))


def _random_generalized(n, seed, edge_prob=0.15):
    return generalized_laplacian(_random_combinatorial(n, seed, edge_prob))


def _dense(basis):
    """The dense U, formed in O(n^3)."""
    return basis.synthesize(np.eye(basis.n))


def test_eigendecompose_two_node():
    basis = eigendecompose(np.array([[1.0, -1], [-1, 1]]))
    assert np.allclose(basis.eigenvalues, [0.0, 2.0])
    u = _dense(basis)
    assert np.allclose(u[:, 0], [INV_SQRT2, INV_SQRT2])
    assert np.allclose(u[:, 1], [INV_SQRT2, -INV_SQRT2])


def test_eigendecompose_shifted():
    basis = eigendecompose(np.array([[2.0, -1], [-1, 2]]))
    assert np.allclose(basis.eigenvalues, [1.0, 3.0])
    u = _dense(basis)
    assert np.allclose(u[:, 0], [INV_SQRT2, INV_SQRT2])
    assert np.allclose(u[:, 1], [INV_SQRT2, -INV_SQRT2])


def test_eigendecompose_residuals_random_100():
    gen = _random_generalized(100, seed=0)
    basis = eigendecompose(gen)
    u = _dense(basis)
    ortho = u.T @ u - np.eye(100)
    assert np.linalg.norm(ortho, "fro") < 1e-9
    spectral = gen @ u - u * basis.eigenvalues
    assert np.linalg.norm(spectral, "fro") < 1e-8
    assert np.all(np.diff(basis.eigenvalues) >= -1e-12)


def test_eigendecompose_matches_jacobi_oracle():
    """The probe rule applied to Jacobi's pairs gives the same basis."""
    gen = _random_generalized(12, seed=1, edge_prob=0.3)
    basis = eigendecompose(gen)
    j_values, j_vectors = jacobi_eigh(gen)
    assert np.allclose(basis.eigenvalues, j_values, atol=1e-9)
    # the oracle's basis diagonalizes too
    diag = j_vectors.T @ gen @ j_vectors
    assert np.max(np.abs(diag - np.diag(j_values))) < 1e-9
    _, canonical = eigendecompose_loop(gen, solver=jacobi_eigh)
    assert np.allclose(_dense(basis), canonical, atol=1e-9)


def test_eigendecompose_sign_rule():
    """Every column of U has a positive projection on probe 0."""
    gen = _random_generalized(30, seed=2)
    basis = eigendecompose(gen)
    assert _degenerate_groups(basis.eigenvalues) == 0
    assert np.all(_dense(basis).T @ transform._probes(30, 1)[:, 0] > 0)


def test_eigendecompose_deterministic():
    gen = _random_generalized(40, seed=3)
    a = eigendecompose(gen)
    b = eigendecompose(gen)
    for field in ("reflectors", "tau", "vectors", "eigenvalues"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_eigendecompose_zero_eigenvalue_is_positive_zero(monkeypatch):
    """The solver may return -0.0 (it does for [[-0.0]]), and the mirror
    hash folds in eigenvalue bytes, so every zero comes back as +0.0:
    spectra that compare equal hash alike."""
    assert not np.signbit(eigendecompose(np.array([[-0.0]])).eigenvalues[0])
    laplacian = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    plain = eigendecompose(laplacian)
    real_stages = transform._tridiagonal_eigen

    def negative_zeros(matrix):
        values, tau, vectors = real_stages(matrix)
        values[values == 0] = -0.0
        return values, tau, vectors

    monkeypatch.setattr(transform, "_tridiagonal_eigen", negative_zeros)
    signed = eigendecompose(laplacian)
    assert np.count_nonzero(plain.eigenvalues == 0) >= 1
    assert signed.eigenvalues.tobytes() == plain.eigenvalues.tobytes()
    assert np.array_equal(signed.vectors, plain.vectors)


def test_eigendecompose_identity_tie_rule():
    """All eigenvalues equal: the one group's projector is I, so the
    columns are the probes orthonormalised in order, each r_kk > 0."""
    basis = eigendecompose(np.eye(3))
    assert np.allclose(basis.eigenvalues, 1.0)
    q, r = np.linalg.qr(transform._probes(3, 3))
    assert np.allclose(_dense(basis), q * np.sign(np.diag(r)), atol=1e-14)


def test_eigendecompose_rejects_non_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        eigendecompose(np.array([[1.0, 2], [0, 1]]))


@pytest.mark.parametrize("matrix", [
    np.full((2, 2), np.nan),
    np.array([[0.0, np.nan], [1.0, 0.0]]),  # NaN hides the asymmetry
    np.array([[0.0, np.inf], [np.inf, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -np.inf]]),
], ids=["all-nan", "nan-asymmetric", "inf-symmetric", "inf-diagonal"])
def test_eigendecompose_rejects_non_finite(matrix):
    with pytest.raises(ValueError, match=r"non-finite entries .* at \("):
        eigendecompose(matrix)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_eigendecompose_smallest_sizes(n):
    """Down to n = 0 the factors have their shapes, U is orthonormal,
    diagonalizes the matrix and is the canonical basis, and project and
    synthesize are U^T and U."""
    matrix = _random_generalized(n, seed=n, edge_prob=0.8)
    basis = eigendecompose(matrix)
    assert basis.n == n
    assert basis.reflectors.shape == basis.vectors.shape == (n, n)
    assert basis.tau.shape == (max(n - 1, 0),)
    u = _assert_same_canonical_basis(matrix)
    assert np.allclose(u.T @ u, np.eye(n), atol=1e-14)
    assert np.allclose(matrix @ u, u * basis.eigenvalues, atol=1e-12)
    assert np.all(np.diff(basis.eigenvalues) >= 0)
    x = np.random.default_rng(n).normal(size=(n, 3))
    assert np.allclose(basis.project(x), u.T @ x, atol=1e-13)
    assert np.allclose(basis.synthesize(x), u @ x, atol=1e-13)
    assert basis.project(x[:, 0]).shape == (n,)


def test_eigendecompose_signs_where_vertex_zero_is_off_the_support():
    """Vertex 0 is isolated from a weighted path, so U[0, j] = 0 for the
    path's eigenvectors: the probe sets their signs as any other's."""
    path = _path_laplacian(5) * np.linspace(0.5, 1.5, 5)
    path = (path + path.T) / 2
    lap = scipy.linalg.block_diag(np.zeros((1, 1)), path)
    u = _assert_same_canonical_basis(lap)
    off = np.flatnonzero(np.abs(u[0]) <= 1e-12)
    assert off.size >= 3
    assert np.all(u[:, off].T @ transform._probes(6, 1)[:, 0] > 0)


def test_lapack_calls_release_the_gil():
    """The LAPACK routines are plain C function pointers to ctypes, which
    drops the GIL for the call; a PYFUNCTYPE one would hold it."""
    for routine in (transform._dsytrd, transform._dstedc, transform._dormtr):
        assert not routine._flags_ & ctypes._FUNCFLAG_PYTHONAPI


def test_eigendecompose_leaves_the_matrix_unchanged():
    """The reflectors overwrite a copy, never the caller's array, in
    either memory order."""
    lap = _random_combinatorial(40, seed=21)
    for matrix in (lap, np.asfortranarray(lap)):
        before = matrix.copy()
        basis = eigendecompose(matrix)
        assert np.array_equal(matrix, before)
        assert not np.shares_memory(basis.reflectors, matrix)


def test_eigendecompose_takes_over_a_built_matrix():
    """A matrix built inside the call is tridiagonalised in its own
    buffer, in either memory order, to the basis of the array itself."""
    lap = _random_combinatorial(40, seed=22)
    plain = eigendecompose(lap)
    for order in "CF":
        built = []

        def build():
            built.append(np.array(lap, order=order))
            return built[0]

        basis = eigendecompose(build)
        assert np.shares_memory(basis.reflectors, built[0])
        for field in ("reflectors", "tau", "vectors", "eigenvalues"):
            assert np.array_equal(getattr(basis, field), getattr(plain, field))


def _path_laplacian(m):
    adj = np.eye(m, k=1) + np.eye(m, k=-1)
    return np.diag(adj.sum(axis=1)) - adj


def _grid_laplacian(rows, cols):
    """Combinatorial Laplacian of the unweighted rows x cols grid graph;
    square grids have many repeated eigenvalues."""
    return (np.kron(_path_laplacian(rows), np.eye(cols))
            + np.kron(np.eye(rows), _path_laplacian(cols)))


def _random_disconnected(rng):
    n = int(rng.integers(2, 60))
    return combinatorial_laplacian(random_spatial_graph(n, 1.5 / n, rng))


def _assert_same_canonical_basis(lap):
    """The library's basis is the probe rule applied in loops to
    np.linalg.eigh's pairs, every column within 1e-12 * scale, degenerate
    groups included; returns the dense U."""
    basis = eigendecompose(lap)
    values, vectors = eigendecompose_loop(lap)
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    tol = 1e-12 * scale
    assert np.max(np.abs(basis.eigenvalues - values), initial=0.0) <= tol
    u = _dense(basis)
    assert np.max(np.abs(u - vectors), initial=0.0) <= tol
    return u


def _degenerate_groups(values):
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    return int(np.count_nonzero(np.diff(values) <= 1e-9 * scale))


@pytest.mark.parametrize("seed", range(6))
def test_canonical_basis_matches_loop_on_disconnected_graphs(seed):
    lap = _random_disconnected(np.random.default_rng(seed))
    assert connected_components(lap != 0, directed=False)[0] > 1
    _assert_same_canonical_basis(lap)
    assert _degenerate_groups(np.linalg.eigvalsh(lap)) > 0


def test_canonical_basis_matches_loop_where_row_0_ties():
    """A disconnected graph, drawn as above, with six components: five
    dimensions of its null space vanish in row 0 of U, where the earlier
    lexsort met ties that only rows zero but for rounding broke (seed
    188 is the one such draw among seeds 0-999).  The probe rule reads
    no row of U."""
    lap = _random_disconnected(np.random.default_rng(188))
    assert connected_components(lap != 0, directed=False)[0] == 6
    _assert_same_canonical_basis(lap)


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 2), (3, 3), (4, 4),
                                       (5, 5), (4, 6), (6, 6)])
def test_canonical_basis_matches_loop_on_grids(rows, cols):
    lap = _grid_laplacian(rows, cols)
    _assert_same_canonical_basis(lap)
    if rows == cols > 2:
        assert _degenerate_groups(np.linalg.eigvalsh(lap)) > 0
    _assert_same_canonical_basis(lap + np.eye(rows * cols))


@pytest.mark.parametrize("seed", range(4))
def test_canonical_basis_matches_loop_without_degenerate_groups(seed):
    lap = _random_combinatorial(50, seed, edge_prob=0.5)
    assert connected_components(lap != 0, directed=False)[0] == 1
    _assert_same_canonical_basis(lap)
    assert _degenerate_groups(np.linalg.eigvalsh(lap)) == 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), grid=st.sampled_from([0, 3, 4, 5]))
def test_canonical_basis_ignores_rotations_and_signs_within_groups(seed, grid):
    """Any orthonormal basis of each group, with any signs, canonicalises
    to one U: eigh's pairs, each group's columns rotated by a random
    orthogonal matrix and every column's sign flipped at random, give
    the basis of the unrotated pairs within 1e-12 * scale.  With tau = 0,
    Q = I and the rule reads U = Z directly."""
    rng = np.random.default_rng(seed)
    lap = _grid_laplacian(grid, grid) if grid else _random_disconnected(rng)
    values, vectors = np.linalg.eigh(lap)
    n = len(values)
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    turned = vectors * rng.choice([-1.0, 1.0], size=n)
    bounds = np.flatnonzero(np.diff(values, prepend=-np.inf,
                                    append=np.inf) > 1e-9 * scale)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop - start > 1:
            turned[:, start:stop] @= scipy.stats.ortho_group.rvs(
                stop - start, random_state=rng)
    identity_q = (np.zeros((n, n), order="F"), np.zeros(max(n - 1, 0)))
    canonical = []
    for z in (vectors, turned):
        z = np.asfortranarray(z)
        transform._canonicalize(values, *identity_q, z)
        canonical.append(z)
    oracle = eigendecompose_loop(lap)[1]
    assert np.max(np.abs(canonical[0] - canonical[1])) <= 1e-12 * scale
    assert np.max(np.abs(canonical[0] - oracle)) <= 1e-12 * scale


def test_gft_dc_property():
    rng = np.random.default_rng(4)
    g = random_spatial_graph(20, 0.9, rng)  # dense -> connected
    basis = eigendecompose(combinatorial_laplacian(g))
    c = 3.7
    coeffs = gft_forward(np.full(20, c), basis)
    assert coeffs[0] == pytest.approx(c * np.sqrt(20))
    assert np.max(np.abs(coeffs[1:])) < 1e-9


def test_gft_hand_example():
    basis = eigendecompose(np.array([[1.0, -1], [-1, 1]]))
    coeffs = gft_forward(np.array([3.0, 1.0]), basis)
    assert np.allclose(coeffs, [4.0 * INV_SQRT2, 2.0 * INV_SQRT2])


def test_gft_roundtrip_many():
    basis = eigendecompose(_random_generalized(50, seed=5))
    rng = np.random.default_rng(6)
    signals = rng.normal(size=(50, 1000)) * 100
    back = gft_inverse(gft_forward(signals, basis), basis)
    assert np.max(np.abs(back - signals)) < 1e-9


def test_gft_energy_conservation():
    basis = eigendecompose(_random_generalized(64, seed=7))
    rng = np.random.default_rng(8)
    f = rng.normal(size=64) * 50
    assert np.linalg.norm(gft_forward(f, basis)) == pytest.approx(
        np.linalg.norm(f), abs=1e-9)


def test_gft_dimension_mismatch():
    basis = eigendecompose(np.array([[1.0, -1], [-1, 1]]))
    with pytest.raises(ValueError):
        gft_forward(np.ones(3), basis)


# Temporal precisions across temporal_precision's clip range.
PRECISIONS = [2.0 ** -4, 1.0, 4.0, 2.0 ** 6]


def _predict(matrix, ref, w=1.0):
    """The predictor in the attribute domain: U applied to the
    coefficients inter_predict returns."""
    basis = eigendecompose(matrix)
    return gft_inverse(inter_predict(basis, ref, w), basis)


def test_inter_predict_edgeless_is_copy():
    ref = np.arange(5, dtype=np.float64)
    assert np.allclose(_predict(np.zeros((5, 5)), ref), ref, atol=1e-12)


def test_inter_predict_two_node_hand_example():
    pred = _predict(np.array([[1.0, -1], [-1, 1]]), np.array([3.0, 0.0]))
    assert np.allclose(pred, [2.0, 1.0])


def test_inter_predict_constant_fixed_point():
    rng = np.random.default_rng(9)
    g = random_spatial_graph(25, 0.3, rng)
    pred = _predict(combinatorial_laplacian(g), np.full(25, 7.25))
    assert np.allclose(pred, 7.25, atol=1e-10)


def test_inter_predict_residual_bound():
    rng = np.random.default_rng(10)
    g = random_spatial_graph(80, 0.2, rng)
    lap = combinatorial_laplacian(g)
    ref = rng.normal(size=(80, 3)) * 60
    pred = _predict(lap, ref)
    residual = (lap + np.eye(80)) @ pred - ref
    assert np.linalg.norm(residual) < 1e-8


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 60), edge_prob=st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.4]),
       seed=st.integers(0, 2**32 - 1), w=st.sampled_from(PRECISIONS))
def test_inter_predict_matches_cholesky_oracle(n, edge_prob, seed, w):
    """The spectral filter equals the w (L + wI)^{-1} solve, including on
    disconnected graphs whose L has a repeated zero eigenvalue."""
    rng = np.random.default_rng(seed)
    lap = combinatorial_laplacian(random_spatial_graph(n, edge_prob, rng))
    ref = rng.normal(size=(n, 3)) * 100
    pred = _predict(lap, ref, w)
    assert np.max(np.abs(pred - cholesky_predict(lap, ref, w))) < 1e-9


def test_inter_predict_matches_oracle_on_components_and_isolated_vertices():
    """Two dense components plus isolated vertices: L has a zero eigenvalue
    of multiplicity 6, which eigh may return in any rotation."""
    rng = np.random.default_rng(17)
    blocks = [combinatorial_laplacian(random_spatial_graph(m, 0.6, rng))
              for m in (12, 9)]
    matrix = scipy.linalg.block_diag(*blocks, np.zeros((4, 4)))
    components, _ = connected_components(matrix != 0, directed=False)
    assert components == 6
    ref = rng.normal(size=(25, 3)) * 100
    for w in PRECISIONS:
        pred = _predict(matrix, ref, w)
        assert np.max(np.abs(pred - cholesky_predict(matrix, ref, w))) < 1e-9


def test_inter_predict_unit_precision_is_the_unit_gain():
    """w = 1 gives 1 / (1 + lambda) bit for bit."""
    rng = np.random.default_rng(19)
    basis = eigendecompose(combinatorial_laplacian(
        random_spatial_graph(40, 0.2, rng)))
    ref = rng.normal(size=(40, 3)) * 100
    gain = (1.0 / (1.0 + basis.eigenvalues))[:, None]
    assert np.array_equal(inter_predict(basis, ref, 1.0),
                          gain * basis.project(ref))


def test_inter_predict_beats_unit_precision_on_its_own_field():
    """Samples of the GMRF [[L + wI, -wI], [-wI, L_ref + wI]] with w = 4:
    the predictor with w = 4, its conditional mean, leaves a smaller
    residual than the w = 1 predictor, and each residual coefficient's
    variance is the conditional one, 1 / (lambda + w)."""
    rng = np.random.default_rng(20)
    n, w = 20, 4.0
    eye = np.eye(n)
    lap = combinatorial_laplacian(random_spatial_graph(n, 0.25, rng))
    lap_ref = combinatorial_laplacian(random_spatial_graph(n, 0.25, rng))
    joint = np.block([[lap + w * eye, -w * eye], [-w * eye, lap_ref + w * eye]])
    joint += 1e-3 * np.eye(2 * n)  # the shared-DC direction is otherwise free
    x = sample_gmrf(joint, 20_000, rng=rng)
    current, reference = x[:, :n], x[:, n:]
    basis = eigendecompose(lap)
    coeffs = basis.project(current.T).T

    def residual(precision):
        return coeffs - inter_predict(basis, reference.T, precision).T

    mse_w, mse_unit = (float(np.mean(residual(p) ** 2)) for p in (w, 1.0))
    assert mse_w < 0.9 * mse_unit
    variances = residual(w).var(axis=0)
    assert np.allclose(variances, 1.0 / (basis.eigenvalues + w), rtol=0.1)


@pytest.mark.parametrize("w", [0.0, -1.0, float("inf"), float("nan")])
def test_inter_predict_rejects_bad_precision(w):
    basis = eigendecompose(np.array([[1.0, -1], [-1, 1]]))
    with pytest.raises(ValueError, match="temporal precision"):
        inter_predict(basis, np.zeros(2), w)


def test_inter_predict_rejects_generalized_basis():
    basis = eigendecompose(_random_generalized(10, seed=18))
    with pytest.raises(ValueError, match="combinatorial"):
        inter_predict(basis, np.zeros(10), 1.0)


# The residual transform (GGFT) is the eigenbasis of L, shared with intra.

def test_ggft_zero_residual():
    basis = eigendecompose(_random_combinatorial(10, seed=11))
    assert np.allclose(gft_forward(np.zeros(10), basis), 0.0)


def test_ggft_eigenvector_gives_unit_coefficient():
    lap = _random_combinatorial(10, seed=12)
    basis = eigendecompose(lap)
    vec = _dense(basis)[:, 4]
    # a column of the basis of L is an eigenvector of L + I
    assert np.allclose(generalized_laplacian(lap) @ vec,
                       (basis.eigenvalues[4] + 1.0) * vec, atol=1e-12)
    coeffs = gft_forward(vec, basis)
    expected = np.zeros(10)
    expected[4] = 1.0
    assert np.allclose(coeffs, expected, atol=1e-12)


def test_ggft_decorrelates_gmrf_residuals():
    lap = _random_combinatorial(20, seed=13, edge_prob=0.25)
    basis = eigendecompose(lap)
    res = sample_gmrf(generalized_laplacian(lap), 10_000, rng=np.random.default_rng(14))
    coeffs = gft_forward(res.T, basis).T                   # (samples, n)
    corr = np.corrcoef(coeffs, rowvar=False)
    off = corr - np.diag(np.diag(corr))
    assert np.max(np.abs(off)) < 0.1


def test_ggft_inverse_matches_gft_inverse():
    """The eigenbasis of L + I is the eigenbasis of L with eigenvalues
    shifted by 1, so the residual inverse transform in either basis gives
    the same signal."""
    rng = np.random.default_rng(15)
    lap = combinatorial_laplacian(random_spatial_graph(15, 0.9, rng))
    lap_basis = eigendecompose(lap)
    gen_basis = eigendecompose(generalized_laplacian(lap))
    assert np.allclose(gen_basis.eigenvalues, lap_basis.eigenvalues + 1.0,
                       atol=1e-12)
    assert np.allclose(_dense(gen_basis), _dense(lap_basis), atol=1e-9)
    f = rng.normal(size=15)
    assert np.allclose(gft_inverse(gft_forward(f, gen_basis), lap_basis),
                       gft_inverse(gft_forward(f, lap_basis), lap_basis),
                       atol=1e-9)
