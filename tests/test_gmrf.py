import numpy as np
import pytest

from pgft.gmrf import (compare_to_laplacian, empirical_precision, sample_gmrf)
from pgft.graph import combinatorial_laplacian, generalized_laplacian
from reference import random_spatial_graph


def test_sample_identity_precision():
    samples = sample_gmrf(np.eye(4), 100_000, rng=0)
    cov = np.cov(samples, rowvar=False)
    assert np.max(np.abs(cov - np.eye(4))) < 0.05


def test_sample_diagonal_precision():
    samples = sample_gmrf(np.diag([4.0, 4.0]), 100_000, rng=1)
    var = samples.var(axis=0, ddof=1)
    assert np.allclose(var, 0.25, atol=0.01)


def test_sample_count_zero():
    assert sample_gmrf(np.eye(3), 0).shape == (0, 3)


def test_sample_rejects_non_pd():
    with pytest.raises(ValueError, match="positive definite"):
        sample_gmrf(np.array([[1.0, 2.0], [2.0, 1.0]]), 10)


def test_sample_covariance_matches_inverse_precision():
    rng = np.random.default_rng(2)
    g = random_spatial_graph(10, 0.4, rng)
    q = generalized_laplacian(combinatorial_laplacian(g))
    samples = sample_gmrf(q, 200_000, rng=rng)
    cov = np.cov(samples, rowvar=False)
    expected = np.linalg.inv(q)
    assert np.max(np.abs(cov - expected)) < 0.05


def test_sample_seed_reproducible():
    q = np.diag([1.0, 2.0, 3.0])
    assert np.array_equal(sample_gmrf(q, 100, rng=7), sample_gmrf(q, 100, rng=7))


def test_empirical_precision_loopback():
    rng = np.random.default_rng(11)
    g = random_spatial_graph(20, 0.12, rng)
    lap = generalized_laplacian(combinatorial_laplacian(g))
    samples = sample_gmrf(lap, 10 * 20, rng=rng)
    report = compare_to_laplacian(empirical_precision(samples), lap)
    assert report.support_correlation > 0.8


def test_empirical_precision_degenerate_samples():
    samples = np.tile(np.arange(5.0), (2, 1))
    est = empirical_precision(samples)
    assert est.rank_deficient


def test_empirical_precision_needs_two_samples():
    with pytest.raises(ValueError, match="2 samples"):
        empirical_precision(np.ones((1, 4)))


def test_independent_samples_edgeless_graph():
    rng = np.random.default_rng(3)
    samples = sample_gmrf(np.eye(8), 500, rng=rng)
    est = empirical_precision(samples)
    off = est.matrix - np.diag(np.diag(est.matrix))
    assert np.max(np.abs(off)) < 0.35
    report = compare_to_laplacian(est, np.eye(8))
    assert report.support_size == 0
    assert report.sparsity_ratio == 0.0
    assert np.isnan(report.sign_agreement)  # no support: nothing to score
    assert np.isnan(report.support_correlation)


@pytest.mark.parametrize("lap, support_size", [
    pytest.param([[2, -1, 0], [-1, 2, 0], [0, 0, 1]], 1, id="one-entry"),
    pytest.param([[2, -1, 0, 0], [-1, 3, -1, 0], [0, -1, 3, -1],
                  [0, 0, -1, 2]], 3, id="constant-laplacian"),
])
def test_correlation_undefined_on_single_or_constant_support(lap,
                                                             support_size):
    lap = np.asarray(lap, dtype=np.float64)
    samples = sample_gmrf(lap, 200, rng=0)
    report = compare_to_laplacian(empirical_precision(samples), lap)
    assert report.support_size == support_size
    assert 0.0 <= report.sign_agreement <= 1.0
    assert np.isnan(report.support_correlation)


def test_compare_reports_sign_agreement():
    rng = np.random.default_rng(4)
    g = random_spatial_graph(15, 0.25, rng)
    lap = generalized_laplacian(combinatorial_laplacian(g))
    # perfect estimate: the Laplacian itself
    est = empirical_precision(sample_gmrf(lap, 5000, rng=rng))
    report = compare_to_laplacian(est, lap)
    assert report.sign_agreement > 0.9
    assert 0.0 < report.sparsity_ratio < 1.0
