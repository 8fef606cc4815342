"""Gaussian Markov random field sampling and precision-matrix estimation.

Used both as the statistical oracle for the predictor/transform claims
and for the empirical study comparing a cluster's generalized Laplacian
against the precision matrix estimated from aligned attribute patches.
Precision matrices and Laplacians are plain (n, n) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class PrecisionEstimate:
    matrix: np.ndarray
    sample_count: int
    rank_deficient: bool


@dataclass(frozen=True)
class SimilarityReport:
    support_size: int          # off-diagonal entries (i < j) of the Laplacian
    sign_agreement: float      # fraction of support entries negative in both
    support_correlation: float # Pearson corr of matched off-diagonal entries
    sparsity_ratio: float      # Laplacian off-diagonal fill


def sample_gmrf(precision: np.ndarray, count: int, rng=None) -> np.ndarray:
    """Zero-mean samples whose covariance is the inverse precision.

    Factor Q = L L^T and back-substitute standard normals through L^T.
    """
    q = np.asarray(precision, dtype=np.float64)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("precision matrix must be square")
    if np.max(np.abs(q - q.T), initial=0.0) > 1e-10:
        raise ValueError("precision matrix must be symmetric")
    try:
        chol = np.linalg.cholesky(q)
    except np.linalg.LinAlgError as exc:
        raise ValueError("precision matrix is not positive definite") from exc
    n = q.shape[0]
    if count == 0:
        return np.empty((0, n))
    z = np.random.default_rng(rng).standard_normal((count, n))
    # solve L^T x = z  ->  cov(x) = (L L^T)^{-1} = Q^{-1}
    x = scipy.linalg.solve_triangular(chol.T, z.T, lower=False)
    return x.T


def empirical_precision(samples: np.ndarray) -> PrecisionEstimate:
    """Invert the mean-removed sample covariance of (K+1, n) patch
    attribute observations; pseudo-inverse (flagged) when singular."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    cov = np.cov(samples, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    eigvals = np.linalg.eigvalsh(cov)
    deficient = eigvals[0] <= 1e-10 * max(eigvals[-1], 1e-30)
    if deficient:
        precision = np.linalg.pinv(cov, hermitian=True)
    else:
        precision = np.linalg.inv(cov)
    precision = (precision + precision.T) / 2.0
    return PrecisionEstimate(matrix=precision, sample_count=samples.shape[0],
                             rank_deficient=bool(deficient))


def compare_to_laplacian(estimate: PrecisionEstimate,
                         lap: np.ndarray) -> SimilarityReport:
    """How well the empirical precision matches the (n, n) generalized
    Laplacian on the Laplacian's off-diagonal support.  A score with
    nothing to measure (no support; for the correlation, also a single
    entry or constant values) is nan."""
    l = np.asarray(lap, dtype=np.float64)
    q = estimate.matrix
    if l.shape != q.shape:
        raise ValueError("dimension mismatch")
    n = l.shape[0]
    iu = np.triu_indices(n, k=1)
    support = l[iu] != 0
    support_size = int(np.count_nonzero(support))
    total_offdiag = n * (n - 1) // 2
    sparsity = support_size / total_offdiag if total_offdiag else 0.0

    if support_size == 0:  # nothing to agree or correlate on
        return SimilarityReport(0, float("nan"), float("nan"), sparsity)

    l_vals = l[iu][support]
    q_vals = q[iu][support]
    sign_agreement = float(np.mean(np.sign(q_vals) == np.sign(l_vals)))
    if support_size < 2 or np.std(l_vals) == 0 or np.std(q_vals) == 0:
        corr = float("nan")
    else:
        corr = float(np.corrcoef(l_vals, q_vals)[0, 1])
    return SimilarityReport(support_size=support_size,
                            sign_agreement=sign_agreement,
                            support_correlation=corr,
                            sparsity_ratio=sparsity)
