"""Spectral transforms and the temporal predictor.

The encoder and decoder independently eigendecompose identical dense
Laplacian arrays.  The bases agree exactly in one process and up to
rounding across BLAS settings and CPUs, which is what the coded values
need, provided the signs and order agree: eigenvalues ascend, every
eigenvector's first nonzero component is positive, and degenerate
groups are ordered lexicographically by entries.

One basis per cluster serves every purpose.  Under the GMRF whose
joint precision is [[L + wI, -wI], [-wI, L_ref + wI]] (every temporal
edge of precision w), the generalized Laplacian L + wI has the
eigenvectors of the combinatorial L with every eigenvalue raised by w,
so the eigenbasis U of L is also the GGFT basis that decorrelates the
inter residual, and the optimal predictor w (L + wI)^{-1} x_ref is the
spectral low-pass filter U diag(w / (w + lambda)) U^T x_ref;
`inter_predict` returns its coefficients.  The codec takes w from the
quantizer step (`rdo.temporal_precision`), so any w costs no extra
eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SIGN_TOL = 1e-12
_DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class TransformBasis:
    basis: np.ndarray        # (n, n) orthonormal, columns = eigenvectors
    eigenvalues: np.ndarray  # (n,) ascending

    @property
    def n(self) -> int:
        return self.basis.shape[0]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip, in place, every column whose first nonzero entry is negative."""
    nonzero = np.abs(vectors) > _SIGN_TOL
    first = np.argmax(nonzero, axis=0)
    cols = np.arange(vectors.shape[1])
    signs = np.sign(vectors[first, cols])
    signs[signs == 0] = 1.0
    vectors *= signs
    return vectors


def _order_degenerate_groups(values: np.ndarray, vectors: np.ndarray):
    """Within groups of (numerically) equal eigenvalues, order the
    columns lexicographically by their entries.  The basis comes back
    Fortran-ordered whether or not a column moved: `basis.T @ x` rounds
    differently for C- and F-ordered operands."""
    n = values.shape[0]
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    bounds = np.concatenate(
        ([0], np.flatnonzero(np.diff(values) > _DEGENERACY_TOL * scale) + 1, [n]))
    groups = np.flatnonzero(np.diff(bounds) > 1)
    if not groups.size:
        return values, np.asfortranarray(vectors)
    order = np.arange(n)
    for start, stop in zip(bounds[groups], bounds[groups + 1]):
        # lexsort: last key is primary, so reverse the rows.
        order[start:stop] = start + np.lexsort(vectors[::-1, start:stop])
    return values[order], vectors[:, order]


def eigendecompose(matrix: np.ndarray) -> TransformBasis:
    """Canonically ordered eigendecomposition of a symmetric (n, n) array
    of finite entries; a zero eigenvalue is always +0.0."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    # Written so that NaN fails the test: a NaN or inf entry makes the
    # asymmetry NaN or inf.
    with np.errstate(invalid="ignore"):
        asymmetry = np.max(np.abs(m - m.T), initial=0.0)
    if not asymmetry <= 1e-12:
        bad = np.argwhere(~np.isfinite(m))
        if bad.size:
            raise ValueError(f"matrix has non-finite entries ({len(bad)}), "
                             f"the first at {tuple(map(int, bad[0]))}")
        raise ValueError("matrix is not symmetric")
    values, vectors = np.linalg.eigh(m)
    values += 0.0  # -0.0 becomes +0.0, so equal spectra hash alike
    vectors = _fix_signs(vectors)
    values, vectors = _order_degenerate_groups(values, vectors)
    return TransformBasis(basis=vectors, eigenvalues=values)


def gft_forward(signal: np.ndarray, basis: TransformBasis) -> np.ndarray:
    """Project a graph signal onto the basis: coefficients = Phi^T f."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.shape[0] != basis.n:
        raise ValueError("signal length does not match basis size")
    return basis.basis.T @ signal


def gft_inverse(coeffs: np.ndarray, basis: TransformBasis) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape[0] != basis.n:
        raise ValueError("coefficient length does not match basis size")
    return basis.basis @ coeffs


def inter_predict(basis: TransformBasis, ref_attrs: np.ndarray,
                  w: float) -> np.ndarray:
    """Coefficients g * U^T x_ref of the temporal prediction
    w (L + wI)^{-1} x_ref, per channel, for temporal precision w > 0.

    `basis` is the eigenbasis U of the target cluster's combinatorial
    Laplacian L; g = 1 / (1 + lambda / w) = w / (w + lambda) scales each
    graph frequency lambda, so the DC gain is 1 and w = 1 gives
    1 / (1 + lambda) bit for bit.
    """
    if not (math.isfinite(w) and w > 0):
        raise ValueError(f"temporal precision w={w!r} must be finite and positive")
    ref = np.asarray(ref_attrs, dtype=np.float64)
    if ref.shape[0] != basis.n:
        raise ValueError("reference attribute length does not match cluster size")
    scale = max(1.0, float(np.abs(basis.eigenvalues).max(initial=0.0)))
    if basis.n and abs(basis.eigenvalues[0]) > _DEGENERACY_TOL * scale:
        raise ValueError("inter_predict expects the eigenbasis of the "
                         "combinatorial Laplacian")
    gain = 1.0 / (1.0 + basis.eigenvalues / w)
    gain = gain.reshape(gain.shape + (1,) * (ref.ndim - 1))
    return gain * (basis.basis.T @ ref)
