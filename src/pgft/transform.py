"""Spectral transforms and the temporal predictor.

The encoder and decoder independently eigendecompose identical dense
Laplacian arrays.  The bases agree exactly in one process and up to
rounding across BLAS settings and CPUs, which is what the coded values
need, provided the signs and order agree: eigenvalues ascend, every
eigenvector's first nonzero component is positive, and degenerate
groups are ordered lexicographically by entries, read from U as
LAPACK's `dsyevd` forms it.

A basis is held as its LAPACK factors, never as a dense U: the codec
only applies U^T or U to a few columns per cluster.  `dsytrd` reduces
the symmetric L to a tridiagonal T = Q^T L Q, with Q kept as its
Householder reflectors, and `dstedc` (divide and conquer) gives
T = Z diag(lambda) Z^T.  Then U = Q Z, U^T x = Z^T (Q^T x) and
U c = Q (Z c), with Q applied by `dormtr`.  These are `dsyevd`'s own
stages without its last, which spends 2n^3 flops forming U.  Q's first
row is e_1, so Z's first row is U's and settles most signs and orders;
`_canonicalize` forms the few columns of U it does not settle.  The
routines are scipy's own LAPACK, called through ctypes on the function
pointers `scipy.linalg.cython_lapack` exports, so each call releases
the GIL and the codec's worker threads decompose clusters in parallel.

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

import ctypes
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cython_lapack

_SIGN_TOL = 1e-12
_DEGENERACY_TOL = 1e-9


def _lapack(name: str, *argtypes):
    """scipy's LAPACK routine `name` as a ctypes function, which releases
    the GIL while it runs (scipy.linalg.lapack's wrappers hold it)."""
    capsule = cython_lapack.__pyx_capi__[name]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    return ctypes.CFUNCTYPE(None, *argtypes)(get_pointer(capsule,
                                                         get_name(capsule)))


# Every argument is a pointer: characters, LP64 ints and double arrays.
_C, _I, _D = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
# (uplo, n, a, lda, d, e, tau, work, lwork, info)
_dsytrd = _lapack("dsytrd", _C, _I, _D, _I, _D, _D, _D, _D, _I, _I)
# (compz, n, d, e, z, ldz, work, lwork, iwork, liwork, info)
_dstedc = _lapack("dstedc", _C, _I, _D, _D, _D, _I, _D, _I, _D, _I, _I)
# (side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork, info)
_dormtr = _lapack("dormtr", _C, _C, _C, _I, _I, _D, _I, _D, _D, _I, _D, _I, _I)


def _int(value: int):
    return ctypes.byref(ctypes.c_int(value))


def _run(name: str, routine, *args):
    """Call `routine` with `args` and a trailing info argument."""
    info = ctypes.c_int(0)
    routine(*args, ctypes.byref(info))
    if info.value:
        raise np.linalg.LinAlgError(f"LAPACK {name} returned info={info.value}")


def _apply_q(reflectors: np.ndarray, tau: np.ndarray, c: np.ndarray,
             trans: bytes, blocked: bool = False):
    """Overwrite the F-ordered (n, m) array c with Q c (trans b"N") or
    Q^T c (b"T"); Q is dsytrd's, given by `reflectors` and `tau`.

    `blocked` gives dormtr workspace for blocks of reflectors, as much
    as dsyevd gives it to form U, so the product rounds as dsyevd's
    does (dormtr's own workspace query leaves out the block reflector,
    and narrower blocks round otherwise).  Without it, dormtr applies
    one reflector at a time, which takes half as long on 1 to 3 columns."""
    n, m = c.shape
    if n < 2 or m == 0:
        return  # Q = I
    # dormqr's widest block (64 reflectors) and its block reflector
    work = np.empty(64 * m + 65 * 64 if blocked else m)
    _run("dormtr", _dormtr, b"L", b"L", trans, _int(n), _int(m),
         reflectors.ctypes.data, _int(n), tau.ctypes.data, c.ctypes.data,
         _int(n), work.ctypes.data, _int(work.size))


def _tridiagonal_eigen(a: np.ndarray):
    """Eigendecompose the F-ordered symmetric (n, n) array `a`, n >= 1,
    from its lower triangle.  `a` is overwritten by dsytrd's reflectors;
    returns (eigenvalues ascending, tau, Z), with L = Q Z diag(values)
    Z^T Q^T."""
    n = a.shape[0]
    d, e, tau = np.empty(n), np.empty(max(1, n - 1)), np.empty(max(1, n - 1))
    size, isize = np.zeros(1), np.zeros(1, dtype=np.intc)  # lwork = -1 queries
    head = (b"L", _int(n), a.ctypes.data, _int(n), d.ctypes.data,
            e.ctypes.data, tau.ctypes.data)
    _run("dsytrd", _dsytrd, *head, size.ctypes.data, _int(-1))
    work = np.empty(int(size[0]))
    _run("dsytrd", _dsytrd, *head, work.ctypes.data, _int(work.size))
    z = np.empty((n, n), order="F")
    head = (b"I", _int(n), d.ctypes.data, e.ctypes.data, z.ctypes.data,
            _int(n))
    _run("dstedc", _dstedc, *head, size.ctypes.data, _int(-1),
         isize.ctypes.data, _int(-1))
    work, iwork = np.empty(int(size[0])), np.empty(int(isize[0]), dtype=np.intc)
    _run("dstedc", _dstedc, *head, work.ctypes.data, _int(work.size),
         iwork.ctypes.data, _int(iwork.size))
    return d, tau[:n - 1], z


def _as_columns(x) -> np.ndarray:
    """x of shape (n, ...) as an (n, m) float64 array."""
    x = np.asarray(x, dtype=np.float64)
    return x.reshape(x.shape[0], math.prod(x.shape[1:]))


@dataclass(frozen=True)
class TransformBasis:
    """The eigenbasis U = Q Z of a symmetric (n, n) matrix, factored:
    Q as dsytrd's Householder reflectors (`reflectors` below its
    subdiagonal, and `tau`), Z the eigenvectors of the tridiagonal."""

    reflectors: np.ndarray   # (n, n) F-ordered dsytrd output, uplo "L"
    tau: np.ndarray          # (n - 1,) reflector scales
    vectors: np.ndarray      # (n, n) F-ordered Z, canonical columns
    eigenvalues: np.ndarray  # (n,) ascending

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        """U^T x for x of shape (n, ...), in O(n^2) per column."""
        c = np.array(_as_columns(x), order="F")
        _apply_q(self.reflectors, self.tau, c, b"T")
        return (self.vectors.T @ c).reshape(np.shape(x))

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """U c for c of shape (n, ...), in O(n^2) per column."""
        c = np.asfortranarray(self.vectors @ _as_columns(coeffs))
        _apply_q(self.reflectors, self.tau, c, b"N")
        return c.reshape(np.shape(coeffs))

    @property
    def basis(self) -> np.ndarray:
        """The dense (n, n) U, formed in O(n^3) on every access."""
        u = np.array(self.vectors, order="F")
        _apply_q(self.reflectors, self.tau, u, b"N", blocked=True)
        return u


def _canonicalize(values, reflectors, tau, z):
    """Flip, in place, every column of Z whose column of U = Q Z has a
    negative first nonzero entry, then order the columns of each group
    of (numerically) equal eigenvalues lexicographically by their
    entries in U.  Returns the reordered eigenvalues.

    Q's first row and column are e_1, so U[0, :] equals Z[0, :] bit for
    bit.  A column of U is formed only when its first entry is within
    _SIGN_TOL of zero or it belongs to a degenerate group; and all of U
    is, as dsyevd forms it, when two columns of a group tie in row 0.
    Then later rows decide their order, and entries there that are zero
    but for rounding round differently when fewer columns are formed."""
    n = values.shape[0]
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    bounds = np.concatenate(
        ([0], np.flatnonzero(np.diff(values) > _DEGENERACY_TOL * scale) + 1, [n]))
    groups = np.flatnonzero(np.diff(bounds) > 1)
    grouped = np.zeros(n, dtype=bool)
    tied = False
    for start, stop in zip(bounds[groups], bounds[groups + 1]):
        grouped[start:stop] = True
        tied |= np.unique(np.abs(z[0, start:stop])).size < stop - start
    needed = grouped | (np.abs(z[0]) <= _SIGN_TOL) | tied
    u = np.array(z[:, needed], order="F")  # those columns of U
    _apply_q(reflectors, tau, u, b"N", blocked=tied)
    signs = np.sign(z[0])
    first = np.argmax(np.abs(u) > _SIGN_TOL, axis=0)
    signs[needed] = np.sign(u[first, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    z *= signs
    u *= signs[needed]
    order = np.arange(n)
    column = np.cumsum(needed) - 1  # where u holds each column of U
    for start, stop in zip(bounds[groups], bounds[groups + 1]):
        # lexsort: last key is primary, so reverse the rows.
        order[start:stop] = start + np.lexsort(u[::-1, column[start:stop]])
        z[:, start:stop] = z[:, order[start:stop]]
    return values[order]


def eigendecompose(matrix) -> TransformBasis:
    """Canonically ordered, factored eigendecomposition of a symmetric
    (n, n) array of finite entries; a zero eigenvalue is always +0.0.

    `matrix` is the array, read from its lower triangle and left
    unchanged, or a function of no arguments that builds a new one.
    Such an array is tridiagonalised in place, so its buffer becomes the
    reflectors and no n x n copy is made; in C order it is read from its
    upper triangle, which is the same for an exactly symmetric array."""
    fresh = callable(matrix)
    m = np.asarray(matrix() if fresh else matrix, dtype=np.float64)
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
    n = m.shape[0]
    reflectors = (np.asfortranarray(m.T if m.flags.c_contiguous else m)
                  if fresh else np.array(m, order="F"))
    if n == 0:
        return TransformBasis(reflectors=reflectors, tau=np.zeros(0),
                              vectors=np.zeros((0, 0), order="F"),
                              eigenvalues=np.zeros(0))
    values, tau, z = _tridiagonal_eigen(reflectors)
    values += 0.0  # -0.0 becomes +0.0, so equal spectra hash alike
    values = _canonicalize(values, reflectors, tau, z)
    return TransformBasis(reflectors=reflectors, tau=tau, vectors=z,
                          eigenvalues=values)


def gft_forward(signal: np.ndarray, basis: TransformBasis) -> np.ndarray:
    """Project a graph signal onto the basis: coefficients = U^T f."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.shape[0] != basis.n:
        raise ValueError("signal length does not match basis size")
    return basis.project(signal)


def gft_inverse(coeffs: np.ndarray, basis: TransformBasis) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape[0] != basis.n:
        raise ValueError("coefficient length does not match basis size")
    return basis.synthesize(coeffs)


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
    return gain * basis.project(ref)
