"""Spectral transforms and the temporal predictor.

The encoder and decoder independently eigendecompose identical dense
Laplacian arrays.  The bases agree exactly in one process and up to
rounding across BLAS settings and CPUs, which is what the coded values
need, provided both fix each eigenvector's sign and the basis inside
each group of repeated eigenvalues alike.  They read both from fixed
seeded probes R (`_canonicalize`): eigenvalues ascend, a group's
columns are its projector's images of the probes orthonormalised in
probe order, and a lone column's sign makes u^T r_0 > 0, with r_0 a
normal draw plus 1 so that a constant vector comes out positive.  The
rule reads only U^T R, which rounding moves by rounding.

A basis is held as its LAPACK factors, never as a dense U: the codec
only applies U^T or U to a few columns per cluster.  `dsytrd` reduces
the symmetric L to a tridiagonal T = Q^T L Q, with Q kept as its
Householder reflectors, and `dstedc` (divide and conquer) gives
T = Z diag(lambda) Z^T.  Then U = Q Z, U^T x = Z^T (Q^T x) and
U c = Q (Z c), with Q applied by `dormtr`.  These are `dsyevd`'s own
stages without its last, which spends 2n^3 flops forming U.  The
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
             trans: bytes):
    """Overwrite the F-ordered (n, m) array c with Q c (trans b"N") or
    Q^T c (b"T"); Q is dsytrd's, given by `reflectors` and `tau`.  The
    workspace is dormtr's own query, which applies one reflector at a
    time to a few columns and blocks of them to many."""
    n, m = c.shape
    if n < 2 or m == 0:
        return  # Q = I
    head = (b"L", b"L", trans, _int(n), _int(m), reflectors.ctypes.data,
            _int(n), tau.ctypes.data, c.ctypes.data, _int(n))
    size = np.zeros(1)  # lwork = -1 query
    _run("dormtr", _dormtr, *head, size.ctypes.data, _int(-1))
    work = np.empty(int(size[0]))
    _run("dormtr", _dormtr, *head, work.ctypes.data, _int(work.size))


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


def _probes(n: int, width: int) -> np.ndarray:
    """The fixed probes R, an F-ordered (n, width) array: column k holds
    the k-th n draws of one seeded normal stream, and column 0 is raised
    by 1, so a constant vector's projection on it is positive."""
    r = np.random.default_rng(0).standard_normal((width, n)).T
    r[:, 0] += 1.0
    return r


def _canonicalize(values, reflectors, tau, z):
    """Make, in place, the columns of Z those of the canonical U = Q Z.

    Eigenvalues within _DEGENERACY_TOL * scale of their neighbour form a
    group.  A group of k columns becomes the images of the first k
    probes under its projector U_g U_g^T, orthonormalised in probe order
    with each r_ii > 0; for a lone column that is the sign that makes
    u^T r_0 > 0.  Both read only U^T R = Z^T (Q^T R), which rounding
    moves by rounding, and give one U for any rotation and signs of the
    columns within each group."""
    n = values.shape[0]
    scale = max(1.0, float(np.abs(values).max(initial=0.0)))
    bounds = np.concatenate(
        ([0], np.flatnonzero(np.diff(values) > _DEGENERACY_TOL * scale) + 1, [n]))
    r = _probes(n, int(np.diff(bounds).max()))
    _apply_q(reflectors, tau, r, b"T")
    proj = z.T @ r  # U^T R
    signs = np.copysign(1.0, proj[:, 0])
    z *= signs
    proj *= signs[:, None]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop - start > 1:
            q, tri = np.linalg.qr(proj[start:stop, :stop - start])
            q *= np.copysign(1.0, np.diag(tri))
            z[:, start:stop] = z[:, start:stop] @ q


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
    _canonicalize(values, reflectors, tau, z)
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
