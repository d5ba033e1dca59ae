"""Dense complex linear algebra helpers.

Thin wrappers around numpy/scipy: singular values, deterministic kernel
extraction with a relative singular-value threshold, and the unitarity
defect ||a a* - 1|| that the certificates and the family validators share.
Everything is double precision; inputs are validated to be finite.

Every SVD here is LAPACK's divide-and-conquer driver 'gesdd' (Gu-Eisenstat,
SIAM J. Matrix Anal. Appl. 16, 1995), named once in SVD_DRIVER, so that
reported dimensions are reproducible; numpy's batched SVD, from which the
unitarity defect of a stack of matrices takes its norms, is gesdd too.  A
kernel is computed from the rows of the matrix that are not exactly zero,
copied once in Fortran order; when they are more than the columns, gesdd runs
on the triangular factor R of a Householder QR ('geqrf') of that copy,
factored in place, and otherwise on the rows themselves.  Zero rows and the
QR leave a^H a unchanged, so the singular values (up to zeros) and the right
singular vectors are those of the matrix as given.

Why gesdd (one OpenBLAS thread, 2-vCPU host): forming the singular vectors
was most of a kernel's time under 'gesvd', and gesdd forms them with less
work.  The whole kernel of F3's level-6 operator (1,458 x 729 nonzero rows)
went from 2.7-3.7 s to 0.80-0.99 s, and that of F4 level 5 (3,072 x 1,024)
from 7.6-8.3 s to 2.8-3.3 s.  On every level of F3 to 5, F4 to 4, S3 and Z6
to 3, sigma agrees with gesvd's to 1e-15 sigma[0] and the kernels to a
principal-angle sine of 1.3e-14.  The price is a real workspace of about
5 n^2 doubles for n columns (2.6 MB at n = 256).  Values-only gesvd plus a
column-pivoted QR of R^H would be about as fast, but pivoted QR is not
rank-revealing (Golub-Van Loan, Matrix Computations, 5.4): on the 90 x 90
Kahan matrix K it leaves |R_nn| = 0.023 against sigma_n = 8.8e-12, and its
kernel vector b of a = J K^H J (J the reversal) has ||a b|| = 1.4e-6, where
gesdd's reads 8.8e-12.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

# The one LAPACK SVD driver of the package (see the module docstring).
SVD_DRIVER = "gesdd"
DEFAULT_REL_TOL = 1e-8
# Below this gap (see KernelResult) the threshold cuts through a cluster of
# singular values, so the count below it is no dimension: `qdims` and
# `group` refuse such a level (exit 4).  For scale, F4(q) at q = i e^(i 1e-7)
# separates by 1.8e6 and the benchmark inputs by 5.8e11 or more.
MIN_GAP = 1e3


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def singular_values(a) -> np.ndarray:
    """Singular values in nonincreasing order (empty input allowed)."""
    m = as_matrix(a)
    if m.size == 0:
        return np.zeros(0)
    return scipy.linalg.svd(m, compute_uv=False, lapack_driver=SVD_DRIVER)


def operator_norm(a) -> float:
    s = singular_values(a)
    return float(s[0]) if len(s) else 0.0


def unitary_defect(a) -> float:
    """The unitarity defect ||a a* - 1|| of a square matrix, or the largest
    over a stack of them (shape (..., n, n)): the largest singular value of
    a a* - 1, from one batched SVD."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    gram = a @ np.swapaxes(a, -1, -2).conj()
    gram -= np.eye(a.shape[-1])
    return float(np.max(np.linalg.norm(gram, 2, axis=(-2, -1))))


def worst(residuals) -> float:
    """The largest residual, 0 for none and NaN if any is NaN (Python's max
    would let a NaN pass as small)."""
    return float(np.max(list(residuals), initial=0.0))


class KernelResult(NamedTuple):
    """Kernel of a matrix from one divide-and-conquer SVD (SVD_DRIVER).

    basis: columns form an l2-orthonormal basis of the kernel, the right
    singular vectors whose singular values are at most the threshold.
    sigma: the min(rows, cols) singular values, nonincreasing; those past
    the number of nonzero rows are exactly zero.
    gap: smallest kept (rank-part) singular value divided by the largest
    discarded (kernel-part) one, floored at eps * max(rows, cols) * sigma[0]
    (numpy's matrix_rank tolerance), with rows and cols the shape of the
    matrix as given, zero rows included.  Below that floor a singular value
    is roundoff, and a ratio over roundoff would be noise.  inf when either
    side is empty.
    """

    basis: np.ndarray
    dim: int
    sigma: np.ndarray
    threshold: float
    gap: float


def roundoff_floor(shape, sigma) -> float:
    """eps * max(rows, cols) * sigma[0] (numpy's matrix_rank tolerance): below
    it a singular value of a matrix of that shape and spectrum is roundoff."""
    return float(np.finfo(float).eps * max(shape) * np.max(sigma, initial=0.0))


def _nonzero_rows(m: np.ndarray) -> np.ndarray:
    """The rows of m that are not exactly zero, as a Fortran-ordered copy.

    The rows are gathered once, straight into the transpose of a C-ordered
    buffer: np.take with mode "clip" writes to it unbuffered, and LAPACK then
    works on it without a further copy.
    """
    idx = np.flatnonzero(m.any(axis=1))
    buf = np.empty((m.shape[1], len(idx)), dtype=m.dtype)
    return np.take(m.T, idx, axis=1, out=buf, mode="clip").T


def _triangular_factor(m: np.ndarray) -> np.ndarray:
    """The cols x cols factor R of a Householder QR of a tall m (LAPACK geqrf).

    m is overwritten: the LAPACK result holds R above the diagonal and the
    reflectors below it, in m's own storage when m is Fortran-ordered.  Only R
    is copied out, in Fortran order, so Q is never formed.
    """
    geqrf, geqrf_lwork = scipy.linalg.get_lapack_funcs(("geqrf", "geqrf_lwork"), (m,))
    work, _ = geqrf_lwork(*m.shape)
    qr, _, _, info = geqrf(m, lwork=int(work.real), overwrite_a=True)  # default lwork is unblocked
    if info != 0:
        raise np.linalg.LinAlgError(f"geqrf failed with info={info}")
    r = np.array(qr[:m.shape[1]], order="F")
    r[np.tri(len(r), k=-1, dtype=bool)] = 0.0  # drop the reflectors below the diagonal
    return r


def kernel_basis(a, rel_tol: float = DEFAULT_REL_TOL, abs_tol: float = 0.0) -> KernelResult:
    """Kernel by SVD: directions with singular value <= max(rel_tol*s[0], abs_tol).

    Only the rows that are not exactly zero are factored, from one private
    copy; the input is never written.  When they are more than the columns,
    the copy is reduced in place to the triangular factor R of its QR
    factorization and released, and gesdd runs on R, so the left singular
    vectors it forms are those of R, never of the matrix.  The gap floor
    uses the shape of the input as given.  The absolute cutoff matters when
    the whole matrix is numerically zero (s[0] at roundoff scale), where a
    purely relative threshold would keep noise as rank.
    """
    m = as_matrix(a)
    rows, cols = m.shape
    if cols == 0:
        return KernelResult(np.zeros((0, 0), dtype=complex), 0, np.zeros(0), 0.0, float("inf"))
    m = _nonzero_rows(m)
    if len(m) == 0:
        return KernelResult(np.eye(cols, dtype=complex), cols, np.zeros(min(rows, cols)),
                            0.0, float("inf"))
    if len(m) > cols:
        m = _triangular_factor(m)  # the copy of the rows is released here
    # fewer rows than columns: full_matrices for the trailing right-singular vectors
    _, s, vh = scipy.linalg.svd(m, full_matrices=len(m) < cols, overwrite_a=True,
                                lapack_driver=SVD_DRIVER)
    # the zero rows add zero singular values, which belong to the kernel
    s = np.concatenate([s, np.zeros(min(rows, cols) - len(s))])
    threshold = max(rel_tol * s[0], abs_tol)
    small = s <= threshold
    in_kernel = np.ones(vh.shape[0], dtype=bool)
    in_kernel[:len(s)] = small
    basis = vh[in_kernel].conj().T
    kept, discarded = s[~small], s[small]
    gap = float("inf")
    if len(kept) and len(discarded):
        gap = float(kept[-1] / max(discarded[0], roundoff_floor((rows, cols), s)))
    return KernelResult(basis, basis.shape[1], s, threshold, gap)

