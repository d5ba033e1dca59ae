"""Dense complex linear algebra helpers.

Thin wrappers around numpy/scipy: singular values, deterministic kernel
extraction with a relative singular-value threshold, and operator-norm
defects.  Everything is double precision; inputs are validated to be finite.
Singular value decompositions use one fixed LAPACK driver ('gesvd') so that
reported dimensions are reproducible; for a kernel of a tall matrix it runs
on the triangular factor R of a Householder QR ('geqrf'), which has the same
singular values and right singular vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

DEFAULT_REL_TOL = 1e-8


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def subtract_identity(a) -> np.ndarray:
    m = as_matrix(a).copy()
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"subtract_identity needs a square matrix, got {m.shape}")
    m[np.diag_indices_from(m)] -= 1.0
    return m


def singular_values(a) -> np.ndarray:
    """Singular values in nonincreasing order (empty input allowed)."""
    m = as_matrix(a)
    if m.size == 0:
        return np.zeros(0)
    return scipy.linalg.svd(m, compute_uv=False, lapack_driver="gesvd")


def operator_norm(a) -> float:
    s = singular_values(a)
    return float(s[0]) if len(s) else 0.0


def operator_norm_defect(a) -> float:
    """Largest singular value of a - I."""
    return operator_norm(subtract_identity(a))


@dataclass
class KernelResult:
    """Kernel of a matrix by rank-revealing SVD.

    basis: columns form an l2-orthonormal basis of the kernel.
    sigma: the min(rows, cols) singular values, nonincreasing.
    gap: smallest kept (rank-part) singular value divided by the largest
    discarded (kernel-part) one, floored at eps * max(rows, cols) * sigma[0]
    (numpy's matrix_rank tolerance).  Below that floor a singular value is
    roundoff, and a ratio over roundoff would be noise.  inf when either
    side is empty.
    """

    basis: np.ndarray
    dim: int
    sigma: np.ndarray
    threshold: float
    gap: float


def _triangular_factor(m: np.ndarray) -> np.ndarray:
    """The cols x cols factor R of a Householder QR of a tall m (LAPACK geqrf).

    The LAPACK result holds R above the diagonal and the reflectors below it,
    a rows x cols array; only R is copied out, so that array and Q are dropped.
    """
    geqrf, geqrf_lwork = scipy.linalg.get_lapack_funcs(("geqrf", "geqrf_lwork"), (m,))
    work, _ = geqrf_lwork(*m.shape)
    qr, _, _, info = geqrf(m, lwork=int(work.real))  # default lwork is unblocked
    if info != 0:
        raise np.linalg.LinAlgError(f"geqrf failed with info={info}")
    return np.triu(qr[:m.shape[1]])


def kernel_basis(a, rel_tol: float = DEFAULT_REL_TOL, abs_tol: float = 0.0) -> KernelResult:
    """Kernel by SVD: directions with singular value <= max(rel_tol*s[0], abs_tol).

    A tall matrix is first reduced to the triangular factor R of its QR
    factorization, which has the same singular values and right singular
    vectors; its left singular vectors are never formed.  The absolute cutoff
    matters when the whole matrix is numerically zero (s[0] at roundoff
    scale), where a purely relative threshold would keep noise as rank.
    """
    m = as_matrix(a)
    rows, cols = m.shape
    if cols == 0:
        return KernelResult(np.zeros((0, 0), dtype=complex), 0, np.zeros(0), 0.0, float("inf"))
    if rows == 0 or not m.any():
        return KernelResult(np.eye(cols, dtype=complex), cols, np.zeros(min(rows, cols)),
                            0.0, float("inf"))
    if rows > cols:
        m = _triangular_factor(m)
    # rows < cols: full_matrices for the trailing right-singular vectors
    _, s, vh = scipy.linalg.svd(m, full_matrices=rows < cols, lapack_driver="gesvd")
    threshold = max(rel_tol * s[0], abs_tol)
    small = s <= threshold
    in_kernel = np.ones(vh.shape[0], dtype=bool)
    in_kernel[:len(s)] = small
    basis = vh[in_kernel].conj().T
    kept, discarded = s[~small], s[small]
    gap = float("inf")
    if len(kept) and len(discarded):
        floor = np.finfo(float).eps * max(rows, cols) * s[0]
        gap = float(kept[-1] / max(discarded[0], floor))
    return KernelResult(basis, basis.shape[1], s, threshold, gap)


def lstsq_residual(a, b) -> float:
    """Relative residual of the least-squares solution of a x = b."""
    m = as_matrix(a)
    rhs = np.asarray(b, dtype=complex).reshape(-1)
    x, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    return float(np.linalg.norm(m @ x - rhs)) / scale
