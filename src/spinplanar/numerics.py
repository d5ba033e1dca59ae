"""Dense complex linear algebra helpers.

Thin wrappers around numpy/scipy: adjoints, singular values,
deterministic kernel extraction with a relative singular-value threshold, and
operator-norm defects.  Everything is double precision; inputs are validated
to be finite.  One fixed LAPACK driver ('gesvd') is used for all singular
value decompositions so that reported dimensions are reproducible.
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


def adjoint(a) -> np.ndarray:
    return as_matrix(a).conj().T


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
    gap: smallest kept (rank-part) singular value divided by the largest
    discarded (kernel-part) one; inf when either side is empty.
    """

    basis: np.ndarray
    dim: int
    sigma: np.ndarray
    threshold: float
    gap: float


def kernel_basis(a, rel_tol: float = DEFAULT_REL_TOL, abs_tol: float = 0.0) -> KernelResult:
    """Kernel by SVD: directions with singular value <= max(rel_tol*s[0], abs_tol).

    The absolute cutoff matters when the whole matrix is numerically zero
    (s[0] at roundoff scale), where a purely relative threshold would keep
    noise directions as rank.
    """
    m = as_matrix(a)
    rows, cols = m.shape
    if cols == 0:
        return KernelResult(np.zeros((0, 0), dtype=complex), 0, np.zeros(0), 0.0, float("inf"))
    if rows == 0 or not m.any():
        return KernelResult(np.eye(cols, dtype=complex), cols, np.zeros(min(rows, cols)),
                            0.0, float("inf"))
    full = rows < cols  # need the trailing right-singular vectors too
    _, s, vh = scipy.linalg.svd(m, full_matrices=full, lapack_driver="gesvd")
    threshold = max(rel_tol * s[0], abs_tol)
    small = s <= threshold
    kernel_rows = [vh[i] for i in range(len(s)) if small[i]]
    kernel_rows.extend(vh[i] for i in range(len(s), vh.shape[0]))
    if kernel_rows:
        basis = np.array(kernel_rows).conj().T
    else:
        basis = np.zeros((cols, 0), dtype=complex)
    kept = s[~small]
    discarded = s[small]
    if len(kept) == 0 or len(discarded) == 0:
        gap = float("inf")
    else:
        gap = float(kept[-1] / discarded[0]) if discarded[0] > 0 else float("inf")
    return KernelResult(basis, basis.shape[1], s, threshold, gap)


def lstsq_residual(a, b) -> float:
    """Relative residual of the least-squares solution of a x = b."""
    m = as_matrix(a)
    rhs = np.asarray(b, dtype=complex).reshape(-1)
    x, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    return float(np.linalg.norm(m @ x - rhs)) / scale
