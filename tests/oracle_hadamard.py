"""Closed-form tower of a complex Hadamard matrix, independent of the package.

For an n x n complex Hadamard matrix H let xi_ij = H_i / H_j / sqrt(n), the
rows of H divided entrywise, and P_ij = xi_ij xi_ij^*, a rank-one projection
in M_n.  Then u = (P_ij) is a magic unitary, and the level-m space of the
subfactor planar algebra has the dimension of the fixed vectors of u^(x)m
(Banica-Nicoara, arXiv:math/0610529):

    dim Q_m = dim { x in (C^n)^(x)m : sum_J P_(i1 j1) ... P_(im jm) x_J = x_I 1 for all I }

for m >= 1, and dim Q_0 = 1.  The nullity of that linear map is read off
numpy's SVD.  No imports from the package under test.
"""

import numpy as np


def magic_unitary(h) -> np.ndarray:
    """P[i, j] = xi_ij xi_ij^*, an n x n x n x n array."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    xi = h[:, None, :] / h[None, :, :] / np.sqrt(n)
    return xi[..., :, None] * xi[..., None, :].conj()


def fixed_dim(h, m: int, rel_tol: float = 1e-8) -> int:
    """dim Q_m: the nullity of x -> (sum_J u_IJ x_J - x_I 1)_I on (C^n)^(x)m."""
    if m == 0:
        return 1
    p = magic_unitary(h)
    n = p.shape[0]
    # power[I, J] = P_(i1 j1) ... P_(ik jk), multi-indices flattened
    power = p
    for _ in range(m - 1):
        power = np.einsum("IJac,ijcb->IiJjab", power, p).reshape(
            power.shape[0] * n, power.shape[1] * n, n, n)
    size = n ** m
    op = power - np.eye(size)[:, :, None, None] * np.eye(n)
    op = op.transpose(0, 2, 3, 1).reshape(size * n * n, size)
    s = np.linalg.svd(op, compute_uv=False)
    return int(np.sum(s <= rel_tol * max(s[0], 1.0)))


def tower(h, max_level: int) -> list[int]:
    """dim Q_0 .. dim Q_max_level."""
    return [fixed_dim(h, m) for m in range(max_level + 1)]
