"""A second route to membership, kept for the tests that cross-check the kernel.

x lies in Q_m iff sigma(x) lies in the image of the (k-l)-fold left
inclusion, that is iff sigma(x) = incl_left^{k-l}(y) for a partner y one
cable down.  The kernel of the membership operator decides this by the
projection F; this module decides it by reconstructing x from y, with F
written as tangles (`left_projection`), so the two can be compared.
"""

import numpy as np

import spinplanar as sp


def left_projection(y: sp.SpinElement, depth: int) -> sp.SpinElement:
    """Orthogonal projection onto the image of the depth-fold left inclusion."""
    delta_pow = y.ctx.delta ** (-depth)
    return delta_pow * sp.incl_left_pow(sp.cond_left_pow(y, depth), depth)


def extract_partner_y(stair: sp.Staircase, m: int, x: sp.SpinElement,
                      tol: float = 1e-9) -> sp.SpinElement:
    """The partner y with sigma(x) = incl_left^{k-l}(y), up to normalization.

    Defined for x in the kernel; raises with the membership residual
    otherwise.  Normalized so that reconstruct_from_partner(y) returns x.
    """
    cab = stair.cab
    sx = sp.sigma(stair, m, x)
    defect = sx - left_projection(sx, cab.depth)
    scale = max(sp.norm(x), 1e-300)
    residual = sp.norm(defect) / scale
    if residual > tol:
        raise ValueError(f"x is not in the level-{m} kernel: relative residual {residual:.3g}")
    return (stair.ctx.delta ** (-cab.depth)) * sp.cond_left_pow(sx, cab.depth)


def reconstruct_from_partner(stair: sp.Staircase, m: int, y: sp.SpinElement) -> sp.SpinElement:
    """Inverse of extract_partner_y on kernel elements.

    x = delta^{-(k-l)} . cond_right^{k-l}( u_(m)* . incl_left^{k-l}(y) . u_(m) ).
    """
    cab = stair.cab
    um = stair.element(m)
    inner = sp.mult(sp.star(um), sp.mult(sp.incl_left_pow(y, cab.depth), um))
    return (stair.ctx.delta ** (-cab.depth)) * sp.cond_right_pow(inner, cab.depth)


def partner_operator(stair: sp.Staircase, m: int) -> np.ndarray:
    """Dense matrix of reconstruct_from_partner over the partner basis.

    Columns run over the basis of the partner color (m*l, eps*(-1)^{k-l});
    x satisfies the membership condition iff it lies in the column span.
    """
    ctx = stair.ctx
    cab = stair.cab
    y_color = sp.SpinColor(m * cab.ell, cab.shading * ((-1) ** cab.depth))
    cols = [sp.vectorize(reconstruct_from_partner(stair, m, sp.make_basis(ctx, idx)))
            for idx in sp.basis_order(ctx, y_color)]
    ambient_dim = sp.color_dim(ctx, cab.ambient_color(m))
    return np.column_stack(cols) if cols else np.zeros((ambient_dim, 0))


def lstsq_residual(a, b) -> float:
    """Relative residual of the least-squares solution of a x = b."""
    m = sp.numerics.as_matrix(a)
    rhs = np.asarray(b, dtype=complex).reshape(-1)
    x, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    return float(np.linalg.norm(m @ x - rhs)) / scale


def membership_by_partner(stair: sp.Staircase, m: int, x: sp.SpinElement,
                          tol: float = 1e-9,
                          recon_matrix: np.ndarray | None = None) -> tuple[bool, float]:
    """Membership via solvability of the reconstruction equation.

    Decides whether some partner y reconstructs to x, by least squares over
    the partner basis; agrees with the kernel condition of q_level.  Pass a
    precomputed partner_operator matrix to amortize over many probes.
    """
    if recon_matrix is None:
        recon_matrix = partner_operator(stair, m)
    residual = lstsq_residual(recon_matrix, sp.vectorize(x))
    return residual <= tol, residual
