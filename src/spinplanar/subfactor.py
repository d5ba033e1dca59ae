"""Level-by-level construction of the planar subalgebra cut out by a biunitary.

Given a {0,l}-biunitary element u of width k, each level m of the l-cabled
algebra carries a membership condition: x belongs to the subalgebra iff the
conjugate sigma(x) = u_(m) . incl_right^{k-l}(x) . u_(m)* lies in the image
of the (k-l)-fold left inclusion.  Writing F for the orthogonal projection
onto that image, the condition is L(x) = sigma(x) - F(sigma(x)) = 0, a
linear equation solved here by assembling L as a dense matrix and extracting
its kernel with a rank-revealing factorization.  L is built blockwise: sigma
of every ambient basis element at once, by batched products over the matrix
blocks of u_(m), and F as a mean over the disjoint supports of the left
inclusion's image, a chunk of columns at a time.

The u_(m) are the staircase elements: alternating products of u and its
back-rotated adjoint, built by a recursion that reproduces the closed forms
of the group-table case exactly.  Minus-shaded levels are obtained by
rotating the plus-shaded kernels; the shaded level-0 space is computed
directly with the staircase unit of the opposite shading.

The group-table oracle predicts every dimension (1, 1, n, n^2, ...) and
exhibits explicit kernel vectors (orbit sums, the multiplicative family
X_g), giving an independent cross-check of the whole pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .core import (MINUS, PLUS, SpinColor, SpinContext, SpinElement,
                   algebra_blocks, basis_order, basis_weight, block_shape,
                   color_dim, mult, star, unit, vectorize, devectorize, norm)
from .ops import (cond_left_pow, cond_right_pow, incl_left_pow,
                  incl_right_pow, rotate_pow)
from .groups import (group_element, orbit_representatives, orbit_sum,
                     predicted_group_dims, x_element)
from . import qit


@dataclass(frozen=True)
class CablingData:
    """Width and rotation step of the generating biunitary, plus its shading.

    The cabled color map sends (n, eta) to (n*l, eps*eta^l): the level-m
    plus-shaded ambient space has color (m*l, eps), the minus-shaded one
    (m*l, eps*(-1)^l), and conjugation by u_(m) lands in (m*l + k - l, eps).
    """

    k: int
    ell: int
    shading: int = PLUS

    def __post_init__(self):
        if not 0 < self.ell < self.k:
            raise ValueError(f"need 0 < ell < k, got ell={self.ell}, k={self.k}")

    @property
    def depth(self) -> int:
        """Number of strands k - l absorbed by the conjugation."""
        return self.k - self.ell

    def ambient_color(self, m: int, minus: bool = False) -> SpinColor:
        eta = MINUS if minus else PLUS
        return SpinColor(m * self.ell, self.shading * (eta ** self.ell))

    def target_color(self, m: int) -> SpinColor:
        return SpinColor(m * self.ell + self.depth, self.shading)


@dataclass
class Staircase:
    """The transport elements u_(m,+) for m = 0..level, plus the shaded unit.

    u_(m,+) has color (m*l + k - l, eps) and is unitary; conjugation by it
    carries the level-m ambient space into the image of the right inclusion.
    """

    ctx: SpinContext
    cab: CablingData
    elements: list[SpinElement]
    zero_minus: SpinElement

    @property
    def level(self) -> int:
        return len(self.elements) - 1

    def element(self, m: int, minus: bool = False) -> SpinElement:
        if minus:
            if m != 0:
                raise ValueError("only the level-0 minus-shaded staircase element is built; "
                                 "higher minus levels come from rotating the plus kernels")
            return self.zero_minus
        if not 0 <= m <= self.level:
            raise ValueError(f"staircase built through level {self.level}, requested {m}")
        return self.elements[m]


def build_staircase(u: SpinElement, ell: int, max_level: int,
                    tol: float = qit.DEFAULT_TOL) -> Staircase:
    """Build u_(0,+) .. u_(max_level,+) by the alternating-product recursion.

    u_(0,+) is the unit of color (k-l, eps), u_(1,+) = u, and
    u_(m+1,+) = mult(incl_right^l(u_(m,+)), incl_left^{m*l}(v)) where v
    alternates between u (odd levels) and rotate_pow(star(u), -l) (even
    levels).  Every staircase element inherits unitarity from the {0,l}
    biunitarity certificate of u, so u must pass it first: a failure raises
    QitValidationError naming the certificate and its residuals.
    """
    if max_level < 0:
        raise ValueError("max_level must be nonnegative")
    cab = CablingData(u.color.width, ell, u.color.shading)
    cert = qit.is_biunitary(u, ell, tol)
    if not cert.verdict:
        raise qit.QitValidationError(f"{cert.kind}-biunitarity certificate", cert.residuals)
    ctx = u.ctx
    elements = [unit(ctx, SpinColor(cab.depth, cab.shading))]
    back = rotate_pow(star(u), -ell)
    for m in range(max_level):
        v = u if (m + 1) % 2 == 1 else back
        if m == 0:
            elements.append(v)
        else:
            elements.append(mult(incl_right_pow(elements[m], ell),
                                 incl_left_pow(v, m * ell)))
    zero_minus = unit(ctx, SpinColor(cab.depth, cab.shading * ((-1) ** ell)))
    return Staircase(ctx, cab, elements, zero_minus)


def sigma(stair: Staircase, m: int, x: SpinElement, minus: bool = False) -> SpinElement:
    """Conjugate x by the staircase element: u_(m) . incl_right^{k-l}(x) . u_(m)*.

    An isometry for the normalized-trace inner product (the right inclusion
    preserves the normalized trace and u_(m) is unitary).
    """
    cab = stair.cab
    expected = cab.ambient_color(m, minus)
    if x.color != expected:
        raise ValueError(f"level-{m} ambient color is {expected}, got {x.color}")
    um = stair.element(m, minus)
    return mult(um, mult(incl_right_pow(x, cab.depth), star(um)))


def left_projection(y: SpinElement, depth: int) -> SpinElement:
    """Orthogonal projection onto the image of the depth-fold left inclusion."""
    delta_pow = y.ctx.delta ** (-depth)
    return delta_pow * incl_left_pow(cond_left_pow(y, depth), depth)


@dataclass
class MembershipOperator:
    """The map L(x) = sigma(x) - F(sigma(x)) as a dense matrix.

    Columns run over the ambient basis at the given level, rows over the
    basis of the color of u_(m): (m*l + k - l, eps) on the plus side and
    (k - l, eps*(-1)^l) at the minus-shaded level 0.  x is in the subalgebra
    iff its coefficient vector lies in the kernel.
    """

    level: int
    minus: bool
    ambient_color: SpinColor
    target_color: SpinColor
    matrix: np.ndarray


# Columns of L are built a chunk at a time, so that besides L only one chunk's
# temporaries are alive; the factorization after assembly sets the peak memory.
_CHUNK_BYTES = 1 << 21


def _image_supports(ctx: SpinContext, color: SpinColor, include, times: int) -> np.ndarray:
    """Row j: the positions, ascending, of include(e_j, times) for basis element e_j.

    include is incl_right_pow or incl_left_pow.  Their images of distinct
    basis elements have disjoint supports and unit coefficients, so a single
    call on the element that carries the label j + 1 at e_j reads off every
    support at once.
    """
    labeled = SpinElement(ctx, color, {idx: j + 1.0 + 0j
                                       for j, idx in enumerate(basis_order(ctx, color))})
    labels = vectorize(include(labeled, times)).real.astype(np.int64)
    order = np.argsort(labels, kind="stable")
    return order[len(labels) - np.count_nonzero(labels):].reshape(color_dim(ctx, color), -1)


def membership_operator(stair: Staircase, m: int, minus: bool = False) -> MembershipOperator:
    """Assemble L blockwise, from the matrix blocks of u_(m), in column chunks.

    incl_right^{k-l} sends each ambient basis element to a sum of matrix
    units of the target, so sigma of it is, in every matrix block of u_(m)
    that sum touches, U[:, tops] @ U[:, bottoms]^*.  The images of
    incl_left^{k-l} have disjoint supports and the basis Gram matrix is a
    multiple of the identity, so F replaces the entries of each support by
    their mean and zeroes the rest.
    """
    ctx = stair.ctx
    cab = stair.cab
    ambient = cab.ambient_color(m, minus)
    um = stair.element(m, minus)
    target = um.color
    n_cols, n_rows = color_dim(ctx, ambient), color_dim(ctx, target)
    n_left, size, n_right = block_shape(ctx, target)
    blocks = algebra_blocks(um)
    # one group of matrix units per right slot value: the inclusion's last
    # step, if it opened the right slot, copies the whole image once per
    # value.  The left slot is the same for all of a column.
    support = _image_supports(ctx, ambient, incl_right_pow, cab.depth)
    support = np.take_along_axis(support, np.argsort(support % n_right, axis=1, kind="stable"), 1)
    left, top, bottom, right = np.unravel_index(support.reshape(n_cols, n_right, -1),
                                                (n_left, size, size, n_right))
    block = left * n_right + right
    source = SpinColor(target.width - cab.depth, target.shading * (-1) ** cab.depth)
    groups = _image_supports(ctx, source, incl_left_pow, cab.depth)

    # built transposed: row j of lt is column j of L
    lt = np.zeros((n_cols, n_rows), dtype=complex)
    step = max(1, _CHUNK_BYTES // (16 * n_rows))
    for lo in range(0, n_cols, step):
        hi = min(lo + step, n_cols)
        tops = blocks[block[lo:hi], :, top[lo:hi]]  # (chunk, right, units, size)
        bottoms = blocks[block[lo:hi], :, bottom[lo:hi]]
        conjugated = np.swapaxes(tops, -1, -2) @ bottoms.conj()  # (chunk, right, size, size)
        chunk = lt[lo:hi]
        slots = chunk.reshape(hi - lo, n_left, size, size, n_right)
        slots[np.arange(hi - lo), left[lo:hi, 0, 0]] = conjugated.transpose(0, 2, 3, 1)
        on_image = chunk[:, groups]
        chunk[:, groups] = on_image - on_image.mean(axis=-1, keepdims=True)
    return MembershipOperator(m, minus, ambient, target, lt.T)


@dataclass
class QLevelResult:
    """Kernel data at one level: dimension, bases, and numerical evidence.

    basis holds plus-shaded elements normalized to unit planar norm;
    minus_basis holds their l-click rotations (minus-shaded for odd l),
    empty at level 0 where the shaded space is computed separately.
    kernel_matrix keeps the raw orthonormal kernel columns for projections.
    """

    level: int
    dim: int
    basis: list[SpinElement]
    minus_basis: list[SpinElement]
    residual: float
    gap: float
    ambient_color: SpinColor
    ell: int
    minus: bool = False
    kernel_matrix: np.ndarray = field(default=None, repr=False)


def _kernel_result(op: MembershipOperator, ctx: SpinContext) -> tuple:
    # abs_tol=rel_tol: columns come from unit basis vectors through an
    # isometry minus a contraction, so the natural scale of L is one; a
    # singular value at roundoff means the direction is in the kernel even
    # when the whole matrix is numerically zero (level 0, where L = 0).
    rel_tol = numerics.DEFAULT_REL_TOL
    try:
        ker = numerics.kernel_basis(op.matrix, rel_tol, abs_tol=rel_tol)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"kernel factorization failed at level {op.level}: {exc}") from None
    if ker.dim:
        defects = op.matrix @ ker.basis
        residual = float(np.max(np.linalg.norm(defects, axis=0)))
    else:
        residual = 0.0
    # unit planar norm in closed form: the basis Gram matrix is basis_weight
    # times the identity, so the planar norm is sqrt(weight) times the l2 norm
    weight = basis_weight(ctx, op.ambient_color)
    scaled = ker.basis / (np.linalg.norm(ker.basis, axis=0) * np.sqrt(weight))
    elements = [devectorize(ctx, op.ambient_color, scaled[:, j]) for j in range(ker.dim)]
    return ker, residual, elements


def q_level(stair: Staircase, m: int) -> QLevelResult:
    """Compute Q at plus-shaded level m: kernel of the membership operator.

    The minus-shaded space at the same level is the image of the kernel
    under l clicks of rotation (for m >= 1; rotation is invertible and the
    subalgebra is closed under it, so the image has the same dimension).
    """
    op = membership_operator(stair, m)
    ker, residual, elements = _kernel_result(op, stair.ctx)
    minus_basis = []
    if m >= 1:
        minus_basis = [rotate_pow(b, stair.cab.ell) for b in elements]
    return QLevelResult(m, ker.dim, elements, minus_basis, residual, ker.gap,
                        op.ambient_color, stair.cab.ell, False, ker.basis)


def q_zero_minus(stair: Staircase) -> QLevelResult:
    """Compute Q at the minus-shaded level 0 directly with the shaded unit."""
    op = membership_operator(stair, 0, minus=True)
    ker, residual, elements = _kernel_result(op, stair.ctx)
    return QLevelResult(0, ker.dim, elements, [], residual, ker.gap,
                        op.ambient_color, stair.cab.ell, True, ker.basis)


def q_tower(stair: Staircase, max_level: int) -> list[QLevelResult]:
    """Plus-shaded kernels at levels 0..max_level."""
    return [q_level(stair, m) for m in range(max_level + 1)]


# ---------------------------------------------------------------------------
# the partner element y and the reconstruction identity


def extract_partner_y(stair: Staircase, m: int, x: SpinElement,
                      tol: float = 1e-9) -> SpinElement:
    """The partner y with sigma(x) = incl_left^{k-l}(y), up to normalization.

    Defined for x in the kernel; raises with the membership residual
    otherwise.  Normalized so that reconstruct_from_partner(y) returns x.
    """
    cab = stair.cab
    sx = sigma(stair, m, x)
    defect = sx - left_projection(sx, cab.depth)
    scale = max(norm(x), 1e-300)
    residual = norm(defect) / scale
    if residual > tol:
        raise ValueError(f"x is not in the level-{m} kernel: relative residual {residual:.3g}")
    return (stair.ctx.delta ** (-cab.depth)) * cond_left_pow(sx, cab.depth)


def reconstruct_from_partner(stair: Staircase, m: int, y: SpinElement) -> SpinElement:
    """Inverse of extract_partner_y on kernel elements.

    x = delta^{-(k-l)} . cond_right^{k-l}( u_(m)* . incl_left^{k-l}(y) . u_(m) ).
    """
    cab = stair.cab
    um = stair.element(m)
    inner = mult(star(um), mult(incl_left_pow(y, cab.depth), um))
    return (stair.ctx.delta ** (-cab.depth)) * cond_right_pow(inner, cab.depth)


def partner_operator(stair: Staircase, m: int) -> np.ndarray:
    """Dense matrix of reconstruct_from_partner over the partner basis.

    Columns run over the basis of the partner color (m*l, eps*(-1)^{k-l});
    x satisfies the membership condition iff it lies in the column span.
    """
    ctx = stair.ctx
    cab = stair.cab
    y_color = SpinColor(m * cab.ell, cab.shading * ((-1) ** cab.depth))
    cols = []
    for idx in basis_order(ctx, y_color):
        y = SpinElement(ctx, y_color, {idx: 1.0 + 0j})
        cols.append(vectorize(reconstruct_from_partner(stair, m, y)))
    ambient_dim = color_dim(ctx, cab.ambient_color(m))
    return np.column_stack(cols) if cols else np.zeros((ambient_dim, 0))


def membership_by_partner(stair: Staircase, m: int, x: SpinElement,
                          tol: float = 1e-9,
                          recon_matrix: np.ndarray | None = None) -> tuple[bool, float]:
    """Membership via solvability of the reconstruction equation.

    Decides whether some partner y reconstructs to x, by least squares over
    the partner basis; agrees with the kernel condition of q_level.  Pass a
    precomputed partner_operator matrix to amortize over many probes.
    """
    if recon_matrix is None:
        recon_matrix = partner_operator(stair, m)
    residual = numerics.lstsq_residual(recon_matrix, vectorize(x))
    return residual <= tol, residual


# ---------------------------------------------------------------------------
# closure verification and the group oracle


@dataclass
class ClosureReport:
    """Max projection residual per closure type, over the levels supplied."""

    levels: list[int]
    residuals: dict[str, float]
    tol: float

    @property
    def ok(self) -> bool:
        return all(v <= self.tol for v in self.residuals.values())


def _projection_residual(candidates, target: QLevelResult) -> np.ndarray:
    """Distance of each normalized candidate from the span of target's kernel.

    Returns one residual per candidate: ||v - B B* v|| for the candidate's
    unit coefficient vector v, with B = target.kernel_matrix.  The candidates
    are projected together, as the rows of one matrix (a row v^T projects to
    v^T conj(B) B^T); each is vectorized as it arrives, so only its vector
    outlives it.  A candidate of norm below 1e-13 reads 0, and a NaN
    candidate reads NaN (never 0, so it cannot pass) while the other rows
    stay finite.
    """
    vectors = np.array([vectorize(c) for c in candidates])
    norms = np.linalg.norm(vectors, axis=1)
    zero = norms < 1e-13
    vectors /= np.where(zero, 1.0, norms)[:, None]
    b = target.kernel_matrix
    residuals = np.linalg.norm(vectors - (vectors @ b.conj()) @ b.T, axis=1)
    residuals[zero] = 0.0
    return residuals


def verify_planar_closure(results: list[QLevelResult], tol: float = 1e-9) -> ClosureReport:
    """Check the computed kernels close under the generating operations.

    Products and rotations stay within a level, l-fold right inclusions map
    level m into level m+1, and l-fold right expectations map level m+1
    into level m; the unit belongs to every level.  The plus-shaded levels
    must form one consecutive run of two or more, so that every inclusion
    and expectation between them is checked.  Candidates are projected a
    block at a time: the products a.b of one left factor a over the basis,
    and each other kind once per level, so a block never holds more
    candidates than the basis it comes from.  Report-only: the worst
    residual per closure type is returned, not raised.
    """
    plus = {r.level: r for r in results if not r.minus}
    levels = sorted(plus)
    if len(levels) < 2 or levels != list(range(levels[0], levels[0] + len(levels))):
        raise ValueError(f"need two or more consecutive computed levels, got {levels}")
    ell = plus[levels[0]].ell
    found: dict[str, list[float]] = {kind: [] for kind in (
        "unit", "product", "inclusion", "expectation", "rotation", "star")}

    def check(kind, candidates, target):
        found[kind].append(numerics.worst(_projection_residual(candidates, target)))

    for m, res in plus.items():
        basis = res.basis
        if not basis:
            continue
        check("unit", [unit(basis[0].ctx, res.ambient_color)], res)
        for a in basis:
            check("product", (mult(a, b) for b in basis), res)
        check("star", (star(a) for a in basis), res)
        if m >= 1:
            check("rotation", (rotate_pow(a, 2 * ell) for a in basis), res)
        if m + 1 in plus:
            check("inclusion", (incl_right_pow(a, ell) for a in basis), plus[m + 1])
        if m - 1 in plus:
            check("expectation", (cond_right_pow(a, ell) for a in basis), plus[m - 1])
    return ClosureReport(levels, {kind: numerics.worst(residuals)
                                  for kind, residuals in found.items()}, tol)


@dataclass
class GroupOracle:
    """Closed-form predictions for the subalgebra of a group-table biunitary."""

    table: list[list[int]]
    n: int
    element: SpinElement
    dims: list[int]

    def x(self, g: int) -> SpinElement:
        return x_element(self.table, g)

    def orbit_sums(self, level: int) -> list[SpinElement]:
        """Kernel basis at an even level 2m: orbit sums of the diagonal action."""
        if level <= 0 or level % 2:
            raise ValueError(f"orbit sums are defined at even levels >= 2, got {level}")
        half = level // 2
        return [orbit_sum(self.table, top, bottom)
                for top, bottom in orbit_representatives(self.table, half)]


def group_oracle(table, max_level: int) -> GroupOracle:
    """Validate the table and package the closed-form group predictions."""
    element = group_element(table)
    return GroupOracle([list(r) for r in table], len(table), element,
                       predicted_group_dims(len(table), max_level))
