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
                   color_dim, mult, product_vector, star, unit, vectorize,
                   devectorize)
from .core import norm  # noqa: F401  (not called here; bench/run.py wraps subfactor.norm)
from .ops import incl_left_pow, incl_right_pow, rotate_pow
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


def _permutation_rows(ctx: SpinContext, color: SpinColor, tangle, rows: np.ndarray,
                      antilinear: bool = False) -> np.ndarray:
    """tangle applied to every row of rows, coefficient vectors of color.

    tangle (star, or rotation by an even number of clicks, which keeps the
    color and so brings in no power of delta) sends each basis element to
    another one of the same color with coefficient 1, so on coefficient
    vectors it is a gather.  As in `_image_supports`, a single call on the
    element that carries the label j + 1 at e_j reads off where every e_j
    lands.  An antilinear tangle (star) conjugates the rows too.
    """
    labeled = SpinElement(ctx, color, {idx: j + 1.0 + 0j
                                       for j, idx in enumerate(basis_order(ctx, color))})
    source = vectorize(tangle(labeled)).real.astype(np.intp) - 1
    return rows[:, source].conj() if antilinear else rows[:, source]


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


def _projection_residual(vectors, target: QLevelResult) -> np.ndarray:
    """Distance of each normalized coefficient vector from the span of
    target's kernel.

    vectors are the candidates' coefficient vectors in basis order, one per
    row.  Returns one residual per row: ||v - B B* v|| for the unit vector v
    along it, with B = target.kernel_matrix; the rows are projected together
    (a row v^T projects to v^T conj(B) B^T).  A row of norm below 1e-13
    reads 0, and a NaN row reads NaN (never 0, so it cannot pass) while the
    other rows stay finite.  No rows read no residuals (an empty array).
    """
    if len(vectors) == 0:
        return np.zeros(0)
    vectors = np.array(vectors, dtype=complex)
    norms = np.linalg.norm(vectors, axis=1)
    zero = norms < 1e-13
    vectors /= np.where(zero, 1.0, norms)[:, None]
    b = target.kernel_matrix
    residuals = np.linalg.norm(vectors - (vectors @ b.conj()) @ b.T, axis=1)
    residuals[zero] = 0.0
    return residuals


def _inclusion_rows(rows: np.ndarray, supports: np.ndarray, dim: int) -> np.ndarray:
    """incl_right^l of every row, given the `_image_supports` of that inclusion:
    each coefficient copied onto its basis element's support, in dimension dim."""
    out = np.zeros((len(rows), dim), dtype=complex)
    out[:, supports] = rows[:, :, None]
    return out


def _expectation_rows(ctx: SpinContext, rows: np.ndarray, supports: np.ndarray,
                      times: int) -> np.ndarray:
    """cond_right^times of every row, given the `_image_supports` of the
    times-fold right inclusion into the rows' color: its adjoint, summing
    each support, times delta^times / fan-out, since cond o incl is delta^times
    times the identity (the coefficients it drops lie on no support)."""
    return rows[:, supports].sum(axis=2) * (ctx.delta ** times / supports.shape[1])


def verify_planar_closure(results: list[QLevelResult], tol: float = 1e-9) -> ClosureReport:
    """Check the computed kernels close under the generating operations.

    Products and rotations stay within a level, l-fold right inclusions map
    level m into level m+1, and l-fold right expectations map level m+1
    into level m; the unit belongs to every level, also one whose basis is
    empty (it then reads residual 1).  The plus-shaded levels must form one
    consecutive run of two or more, so that every inclusion and expectation
    between them is checked.  Candidates are projected as coefficient
    vectors, a block at a time.  Each level's basis is stacked once into a
    block of rows; star and rotation by 2l clicks (permutations), the
    inclusion (a 0/1 map with disjoint supports) and the expectation (its
    adjoint up to delta^l / fan-out) are each read off once per level with
    labelled elements and applied to the whole block as one array operation.
    Products stay one `product_vector` per pair, never a dict, with one block
    per left factor a (the products a.b over the basis).  Report-only: the
    worst residual per closure type is returned, not raised.
    """
    plus = {r.level: r for r in results if not r.minus}
    levels = sorted(plus)
    if len(levels) < 2 or levels != list(range(levels[0], levels[0] + len(levels))):
        raise ValueError(f"need two or more consecutive computed levels, got {levels}")
    ell = plus[levels[0]].ell
    # N from the top level, whose width is at least l: N^width kernel rows
    top = plus[levels[-1]]
    ctx = SpinContext(round(len(top.kernel_matrix) ** (1 / top.ambient_color.width)))
    found: dict[str, list[float]] = {kind: [] for kind in (
        "unit", "product", "inclusion", "expectation", "rotation", "star")}

    def check(kind, vectors, target):
        found[kind].append(numerics.worst(_projection_residual(vectors, target)))

    def rotate_twice(x):
        return rotate_pow(x, 2 * ell)

    supports = {}  # level m -> supports of the l-fold inclusion of level m
    for m in levels:
        res = plus[m]
        basis, color = res.basis, res.ambient_color
        rows = np.array([vectorize(a) for a in basis], dtype=complex).reshape(
            len(basis), len(res.kernel_matrix))
        check("unit", [vectorize(unit(ctx, color))], res)
        for a in basis:
            check("product", [product_vector(a, b) for b in basis], res)
        check("star", _permutation_rows(ctx, color, star, rows, antilinear=True), res)
        if m >= 1:
            check("rotation", _permutation_rows(ctx, color, rotate_twice, rows), res)
        if m + 1 in plus:
            above = plus[m + 1]
            supports[m] = _image_supports(ctx, color, incl_right_pow, ell)
            check("inclusion", _inclusion_rows(rows, supports[m], len(above.kernel_matrix)),
                  above)
        if m - 1 in plus:
            check("expectation", _expectation_rows(ctx, rows, supports[m - 1], ell),
                  plus[m - 1])
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
